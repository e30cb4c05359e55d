package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/wasp"
)

// doubler mirrors the wasp test virtine: read arg at 0x0, double it,
// store at the return region, exit(0).
const doublerAsm = `
	movi rbx, 0x0
	load rdi, [rbx]
	add rdi, rdi
	movi rbx, 0x4000
	store [rbx], rdi
	movi rdi, 0
	out 0x00, rdi
	hlt
`

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func fromLE64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestSubmitRunsVirtine(t *testing.T) {
	w := wasp.New()
	s := New(w, 4)
	defer s.Close()

	img := guest.MustFromAsm("sched-doubler", guest.WrapLongMode(doublerAsm))
	const n = 64
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = s.Submit(img, wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8})
	}
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := fromLE64(res.Ret); got != uint64(2*i) {
			t.Fatalf("ticket %d: ret = %d, want %d", i, got, 2*i)
		}
		if tk.Done <= tk.Start {
			t.Fatalf("ticket %d: empty service window [%d,%d]", i, tk.Start, tk.Done)
		}
	}
	s.Close()
	if s.Submitted() != n || s.Completed() != n {
		t.Fatalf("submitted/completed = %d/%d, want %d/%d", s.Submitted(), s.Completed(), n, n)
	}
	if d := metric(s, "sched_queue_depth"); d != 0 {
		t.Fatalf("queue depth %v after drain", d)
	}
	var runs uint64
	for _, wl := range s.WorkerInfo() {
		runs += wl.Runs
	}
	if runs != n {
		t.Fatalf("worker loads sum to %d, want %d", runs, n)
	}
	if s.Makespan() == 0 {
		t.Fatal("makespan is zero after real work")
	}
}

func TestTicketErrorPropagates(t *testing.T) {
	w := wasp.New()
	s := New(w, 2)
	defer s.Close()

	boom := errors.New("boom")
	bad := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
		return nil, boom
	})
	good := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(1)
		return nil, nil
	})
	if _, err := bad.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if err := WaitAll(good, bad); !errors.Is(err, boom) {
		t.Fatalf("WaitAll = %v, want boom", err)
	}
}

func TestVirtualModeDeterministicQueueing(t *testing.T) {
	const svc = 1000
	task := func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(svc)
		return nil, nil
	}
	s := NewVirtual(wasp.New(), 2)

	// Three arrivals at t=0 on two workers: the third must queue behind
	// the first completion.
	t1 := s.SubmitFnAt(0, task)
	t2 := s.SubmitFnAt(0, task)
	t3 := s.SubmitFnAt(0, task)
	if err := WaitAll(t1, t2, t3); err != nil {
		t.Fatal(err)
	}
	if t1.Start != 0 || t2.Start != 0 {
		t.Fatalf("first two should start immediately, got %d/%d", t1.Start, t2.Start)
	}
	if t3.Start != svc {
		t.Fatalf("third start = %d, want %d (queued behind a busy worker)", t3.Start, svc)
	}
	if t3.QueueCycles() != svc {
		t.Fatalf("queue delay = %d, want %d", t3.QueueCycles(), svc)
	}
	if t3.DepthAtSubmit != 2 {
		t.Fatalf("depth at submit = %d, want 2 busy workers", t3.DepthAtSubmit)
	}
	// A late arrival after the backlog drains must not queue.
	t4 := s.SubmitFnAt(10*svc, task)
	if _, err := t4.Wait(); err != nil {
		t.Fatal(err)
	}
	if t4.Start != 10*svc || t4.QueueCycles() != 0 {
		t.Fatalf("idle-arrival start = %d (queue %d), want immediate", t4.Start, t4.QueueCycles())
	}
	if s.Makespan() != 11*svc {
		t.Fatalf("makespan = %d, want %d", s.Makespan(), 11*svc)
	}
}

func TestVirtualModeReproducible(t *testing.T) {
	run := func() []uint64 {
		s := NewVirtual(wasp.New(), 3)
		var starts []uint64
		for i := 0; i < 20; i++ {
			svc := uint64(100 + 37*(i%5))
			tk := s.SubmitFnAt(uint64(i)*50, func(clk *cycles.Clock) (*wasp.Result, error) {
				clk.Advance(svc)
				return nil, nil
			})
			tk.Wait()
			starts = append(starts, tk.Start)
		}
		return starts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("virtual schedule not reproducible at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestQueueDepthAccounting(t *testing.T) {
	w := wasp.New()
	s := New(w, 1, WithQueueCap(16))
	defer s.Close()

	gate := make(chan struct{})
	blocker := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
		<-gate
		return nil, nil
	})
	const backlog = 5
	tickets := make([]*Ticket, backlog)
	for i := range tickets {
		tickets[i] = s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
			clk.Advance(1)
			return nil, nil
		})
	}
	// The single worker is blocked, so at least the backlog is queued
	// (the blocker itself may or may not have been dequeued yet).
	if d := metric(s, "sched_queue_depth"); d < backlog {
		t.Fatalf("queue depth = %v with %d waiting", d, backlog)
	}
	if p := s.PeakQueueDepth(); p < backlog {
		t.Fatalf("peak queue depth = %d, want >= %d", p, backlog)
	}
	if last := tickets[backlog-1]; last.DepthAtSubmit < backlog-1 {
		t.Fatalf("last ticket depth-at-submit = %d, want >= %d", last.DepthAtSubmit, backlog-1)
	}
	close(gate)
	if err := WaitAll(append(tickets, blocker)...); err != nil {
		t.Fatal(err)
	}
	if d := metric(s, "sched_queue_depth"); d != 0 {
		t.Fatalf("queue depth = %v after drain", d)
	}
}

func TestUndeclaredArrivalReportsNoQueueDelay(t *testing.T) {
	w := wasp.New()
	s := New(w, 1)
	defer s.Close()
	task := func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(1000)
		return nil, nil
	}
	t1 := s.SubmitFn(task)
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	// The worker's clock now sits at 1000, but this ticket arrives at an
	// idle scheduler: it must not inherit t1's service time as "queueing".
	t2 := s.SubmitFn(task)
	if _, err := t2.Wait(); err != nil {
		t.Fatal(err)
	}
	if q := t2.QueueCycles(); q != 0 {
		t.Fatalf("idle-submit queue delay = %d, want 0", q)
	}
	// Declared arrivals keep full queue accounting.
	t3 := s.SubmitFnAt(0, task)
	if _, err := t3.Wait(); err != nil {
		t.Fatal(err)
	}
	if q := t3.QueueCycles(); q != 2000 {
		t.Fatalf("declared-arrival queue delay = %d, want 2000", q)
	}
}

func TestSubmitAfterCloseFailsCleanly(t *testing.T) {
	w := wasp.New()
	s := New(w, 2)
	ok := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(1)
		return nil, nil
	})
	if _, err := ok.Wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	late := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
		t.Error("task ran after Close")
		return nil, nil
	})
	if _, err := late.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// The attempt is counted, as a rejection: the conservation law
	// Submitted == Completed + Rejected must hold after the drain.
	if s.Submitted() != 2 || s.Completed() != 1 || s.Rejected() != 1 {
		t.Fatalf("submitted/completed/rejected = %d/%d/%d, want 2/1/1",
			s.Submitted(), s.Completed(), s.Rejected())
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	w := wasp.New()
	s := New(w, 4)
	defer s.Close()
	img := guest.MustFromAsm("sched-stress", guest.WrapLongMode(doublerAsm))

	const submitters = 8
	const each = 16
	var wg sync.WaitGroup
	errs := make(chan error, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tickets := make([]*Ticket, each)
			for i := range tickets {
				tickets[i] = s.Submit(img, wasp.RunConfig{Args: le64(uint64(g*each + i)), RetBytes: 8})
			}
			for i, tk := range tickets {
				res, err := tk.Wait()
				if err != nil {
					errs <- err
					return
				}
				if got, want := fromLE64(res.Ret), uint64(2*(g*each+i)); got != want {
					errs <- fmt.Errorf("submitter %d ticket %d: ret %d want %d", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.Completed() != submitters*each {
		t.Fatalf("completed = %d, want %d", s.Completed(), submitters*each)
	}
}

// TestQueueCyclesNoUnderflowAfterClose is the regression test for the
// uint64 wrap: a ticket with a declared arrival that races or follows
// Close never starts (Start == 0), and Start-Arrival used to wrap to
// ~1.8e19 cycles.
func TestQueueCyclesNoUnderflowAfterClose(t *testing.T) {
	task := func(clk *cycles.Clock) (*wasp.Result, error) { return nil, nil }
	for _, mode := range []struct {
		name string
		mk   func() *Scheduler
	}{
		{"real", func() *Scheduler { return New(wasp.New(), 1) }},
		{"virtual", func() *Scheduler { return NewVirtual(wasp.New(), 1) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			s.Close()
			tk := s.SubmitFnAt(123_456, task)
			if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
				t.Fatalf("err = %v, want ErrClosed", err)
			}
			if q := tk.QueueCycles(); q != 0 {
				t.Fatalf("failed ticket queue delay = %d, want 0 (wrapped?)", q)
			}
			if sv := tk.ServiceCycles(); sv != 0 {
				t.Fatalf("failed ticket service = %d, want 0", sv)
			}
		})
	}
}

// TestRealWaspCAReleasesToPool: under the real scheduler a Wasp+CA
// release goes straight back to the pool. Nothing drives the cleaner's
// ledger, so nothing is owed or settled and no lane scrubs; the shells
// come back with no zeroing charged to any ticket.
func TestRealWaspCAReleasesToPool(t *testing.T) {
	const n = 8
	w := wasp.New(wasp.WithAsyncClean(true))
	s := New(w, 2)
	defer s.Close()
	img := guest.MustFromAsm("real-ca", guest.WrapLongMode(doublerAsm))

	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = s.Submit(img, wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8})
	}
	if err := WaitAll(tickets...); err != nil {
		t.Fatal(err)
	}
	c := w.Cleaner()
	if w.PoolTotal() == 0 {
		t.Fatal("no released shell was pooled")
	}
	owed, settled := metric(w, "wasp_clean_pending{platform=kvm}"), metric(s, "sched_cleaner_drains")
	if c.Enqueued() != n || owed != 0 || settled != 0 {
		t.Fatalf("booked %d releases, %v owed, %v settled; want %d, 0, 0", c.Enqueued(), owed, settled, n)
	}
}

// TestWaspCAClaims: a burst of 256 halting virtines on four real
// workers, once under Wasp+C and once under Wasp+CA, after one warm-up
// run fills the pool. With cleaning off the critical path the mean
// per-run service cost drops by about the shell zeroing, the cleaner
// really books the released shells, and neither pool outgrows its
// per-class cap.
func TestWaspCAClaims(t *testing.T) {
	const trials = 256
	img := guest.MinimalHalt()
	mean := map[bool]float64{}
	for _, async := range []bool{false, true} {
		w := wasp.New(wasp.WithAsyncClean(async))
		if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		s := New(w, 4)
		tickets := make([]*Ticket, trials)
		for i := range tickets {
			tickets[i] = s.Submit(img, wasp.RunConfig{})
		}
		err := WaitAll(tickets...)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range tickets {
			mean[async] += float64(tk.ServiceCycles())
		}
		mean[async] /= trials
		if pool := w.PoolTotal(); pool > 64 {
			t.Fatalf("async=%v: pool total %d exceeds the per-class cap", async, pool)
		}
		if async && metric(w, "wasp_clean_cleaned{platform=kvm}") == 0 {
			t.Fatal("no shell was cleaned asynchronously")
		}
		t.Logf("async=%v: %.1f vcycles/run, pool %d", async, mean[async], w.PoolTotal())
	}
	if mean[true] >= mean[false] {
		t.Fatalf("Wasp+CA mean (%.1f) not cheaper than Wasp+C (%.1f)", mean[true], mean[false])
	}
}

// TestVirtualWaspCADeterminism: with async cleaning modelled as a
// dedicated virtual core, Wasp+CA virtual-mode schedules stay fully
// reproducible — makespan, cleaner-core cycles, and drain counts.
func TestVirtualWaspCADeterminism(t *testing.T) {
	run := func() (makespan, cleanerCycles uint64, drains float64) {
		w := wasp.New(wasp.WithAsyncClean(true))
		s := NewVirtual(w, 2)
		defer s.Close()
		img := guest.MustFromAsm("vca-det", guest.WrapLongMode(doublerAsm))
		for i := 0; i < 12; i++ {
			tk := s.SubmitAt(uint64(i)*50_000, img, wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8})
			if _, err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		return s.Makespan(), w.Cleaner().Cycles(), metric(s, "sched_cleaner_drains")
	}
	m1, c1, d1 := run()
	m2, c2, d2 := run()
	t.Logf("makespan %d, cleaner cycles %d, cleaner drains %v", m1, c1, d1)
	if m1 != m2 || c1 != c2 || d1 != d2 {
		t.Fatalf("Wasp+CA virtual schedule not reproducible: (%d,%d,%v) vs (%d,%d,%v)",
			m1, c1, d1, m2, c2, d2)
	}
	if c1 == 0 {
		t.Fatal("virtual cleaner core did no work")
	}
	if d1 != 12 {
		t.Fatalf("cleaner drains = %v, want 12 (one released shell per run)", d1)
	}
}

// TestWorkerLoadsConcurrentRead reads WorkerInfo while workers
// execute; with atomic run counters this is race-free under -race.
func TestWorkerLoadsConcurrentRead(t *testing.T) {
	w := wasp.New()
	s := New(w, 2)
	defer s.Close()

	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.WorkerInfo()
			}
		}
	}()
	const n = 32
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
			clk.Advance(100)
			return nil, nil
		})
	}
	if err := WaitAll(tickets...); err != nil {
		t.Fatal(err)
	}
	close(stop)
	rg.Wait()
	var sum uint64
	for _, wl := range s.WorkerInfo() {
		sum += wl.Runs
	}
	if sum != n {
		t.Fatalf("worker loads sum to %d, want %d", sum, n)
	}
}

// TestSchedulerFeedsPoolPolicy: every completed image ticket feeds its
// queue depth at submit to the pool of the backend that served it
// (virtual mode, so the depths are deterministic). A burst, whose
// tickets find busy workers, keeps the class's warm set; a run of
// uncontended tickets as long as the idle streak gives one shell back.
func TestSchedulerFeedsPoolPolicy(t *testing.T) {
	const streak = 64 // wasp's shrinkAfter
	w := wasp.New()
	s := NewVirtual(w, 2)
	defer s.Close()
	img := guest.MustFromAsm("policy-feed", guest.WrapLongMode(doublerAsm))
	mem := img.MemBytes()
	w.Prewarm(mem, 4)
	run := func(at uint64, i int) {
		tk := s.SubmitAt(at, img, wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8})
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*streak; i++ {
		run(0, i) // all at once: every ticket after the first finds a busy worker
	}
	if got := w.PoolSize(mem); got != 4 {
		t.Fatalf("pool = %d after a burst, want the 4 prewarmed shells kept", got)
	}
	at := uint64(1) << 40 // far past the burst, then far apart: no queue
	for i := 0; i < streak; i++ {
		run(at, i)
		at += 1 << 30
	}
	if got := w.PoolSize(mem); got != 3 {
		t.Fatalf("pool = %d after %d uncontended tickets, want 3", got, streak)
	}
}

func TestPerWorkerClocksAdvanceIndependently(t *testing.T) {
	s := NewVirtual(wasp.New(), 2)
	// Alternate cheap and expensive tasks; each worker's clock must
	// reflect only its own service history.
	for i := 0; i < 4; i++ {
		svc := uint64(100)
		if i%2 == 1 {
			svc = 1000
		}
		s.SubmitFnAt(0, func(clk *cycles.Clock) (*wasp.Result, error) {
			clk.Advance(svc)
			return nil, nil
		})
	}
	loads := s.WorkerInfo()
	if loads[0].Runs+loads[1].Runs != 4 {
		t.Fatalf("loads = %+v, want 4 total", loads)
	}
	// Worker 0 served tasks 0 and 2 (earliest-free, tie to index 0):
	// 100 then queued 1000? No — deterministic check: makespan equals
	// the busiest worker, which must exceed the cheap-only worker's sum.
	if s.Makespan() < 1000 {
		t.Fatalf("makespan = %d, want >= 1000", s.Makespan())
	}
}
