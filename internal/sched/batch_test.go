package sched

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/wasp"
)

// TestSubmitBatchRunsVirtines drives a real-mode burst through
// SubmitBatch: every ticket must carry its image identity and the right
// result, and the batch completion hook must fire exactly once with the
// full ticket set.
func TestSubmitBatchRunsVirtines(t *testing.T) {
	var batchCalls atomic.Uint64
	var batchTickets atomic.Int64
	w := wasp.New()
	s := New(w, 4, WithOnBatchComplete(func(ts []*Ticket) {
		batchCalls.Add(1)
		batchTickets.Add(int64(len(ts)))
	}))
	defer s.Close()

	img := guest.MustFromAsm("batch-doubler", guest.WrapLongMode(doublerAsm))
	const n = 64
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Img: img, Cfg: wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8}}
	}
	tickets := s.SubmitBatch(reqs)
	if len(tickets) != n {
		t.Fatalf("got %d tickets, want %d", len(tickets), n)
	}
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if got := fromLE64(res.Ret); got != uint64(2*i) {
			t.Fatalf("ticket %d: ret = %d, want %d", i, got, 2*i)
		}
		if tk.Image != "batch-doubler" {
			t.Fatalf("ticket %d: image = %q", i, tk.Image)
		}
	}
	// The hook runs after the last ticket's waiters are released; Close
	// returns only once the worker that ran it has exited.
	s.Close()
	if batchCalls.Load() != 1 || batchTickets.Load() != n {
		t.Fatalf("batch hook: %d calls over %d tickets, want 1 over %d",
			batchCalls.Load(), batchTickets.Load(), n)
	}
	if s.Submitted() != n || s.Completed() != n || s.Rejected() != 0 {
		t.Fatalf("submitted/completed/rejected = %d/%d/%d",
			s.Submitted(), s.Completed(), s.Rejected())
	}
}

// TestSubmitBatchAtMatchesSequentialSubmitAt is the differential
// property: for any random arrival trace, a virtual-mode SubmitBatchAt
// produces exactly the per-ticket schedule and makespan of the
// equivalent sequence of SubmitFnAt calls. Batching is a pure
// optimization, never a semantic change.
func TestSubmitBatchAtMatchesSequentialSubmitAt(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		const n = 200
		arrivals := make([]uint64, n)
		svcs := make([]uint64, n)
		clock := uint64(0)
		for i := 0; i < n; i++ {
			// Random mix of bursts (same arrival) and gaps, with
			// occasional out-of-order submissions.
			if rng.Intn(3) > 0 {
				clock += uint64(rng.Intn(5000))
			}
			arrivals[i] = clock
			if rng.Intn(10) == 0 && clock > 10000 {
				arrivals[i] = clock - uint64(rng.Intn(10000))
			}
			svcs[i] = uint64(100 + rng.Intn(20000))
		}
		task := func(svc uint64) Task {
			return func(clk *cycles.Clock) (*wasp.Result, error) {
				clk.Advance(svc)
				return nil, nil
			}
		}

		seq := NewVirtual(wasp.New(), 3)
		seqTickets := make([]*Ticket, n)
		for i := 0; i < n; i++ {
			seqTickets[i] = seq.SubmitFnAt(arrivals[i], task(svcs[i]))
		}

		bat := NewVirtual(wasp.New(), 3)
		reqs := make([]Request, n)
		for i := 0; i < n; i++ {
			reqs[i] = Request{Arrival: arrivals[i], Fn: task(svcs[i])}
		}
		batTickets := bat.SubmitBatchAt(reqs)

		for i := 0; i < n; i++ {
			a, b := seqTickets[i], batTickets[i]
			if a.Start != b.Start || a.Done != b.Done || a.Worker != b.Worker ||
				a.DepthAtSubmit != b.DepthAtSubmit || a.QueueCycles() != b.QueueCycles() {
				t.Fatalf("seed %d ticket %d: sequential (s=%d d=%d w=%d q=%d dep=%d) != batch (s=%d d=%d w=%d q=%d dep=%d)",
					seed, i, a.Start, a.Done, a.Worker, a.QueueCycles(), a.DepthAtSubmit,
					b.Start, b.Done, b.Worker, b.QueueCycles(), b.DepthAtSubmit)
			}
		}
		if seq.Makespan() != bat.Makespan() {
			t.Fatalf("seed %d: makespan %d != %d", seed, seq.Makespan(), bat.Makespan())
		}
	}
}

// TestSubmitAfterCloseAllPaths is the regression suite for the
// post-Close bug class: every submission entry point, in both modes,
// must return rejected tickets carrying ErrClosed — never panic on a
// dead queue — and the Submitted == Completed + Rejected conservation
// law must hold.
func TestSubmitAfterCloseAllPaths(t *testing.T) {
	img := guest.MustFromAsm("close-doubler", guest.WrapLongMode(doublerAsm))
	task := func(clk *cycles.Clock) (*wasp.Result, error) { return nil, nil }
	for _, mode := range []struct {
		name string
		mk   func() *Scheduler
	}{
		{"real", func() *Scheduler { return New(wasp.New(), 2) }},
		{"virtual", func() *Scheduler { return NewVirtual(wasp.New(), 2) }},
		{"real+admission", func() *Scheduler {
			return New(wasp.New(), 2, WithAdmission(Admission{MaxInFlight: 4}))
		}},
		{"virtual+admission", func() *Scheduler {
			return NewVirtual(wasp.New(), 2, WithAdmission(Admission{MaxInFlight: 4}))
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			s.Close()
			s.Close() // idempotent
			var tickets []*Ticket
			tickets = append(tickets, s.Submit(img, wasp.RunConfig{}))
			tickets = append(tickets, s.SubmitAt(5, img, wasp.RunConfig{}))
			tickets = append(tickets, s.SubmitFn(task))
			tickets = append(tickets, s.SubmitFnAt(5, task))
			tickets = append(tickets, s.SubmitBatch([]Request{{Img: img}, {Fn: task}})...)
			tickets = append(tickets, s.SubmitBatchAt([]Request{{Arrival: 5, Img: img}, {Fn: task}})...)
			for i, tk := range tickets {
				if _, err := tk.Wait(); !errors.Is(err, ErrClosed) {
					t.Fatalf("ticket %d: err = %v, want ErrClosed", i, err)
				}
				if q := tk.QueueCycles(); q != 0 {
					t.Fatalf("ticket %d: queue cycles = %d on a rejected ticket", i, q)
				}
			}
			n := uint64(len(tickets))
			if s.Submitted() != n || s.Rejected() != n || s.Completed() != 0 {
				t.Fatalf("submitted/rejected/completed = %d/%d/%d, want %d/%d/0",
					s.Submitted(), s.Rejected(), s.Completed(), n, n)
			}
		})
	}
}

// TestSubmitBatchRejectsNilRequests: a Request with neither an image
// nor a task yields a rejected ticket, not a worker panic.
func TestSubmitBatchRejectsNilRequests(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func() *Scheduler
	}{
		{"real", func() *Scheduler { return New(wasp.New(), 1) }},
		{"virtual", func() *Scheduler { return NewVirtual(wasp.New(), 1) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.mk()
			defer s.Close()
			if got := s.SubmitBatch(nil); got != nil {
				t.Fatalf("empty batch returned %v", got)
			}
			tickets := s.SubmitBatch([]Request{
				{Fn: func(clk *cycles.Clock) (*wasp.Result, error) { clk.Advance(1); return nil, nil }},
				{}, // malformed
			})
			if _, err := tickets[0].Wait(); err != nil {
				t.Fatalf("good request failed: %v", err)
			}
			if _, err := tickets[1].Wait(); err == nil {
				t.Fatal("malformed request did not fail")
			}
			if s.Submitted() != 2 || s.Completed() != 1 || s.Rejected() != 1 {
				t.Fatalf("submitted/completed/rejected = %d/%d/%d, want 2/1/1",
					s.Submitted(), s.Completed(), s.Rejected())
			}
		})
	}
}

// TestAdmissionBatchStressRace is the -race stress for batched
// submission: 16 goroutines issue a mix of single and batch submits
// across 4 images while the scheduler is concurrently closed. Nothing
// may be lost or double-completed: every ticket resolves, per-ticket
// OnComplete fires exactly once per completed ticket, each batch hook
// fires exactly once, and Submitted == Completed + Rejected.
func TestAdmissionBatchStressRace(t *testing.T) {
	images := make([]*guest.Image, 4)
	for i := range images {
		images[i] = guest.MustFromAsm("race-img-"+string(rune('a'+i)), guest.WrapLongMode(doublerAsm))
	}
	var completions sync.Map // *Ticket -> *atomic.Int64
	var completed atomic.Uint64
	var batchCalls, batchWant atomic.Uint64
	w := wasp.New()
	s := New(w, 4,
		WithAdmission(Admission{Weights: map[string]int{"race-img-a": 4}}),
		WithOnComplete(func(tk *Ticket) {
			completed.Add(1)
			c, _ := completions.LoadOrStore(tk, new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
		}),
		WithOnBatchComplete(func(ts []*Ticket) { batchCalls.Add(1) }),
	)

	const submitters = 16
	var wg sync.WaitGroup
	ticketCh := make(chan []*Ticket, submitters*32)
	start := make(chan struct{})
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 12; round++ {
				img := images[(g+round)%len(images)]
				if rng.Intn(2) == 0 {
					tk := s.Submit(img, wasp.RunConfig{Args: le64(uint64(g)), RetBytes: 8})
					ticketCh <- []*Ticket{tk}
				} else {
					reqs := make([]Request, 1+rng.Intn(6))
					for i := range reqs {
						reqs[i] = Request{
							Img: images[(g+round+i)%len(images)],
							Cfg: wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8},
						}
					}
					batchWant.Add(1)
					ticketCh <- s.SubmitBatch(reqs)
				}
			}
		}(g)
	}
	closer := make(chan struct{})
	go func() {
		defer close(closer)
		// Race Close against the submitters mid-flight.
		for i := 0; i < 64; i++ {
			s.QueueDepth()
		}
		s.Close()
	}()
	close(start)
	wg.Wait()
	<-closer
	close(ticketCh)

	var total, rejectedSeen uint64
	for ts := range ticketCh {
		for _, tk := range ts {
			total++
			if _, err := tk.Wait(); err != nil {
				if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrAdmission) {
					t.Fatalf("unexpected ticket error: %v", err)
				}
				rejectedSeen++
			}
		}
	}
	if total != s.Submitted() {
		t.Fatalf("collected %d tickets, scheduler submitted %d", total, s.Submitted())
	}
	if s.Submitted() != s.Completed()+s.Rejected() {
		t.Fatalf("conservation violated: submitted %d != completed %d + rejected %d",
			s.Submitted(), s.Completed(), s.Rejected())
	}
	if rejectedSeen != s.Rejected() {
		t.Fatalf("per-ticket rejections %d != Rejected() %d", rejectedSeen, s.Rejected())
	}
	if completed.Load() != s.Completed() {
		t.Fatalf("OnComplete fired %d times for %d completions", completed.Load(), s.Completed())
	}
	singles := 0
	completions.Range(func(_, v any) bool {
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Fatalf("a ticket's OnComplete fired %d times", n)
		}
		singles++
		return true
	})
	if uint64(singles) != s.Completed() {
		t.Fatalf("%d distinct completed tickets, want %d", singles, s.Completed())
	}
	if batchCalls.Load() != batchWant.Load() {
		t.Fatalf("batch hook fired %d times for %d batches", batchCalls.Load(), batchWant.Load())
	}
}
