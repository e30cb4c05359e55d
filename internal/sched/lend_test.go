package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// laneOf finds the lane a running task is on: a task is handed its
// lane's clock.
func laneOf(s *Scheduler, clk *cycles.Clock) *worker {
	for _, wk := range s.workers {
		if wk.clk == clk {
			return wk
		}
	}
	return nil
}

// lentNow reports, from inside a task, whether the lane it runs on is
// out with a waiter — i.e. whether the task is running on a goroutine
// blocked in Ticket.Wait rather than on the lane's resident.
func lentNow(s *Scheduler, clk *cycles.Clock) bool {
	s.core.Lock()
	defer s.core.Unlock()
	return laneOf(s, clk).lent
}

// lanesAtRest fails unless no lane is lent and none is left on the idle
// list — the state Close must leave behind.
func lanesAtRest(t *testing.T, s *Scheduler) {
	t.Helper()
	c := s.core.(*realCore)
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for _, wk := range s.workers {
		if wk.lent {
			t.Errorf("lane %d still lent after Close", wk.id)
		}
	}
	if len(c.idle) != 0 {
		t.Errorf("%d lanes still on the idle list after Close", len(c.idle))
	}
}

// awaitParked returns once every resident has parked, so every lane is
// lendable: a fresh scheduler's residents may not have run yet.
func awaitParked(s *Scheduler) {
	c := s.core.(*realCore)
	for parked := 0; parked < len(s.workers); runtime.Gosched() {
		c.dmu.Lock()
		parked = len(c.idle)
		c.dmu.Unlock()
	}
}

// lendAttempts bounds the retries of tests that need the waiter, not the
// resident, to win the race for a ticket. The waiter takes dmu within
// nanoseconds of Submit's unlock while the resident needs a wake-up, so
// one attempt is nearly always enough.
const lendAttempts = 200

// TestLendCloseWaitsForBorrowedLane: Close racing a waiter that is
// mid-ticket on a borrowed lane must not return until the lane is back,
// must drain what was queued behind it, and must leave
// Submitted == Completed + Rejected with every lane at rest.
func TestLendCloseWaitsForBorrowedLane(t *testing.T) {
	for attempt := 0; attempt < lendAttempts; attempt++ {
		s := New(wasp.New(), 1)
		c := s.core.(*realCore)
		awaitParked(s)
		started := make(chan bool)
		release := make(chan struct{})
		waited := make(chan error, 1)
		go func() {
			_, err := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
				started <- lentNow(s, clk)
				<-release
				return nil, nil
			}).Wait()
			waited <- err
		}()
		if lent := <-started; !lent {
			// The resident won this one: nothing to race Close against.
			close(release)
			<-waited
			s.Close()
			continue
		}
		// Never-waited tickets queue up behind the borrowed lane; only its
		// resident can serve them, and only once the lane is back.
		var behind atomic.Uint64
		for i := 0; i < 3; i++ {
			s.SubmitFn(func(*cycles.Clock) (*wasp.Result, error) {
				behind.Add(1)
				return nil, nil
			})
		}
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		for shut := false; !shut; runtime.Gosched() {
			c.dmu.Lock()
			shut = c.qclosed
			c.dmu.Unlock()
		}
		select {
		case <-closed:
			t.Fatal("Close returned while a waiter was mid-ticket on a borrowed lane")
		default:
		}
		if _, err := s.SubmitFn(costTask(1)).Wait(); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after Close: err = %v, want ErrClosed", err)
		}
		close(release)
		if err := <-waited; err != nil {
			t.Fatal(err)
		}
		<-closed
		if behind.Load() != 3 {
			t.Fatalf("%d of 3 tickets queued behind the borrowed lane ran", behind.Load())
		}
		if s.Submitted() != s.Completed()+s.Rejected() {
			t.Fatalf("Submitted %d != Completed %d + Rejected %d", s.Submitted(), s.Completed(), s.Rejected())
		}
		if s.HelpedRuns() == 0 {
			t.Fatal("lane was lent but HelpedRuns is 0")
		}
		lanesAtRest(t, s)
		return
	}
	t.Fatalf("no waiter ever ran its ticket inline in %d attempts", lendAttempts)
}

// holdEveryLane fails unless all of s's lanes can hold a ticket at once:
// none was stranded. Each ticket is its own image, so a per-image cap
// does not serialize them.
func holdEveryLane(t *testing.T, s *Scheduler) {
	t.Helper()
	started := make(chan struct{})
	release := make(chan struct{})
	var reqs []Request
	for i := range s.workers {
		reqs = append(reqs, Request{Image: fmt.Sprint("hold", i), Fn: func(*cycles.Clock) (*wasp.Result, error) {
			started <- struct{}{}
			<-release
			return nil, nil
		}})
	}
	held := s.SubmitBatch(reqs)
	for range s.workers {
		<-started
	}
	close(release)
	if err := WaitAll(held...); err != nil {
		t.Fatal(err)
	}
}

// TestLendRecoveredPanicReturnsLane: a task that panics on a borrowed
// lane fails its own ticket — the waiter driving the lane gets the error,
// not the panic — and the lane is back in service: afterwards all
// NumWorkers lanes hold a ticket at once.
func TestLendRecoveredPanicReturnsLane(t *testing.T) {
	s := New(wasp.New(), 2)
	defer s.Close()
	awaitParked(s)
	lent := false
	for attempt := 0; attempt < lendAttempts && !lent; attempt++ {
		_, err := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
			lent = lentNow(s, clk)
			panic("boom")
		}).Wait()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
			t.Fatalf("Wait returned %v, want a PanicError carrying \"boom\" and a stack", err)
		}
	}
	if !lent {
		t.Fatalf("no waiter ever ran its ticket inline in %d attempts", lendAttempts)
	}
	holdEveryLane(t, s)
	s.Close()
	lanesAtRest(t, s)
}

// TestPanickingTaskFailsItsTicket: on a resident, on a lent lane and on
// the virtual core, a task that panics completes its ticket with a
// PanicError and the accounting after serve runs — under MaxInFlight: 1
// the image's next ticket is admitted (the slot was released), every lane
// still serves, and Submitted == Completed + Rejected.
func TestPanickingTaskFailsItsTicket(t *testing.T) {
	capped := WithAdmission(Admission{MaxInFlight: 1})
	submit := func(s *Scheduler, fn Task) *Ticket {
		return s.SubmitBatch([]Request{{Image: "tenant", Fn: fn}})[0]
	}
	// done waits without Wait, so only a resident can have run the ticket.
	done := func(t *testing.T, tk *Ticket) error {
		t.Helper()
		select {
		case <-tk.done:
			return tk.err
		case <-time.After(30 * time.Second):
			t.Fatal("ticket never completed")
			return nil
		}
	}
	check := func(t *testing.T, s *Scheduler, err error) {
		t.Helper()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "boom" {
			t.Fatalf("ticket error %v, want a PanicError carrying \"boom\"", err)
		}
		ran := false
		if err := done(t, submit(s, func(*cycles.Clock) (*wasp.Result, error) { ran = true; return nil, nil })); err != nil || !ran {
			t.Fatalf("the image's next ticket: ran=%v err=%v (quota slot leaked?)", ran, err)
		}
		if tel, _ := s.AdmissionStats("tenant"); tel.InFlight != 0 {
			t.Fatalf("in-flight count %d after both tickets completed", tel.InFlight)
		}
		if _, real := s.core.(*realCore); real {
			holdEveryLane(t, s)
		}
		s.Close()
		if s.Submitted() != s.Completed()+s.Rejected() {
			t.Fatalf("Submitted %d != Completed %d + Rejected %d", s.Submitted(), s.Completed(), s.Rejected())
		}
	}
	bomb := func(*cycles.Clock) (*wasp.Result, error) { panic("boom") }

	t.Run("resident", func(t *testing.T) {
		s := New(wasp.New(), 2, capped)
		defer s.Close()
		check(t, s, done(t, submit(s, bomb)))
	})
	t.Run("lent", func(t *testing.T) {
		for attempt := 0; attempt < lendAttempts; attempt++ {
			s := New(wasp.New(), 2, capped)
			awaitParked(s)
			lent := false
			_, err := submit(s, func(clk *cycles.Clock) (*wasp.Result, error) {
				lent = lentNow(s, clk)
				panic("boom")
			}).Wait()
			check(t, s, err)
			lanesAtRest(t, s)
			if lent {
				return
			}
		}
		t.Fatalf("no waiter ever ran its ticket inline in %d attempts", lendAttempts)
	})
	t.Run("virtual", func(t *testing.T) {
		s := NewVirtual(wasp.New(), 2, capped)
		defer s.Close()
		_, err := submit(s, bomb).Wait()
		check(t, s, err)
	})
}

// helpOrderRun queues one gate ticket and 64 weighted tickets (images
// a/b/c/d at weights 8/4/2/1) on a one-lane scheduler in a single
// burst, releases the gate, and returns the order the 64 ran in. With
// help, the submitter waits on the last-submitted ticket straight away;
// lent reports whether it (rather than the resident) drove the lane.
func helpOrderRun(t *testing.T, help bool) (order []int, lent bool, helped uint64) {
	t.Helper()
	s := New(wasp.New(), 1, WithQueueCap(128), WithAdmission(Admission{
		Weights: map[string]int{"a": 8, "b": 4, "c": 2, "d": 1},
	}))
	started := make(chan bool, 1)
	release := make(chan struct{})
	// All passes start equal, so the first pick goes by name: "0gate"
	// sorts ahead of the tenants.
	reqs := []Request{{Image: "0gate", Fn: func(clk *cycles.Clock) (*wasp.Result, error) {
		started <- lentNow(s, clk)
		<-release
		return nil, nil
	}}}
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		i := i
		reqs = append(reqs, Request{Image: string(rune('a' + i%4)), Fn: func(clk *cycles.Clock) (*wasp.Result, error) {
			clk.Advance(uint64(1000 * (1 + i%3)))
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil, nil
		}})
	}
	// The gate opens as soon as its task has reported who runs it.
	opened := make(chan struct{})
	go func() {
		lent = <-started
		close(release)
		close(opened)
	}()
	awaitParked(s)
	tickets := s.SubmitBatch(reqs)
	if help {
		tickets[len(tickets)-1].Wait()
	}
	<-opened
	s.Close()
	if s.Completed() != uint64(len(reqs)) {
		t.Fatalf("completed %d of %d", s.Completed(), len(reqs))
	}
	return order, lent, s.HelpedRuns()
}

// TestHelpPopsInResidentOrder: a waiter driving the lane pops exactly
// the sequence the resident alone would have popped — no ticket jumps
// the fair pick because its caller is waiting.
func TestHelpPopsInResidentOrder(t *testing.T) {
	want, lent, helped := helpOrderRun(t, false)
	if lent || helped != 0 {
		t.Fatalf("resident-only run: lent=%v helped=%d", lent, helped)
	}
	if len(want) != 64 {
		t.Fatalf("resident-only run served %d of 64", len(want))
	}
	for attempt := 0; attempt < lendAttempts; attempt++ {
		got, lent, helped := helpOrderRun(t, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pop order differs (lent=%v helped=%d)\n got %v\nwant %v", lent, helped, got, want)
		}
		if !lent {
			continue // the resident won the gate; the order still had to match
		}
		// The waiter holds the lane until its own ticket (the last
		// submitted) is popped: the gate, then everything up to it.
		own := 0
		for own < len(want) && want[own] != 63 {
			own++
		}
		if helped != uint64(own)+2 {
			t.Fatalf("waiter drove the lane but served %d tickets, want %d", helped, own+2)
		}
		return
	}
	t.Fatalf("no waiter ever drove the lane in %d attempts", lendAttempts)
}

// TestHelpServesClosedLoopInline: the benchmark's shape — one lane, one
// client that submits and waits — serves (nearly) every request on the
// client's goroutine, and the registry exports the count.
func TestHelpServesClosedLoopInline(t *testing.T) {
	s := New(wasp.New(), 1)
	defer s.Close()
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := s.SubmitFn(costTask(1)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if h := s.HelpedRuns(); h < n*9/10 {
		t.Fatalf("HelpedRuns = %d of %d closed-loop requests, want nearly all", h, n)
	}
	reg := obs.NewRegistry()
	s.RegisterMetrics(reg)
	exported := -1.0
	for _, m := range reg.Snapshot() {
		if m.Name == "sched_helped_total" {
			exported = m.Value
		}
	}
	if exported != float64(s.HelpedRuns()) {
		t.Fatalf("sched_helped_total = %v, HelpedRuns = %d", exported, s.HelpedRuns())
	}
}

// lendStressConfig is one fleet shape of the lending stress test.
type lendStressConfig struct {
	name    string
	workers int
	opts    func() []Option
	wasp    func() *wasp.Wasp
	// pins maps image tags to the platform they must run on ("" = any).
	pins map[string]string
}

func plainWasp() *wasp.Wasp { return wasp.New() }

// TestLendStress hammers the lending protocol with more clients than
// lanes, mixing waited tickets, never-waited ones (seen only by the
// completion hook) and bursts. Invariants: at most W tickets in service
// at any instant, a lane's clock is never advanced by two drivers at
// once (each Start >= the previous Done on that lane — and -race sees
// the clock itself), pinned tickets only run on eligible backends, every
// ticket completes, and some of them were served inline.
func TestLendStress(t *testing.T) {
	pins := map[string]string{"pin-kvm": "kvm", "pin-hv": "hyper-v", "any": ""}
	static := placement.Static{Pins: map[string]string{"pin-kvm": "kvm", "pin-hv": "hyper-v"}}
	configs := []lendStressConfig{
		{name: "fifo", workers: 3, wasp: plainWasp,
			opts: func() []Option { return nil }},
		{name: "admission", workers: 3, wasp: plainWasp,
			opts: func() []Option {
				return []Option{WithAdmission(Admission{MaxInFlight: 2, Weights: map[string]int{"any": 4}})}
			}},
		{name: "placer", workers: 4, wasp: splitWasp, pins: pins,
			opts: func() []Option {
				return []Option{WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}), WithPlacer(static)}
			}},
		{name: "admission+placer", workers: 4, wasp: splitWasp, pins: pins,
			opts: func() []Option {
				return []Option{WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}), WithPlacer(static),
					WithAdmission(Admission{MaxPerBackend: 1, Weights: map[string]int{"any": 4}})}
			}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			const clients, rounds = 8, 150
			var inService, highWater atomic.Int64
			var hookCalls atomic.Uint64
			var mu sync.Mutex
			var all []*Ticket
			opts := append(cfg.opts(), WithQueueCap(32), WithOnComplete(func(tk *Ticket) {
				hookCalls.Add(1)
				mu.Lock()
				all = append(all, tk)
				mu.Unlock()
			}))
			s := New(cfg.wasp(), cfg.workers, opts...)
			task := func(clk *cycles.Clock) (*wasp.Result, error) {
				cur := inService.Add(1)
				for hw := highWater.Load(); cur > hw && !highWater.CompareAndSwap(hw, cur); hw = highWater.Load() {
				}
				clk.Advance(100)
				runtime.Gosched() // widen the window a second driver would need
				clk.Advance(100)
				inService.Add(-1)
				return nil, nil
			}
			tags := []string{"any", "pin-kvm", "pin-hv"}
			var wg sync.WaitGroup
			var submitted atomic.Uint64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					for i := 0; i < rounds; i++ {
						req := Request{Fn: task, Image: tags[rng.Intn(len(tags))]}
						switch rng.Intn(3) {
						case 0: // waited
							submitted.Add(1)
							if _, err := s.SubmitBatch([]Request{req})[0].Wait(); err != nil {
								t.Error(err)
							}
						case 1: // never waited: only the hook sees it
							submitted.Add(1)
							s.SubmitBatch([]Request{req})
						case 2: // a burst, its last ticket waited
							burst := []Request{req, {Fn: task, Image: tags[rng.Intn(len(tags))]}, {Fn: task, Image: "any"}}
							submitted.Add(uint64(len(burst)))
							ts := s.SubmitBatch(burst)
							if _, err := ts[len(ts)-1].Wait(); err != nil {
								t.Error(err)
							}
						}
					}
				}(c)
			}
			wg.Wait()
			// The load drops to one client: with lanes idle again, its
			// requests are the ones certain to be served inline.
			awaitParked(s)
			for i := 0; i < 32; i++ {
				submitted.Add(1)
				if _, err := s.SubmitBatch([]Request{{Fn: task, Image: tags[i%len(tags)]}})[0].Wait(); err != nil {
					t.Error(err)
				}
			}
			s.Close()

			if hw := highWater.Load(); hw > int64(cfg.workers) {
				t.Errorf("%d tickets in service at once on %d lanes", hw, cfg.workers)
			}
			if s.Rejected() != 0 || s.Completed() != submitted.Load() || hookCalls.Load() != submitted.Load() {
				t.Errorf("submitted %d: completed %d, rejected %d, hook calls %d",
					submitted.Load(), s.Completed(), s.Rejected(), hookCalls.Load())
			}
			if s.HelpedRuns() == 0 {
				t.Error("no ticket was served inline by a waiter")
			}
			byLane := make(map[int][]*Ticket)
			for _, tk := range all {
				byLane[tk.Worker] = append(byLane[tk.Worker], tk)
				if want := cfg.pins[tk.Image]; want != "" && tk.Platform != want {
					t.Errorf("image %s pinned to %s ran on %s", tk.Image, want, tk.Platform)
				}
			}
			for lane, ts := range byLane {
				sort.Slice(ts, func(i, j int) bool { return ts[i].Start < ts[j].Start })
				for i := 1; i < len(ts); i++ {
					if ts[i].Start < ts[i-1].Done {
						t.Errorf("lane %d: ticket started at %d before the previous finished at %d",
							lane, ts[i].Start, ts[i-1].Done)
						break
					}
				}
			}
			lanesAtRest(t, s)
		})
	}
}

// pickScan is the full-map reference for admission.pick: the selection
// walks every image the layer has ever seen, as pick did before the
// active list. Test-only, like linearCore.
func (a *admission) pickScan(eligible func(*Ticket) bool) *Ticket {
	var best *imageState
	for _, st := range a.images {
		if a.pickable(st, eligible) && (best == nil || st.before(best)) {
			best = st
		}
	}
	return a.take(best)
}

// TestPickMatchesPickScan drives two admission layers through the same
// random enqueue/pick/complete sequences — one picking over the active
// list, one over the full map — under deferral, rejection, MaxQueued
// shedding and a backend-style eligibility filter. Every enqueue verdict
// and every picked ticket must agree, and the active list must hold
// exactly the images with a waiting ticket.
func TestPickMatchesPickScan(t *testing.T) {
	policies := []Admission{
		{},
		{Weights: map[string]int{"img0": 8, "img1": 4, "img2": 2}},
		{MaxInFlight: 2},
		{MaxInFlight: 2, RejectOverflow: true, DefaultWeight: 3},
		{MaxQueued: 3, Weights: map[string]int{"img3": 5}},
		{MaxInFlight: 1, MaxQueued: 2},
	}
	for seed := int64(0); seed < 60; seed++ {
		pol := policies[seed%int64(len(policies))]
		rng := rand.New(rand.NewSource(seed))
		fast, ref := newAdmission(pol), newAdmission(pol)
		nImages := 2 + rng.Intn(12)
		var flyFast, flyRef []*Ticket
		for op, id := 0, uint64(0); op < 600; op++ {
			switch r := rng.Intn(10); {
			case r < 4: // enqueue the same ticket on both
				img := fmt.Sprintf("img%d", rng.Intn(nImages))
				id++
				e1 := fast.tryEnqueue(&Ticket{Image: img, Arrival: id})
				e2 := ref.tryEnqueue(&Ticket{Image: img, Arrival: id})
				if e1 != e2 {
					t.Fatalf("seed %d op %d: enqueue %s: %v vs %v", seed, op, img, e1, e2)
				}
			case r < 8: // pick through a filter that hides a third of the tickets
				k := uint64(rng.Intn(4))
				eligible := func(tk *Ticket) bool { return tk.Arrival%3 != k }
				got, want := fast.pick(eligible), ref.pickScan(eligible)
				if (got == nil) != (want == nil) || (got != nil && got.Arrival != want.Arrival) {
					t.Fatalf("seed %d op %d: pick = %v, pickScan = %v", seed, op, got, want)
				}
				if got != nil {
					flyFast, flyRef = append(flyFast, got), append(flyRef, want)
				}
			case len(flyFast) > 0: // complete a random in-flight ticket
				i := rng.Intn(len(flyFast))
				svc := uint64(1 + rng.Intn(5000))
				flyFast[i].Done, flyRef[i].Done = svc, svc
				fast.complete(flyFast[i], 0)
				ref.complete(flyRef[i], 0)
				flyFast = append(flyFast[:i], flyFast[i+1:]...)
				flyRef = append(flyRef[:i], flyRef[i+1:]...)
			}
			waiting := 0
			for _, st := range fast.images {
				if len(st.queue) > 0 {
					waiting++
					if st.activeAt >= len(fast.active) || fast.active[st.activeAt] != st {
						t.Fatalf("seed %d op %d: image %s has a backlog but is not on the active list", seed, op, st.name)
					}
				}
			}
			if waiting != len(fast.active) {
				t.Fatalf("seed %d op %d: active list holds %d images, %d have a backlog", seed, op, len(fast.active), waiting)
			}
		}
		for name, st := range fast.images {
			if o := ref.images[name]; o == nil || st.pass != o.pass || st.inFlight != o.inFlight ||
				len(st.queue) != len(o.queue) || st.rejected != o.rejected {
				t.Fatalf("seed %d: image %s state diverged", seed, name)
			}
		}
	}
}

// BenchmarkSubmitWait is the closed-loop hand-off: one client, one
// lane, a trivial task — the testing.B row next to the ledger's
// sched.overhead_ns. admission-256 spreads the requests over 256
// tenants, the population the fair pick used to walk on every pop.
func BenchmarkSubmitWait(b *testing.B) {
	b.Run("fifo", func(b *testing.B) {
		s := New(wasp.New(), 1)
		defer s.Close()
		task := costTask(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SubmitFn(task).Wait()
		}
	})
	b.Run("admission-256", func(b *testing.B) {
		s := New(wasp.New(), 1, WithAdmission(Admission{}))
		defer s.Close()
		reqs := make([]Request, 256)
		for i := range reqs {
			reqs[i] = Request{Fn: costTask(1), Image: fmt.Sprintf("tenant-%03d", i)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SubmitBatch(reqs[i%256 : i%256+1])[0].Wait()
		}
	})
}
