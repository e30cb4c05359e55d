package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/placement"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// TestSubmitBatchRunsVirtines drives a real-mode burst through
// SubmitBatch: every ticket must carry its image identity and the right
// result, and every ticket of the burst must be counted complete.
func TestSubmitBatchRunsVirtines(t *testing.T) {
	w := wasp.New()
	s := New(w, 4)
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
	s.Close()
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
			return New(wasp.New(), 2, WithAdmission(Admission{MaxQueued: 4}))
		}},
		{"virtual+admission", func() *Scheduler {
			return NewVirtual(wasp.New(), 2, WithAdmission(Admission{MaxQueued: 4}))
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

// TestSubmitBatchRejectsNilRequests: a Request with no work, or with
// more than one of an image, a task and a cost, yields a rejected
// ticket, not a worker panic.
func TestSubmitBatchRejectsNilRequests(t *testing.T) {
	img := guest.MustFromAsm("nil-doubler", guest.WrapLongMode(doublerAsm))
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
				{Cost: 7},
				{},                          // malformed: no work
				{Fn: costTask(7), Cost: 7},  // malformed: two kinds of work
				{Img: img, Cost: 7},         // malformed: two kinds of work
				{Img: img, Fn: costTask(7)}, // malformed: two kinds of work
			})
			for i, tk := range tickets {
				if _, err := tk.Wait(); (err == nil) != (i < 2) {
					t.Fatalf("request %d: err = %v", i, err)
				}
			}
			if s.Submitted() != 6 || s.Completed() != 2 || s.Rejected() != 4 {
				t.Fatalf("submitted/completed/rejected = %d/%d/%d, want 6/2/4",
					s.Submitted(), s.Completed(), s.Rejected())
			}
		})
	}
}

// TestCostTicketsMatchTasks: a cost-model ticket (Request.Cost) is
// served exactly as a task that advances its worker's clock by the same
// cost — equal Start, Done, Worker and DepthAtSubmit on every ticket and
// equal admission stats per image — on the real core (one lane, the
// batch submitted in chunks of 4, the lane's queue bound, each served
// before the next, so the schedule is deterministic) and the virtual
// core (two backends), with and without a weighted
// admission policy and, on the virtual core, a placer.
func TestCostTicketsMatchTasks(t *testing.T) {
	costs := benchTrace(300)
	tasks := make([]Request, len(costs))
	for i, r := range costs {
		tasks[i] = Request{Arrival: r.Arrival, Image: r.Image, Fn: costTask(r.Cost)}
	}
	type outcome struct {
		Start, Done   uint64
		Worker, Depth int
	}
	run := func(virtual, adm, placer bool, reqs []Request) ([]outcome, map[string]AdmissionStats) {
		opts := []Option{WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{})}
		if adm {
			opts = append(opts, WithAdmission(Admission{Weights: map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}}))
		}
		if placer {
			opts = append(opts, WithPlacer(placement.LeastLoaded{}))
		}
		var s *Scheduler
		chunk := len(reqs)
		if virtual {
			s = NewVirtual(splitWasp(), 4, opts...)
		} else {
			s, chunk = New(splitWasp(), 1, opts...), 4
		}
		defer s.Close()
		var out []outcome
		for len(reqs) > 0 {
			n := min(chunk, len(reqs))
			for _, tk := range s.SubmitBatchAt(reqs[:n]) {
				if _, err := tk.Wait(); err != nil {
					t.Fatal(err)
				}
				out = append(out, outcome{tk.Start, tk.Done, tk.Worker, tk.DepthAtSubmit})
			}
			reqs = reqs[n:]
		}
		stats := map[string]AdmissionStats{}
		for _, img := range s.AdmissionImages() {
			stats[img], _ = s.AdmissionStats(img)
		}
		return out, stats
	}
	for _, virtual := range []bool{false, true} {
		for _, adm := range []bool{false, true} {
			for _, placer := range []bool{false, true} {
				if placer && !virtual {
					continue // a real core rejects every ticket under a placer
				}
				got, gotStats := run(virtual, adm, placer, costs)
				want, wantStats := run(virtual, adm, placer, tasks)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotStats, wantStats) {
					t.Errorf("virtual=%v admission=%v placer=%v: cost tickets differ from tasks:\n%v %v\n%v %v",
						virtual, adm, placer, got, gotStats, want, wantStats)
				}
			}
		}
	}
}

// TestAdmissionBatchStressRace is the -race stress for batched
// submission: 16 goroutines issue a mix of single and batch submits
// across 4 images while the scheduler is concurrently closed. Nothing
// may be lost or double-completed: every collected ticket resolves, the
// tickets that resolve without error are exactly Completed(), and
// Submitted == Completed + Rejected.
func TestAdmissionBatchStressRace(t *testing.T) {
	images := make([]*guest.Image, 4)
	for i := range images {
		images[i] = guest.MustFromAsm("race-img-"+string(rune('a'+i)), guest.WrapLongMode(doublerAsm))
	}
	w := wasp.New()
	s := New(w, 4, WithAdmission(Admission{Weights: map[string]int{"race-img-a": 4}}))

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
			s.depth.Load()
		}
		s.Close()
	}()
	close(start)
	wg.Wait()
	<-closer
	close(ticketCh)

	var total, completedSeen, rejectedSeen uint64
	for ts := range ticketCh {
		for _, tk := range ts {
			total++
			if _, err := tk.Wait(); err == nil {
				completedSeen++
			} else if errors.Is(err, ErrClosed) || errors.Is(err, ErrAdmission) {
				rejectedSeen++
			} else {
				t.Fatalf("unexpected ticket error: %v", err)
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
	if completedSeen != s.Completed() {
		t.Fatalf("%d tickets resolved without error, Completed() = %d", completedSeen, s.Completed())
	}
}

// BenchmarkSubmitBatch isolates the scheduler's submission-path
// overhead: a burst of B trivial tasks submitted one Submit at a time
// (B lock acquisitions, B ticket allocations, B wakes) versus one
// SubmitBatch (one lock acquisition, one ticket slab, one wake). The
// timed region is the submission only — service runs untimed between
// iterations — so ns/op divided by the burst size is the per-ticket
// dispatch overhead; batch must come out measurably lower at bursts
// >= 64.
func BenchmarkSubmitBatch(b *testing.B) {
	task := func(clk *cycles.Clock) (*wasp.Result, error) { return nil, nil }
	for _, burst := range []int{64, 256} {
		for _, mode := range []string{"single", "batch"} {
			b.Run(fmt.Sprintf("%s/burst=%d", mode, burst), func(b *testing.B) {
				w := wasp.New()
				s := New(w, burst/4) // a queue slot for every ticket of the burst
				defer s.Close()
				reqs := make([]Request, burst)
				for j := range reqs {
					reqs[j] = Request{Fn: task}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var tickets []*Ticket
					if mode == "batch" {
						tickets = s.SubmitBatch(reqs)
					} else {
						tickets = make([]*Ticket, burst)
						for j := range tickets {
							tickets[j] = s.SubmitFn(task)
						}
					}
					b.StopTimer()
					if err := WaitAll(tickets...); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/ticket")
			})
		}
	}
}
