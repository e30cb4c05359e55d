package sched

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cycles"
	"repro/internal/stats"
	"repro/internal/wasp"
)

// costTask advances the worker clock by a fixed service cost.
func costTask(svc uint64) Task {
	return func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(svc)
		return nil, nil
	}
}

// noisyNeighborTrace is the canonical multi-tenant mix: one hot image
// bursting far beyond its fair share at t=0, plus cold tenants
// trickling small requests through the horizon. Returns the requests in
// submission order (hot burst first — the backlog a cold tenant finds).
func noisyNeighborTrace(hotN int, hotSvc uint64, coldTenants []string, coldN int, coldGap, coldSvc uint64) []Request {
	reqs := make([]Request, 0, hotN+len(coldTenants)*coldN)
	for i := 0; i < hotN; i++ {
		reqs = append(reqs, Request{Arrival: uint64(i), Image: "hot", Fn: costTask(hotSvc)})
	}
	for _, tenant := range coldTenants {
		for i := 0; i < coldN; i++ {
			reqs = append(reqs, Request{Arrival: uint64(i) * coldGap, Image: tenant, Fn: costTask(coldSvc)})
		}
	}
	return reqs
}

// queueCyclesByImage buckets completed tickets' queueing delays.
func queueCyclesByImage(tickets []*Ticket) map[string][]float64 {
	out := make(map[string][]float64)
	for _, tk := range tickets {
		if tk.err == nil {
			out[tk.Image] = append(out[tk.Image], float64(tk.QueueCycles()))
		}
	}
	return out
}

// TestAdmissionSoftWeightsBoundColdTenantDelay is the
// fairness/starvation suite's soft-weight half: under plain FIFO the
// hot image's burst starves the cold tenants (their p99 queueing delay
// is the whole backlog); under equal soft weights the weighted
// per-image pick bounds every cold tenant's p99 at a few hot service
// times. Virtual mode keeps the whole experiment deterministic.
func TestAdmissionSoftWeightsBoundColdTenantDelay(t *testing.T) {
	const (
		workers = 4
		hotN    = 64
		hotSvc  = 200_000
		coldN   = 8
		coldGap = 100_000
		coldSvc = 20_000
	)
	coldTenants := []string{"cold-a", "cold-b"}

	run := func(opts ...Option) ([]*Ticket, *Scheduler) {
		s := NewVirtual(wasp.New(), workers, opts...)
		tickets := s.SubmitBatchAt(noisyNeighborTrace(hotN, hotSvc, coldTenants, coldN, coldGap, coldSvc))
		if err := WaitAll(tickets...); err != nil {
			t.Fatal(err)
		}
		return tickets, s
	}

	fifoTickets, fifoSched := run()
	fairTickets, fairSched := run(WithAdmission(Admission{}))

	fifoQ := queueCyclesByImage(fifoTickets)
	fairQ := queueCyclesByImage(fairTickets)
	for _, tenant := range coldTenants {
		fifoP99 := stats.Percentile(fifoQ[tenant], 99)
		fairP99 := stats.Percentile(fairQ[tenant], 99)
		// FIFO: the cold tenant waits out the hot backlog (~hotN/workers
		// service times). Weighted: bounded by a few hot service times.
		if fifoP99 < float64(hotN/workers)*hotSvc/2 {
			t.Fatalf("%s: FIFO p99 queue = %.0f, expected starvation-level delay", tenant, fifoP99)
		}
		if fairP99 > 6*hotSvc {
			t.Fatalf("%s: weighted p99 queue = %.0f cycles, want bounded (≤ %d)", tenant, fairP99, 6*hotSvc)
		}
		if fairP99*4 > fifoP99 {
			t.Fatalf("%s: weighted p99 %.0f not ≪ FIFO p99 %.0f", tenant, fairP99, fifoP99)
		}
	}
	// Fair scheduling is work-conserving: the makespan matches FIFO up
	// to the staggered-arrival offsets a reordering can shift (the hot
	// burst arrives over hotN cycles).
	diff := fairSched.Makespan() - fifoSched.Makespan()
	if fifoSched.Makespan() > fairSched.Makespan() {
		diff = fifoSched.Makespan() - fairSched.Makespan()
	}
	if diff > hotN {
		t.Fatalf("weighted makespan %d vs FIFO %d: not work-conserving",
			fairSched.Makespan(), fifoSched.Makespan())
	}
	// No ticket lost or double-completed.
	for _, s := range []*Scheduler{fifoSched, fairSched} {
		if s.Submitted() != s.Completed()+s.Rejected() || s.Rejected() != 0 {
			t.Fatalf("conservation violated: %v", s)
		}
	}
	// And the schedule is reproducible.
	again, _ := run(WithAdmission(Admission{}))
	for i := range fairTickets {
		if fairTickets[i].Start != again[i].Start || fairTickets[i].Worker != again[i].Worker {
			t.Fatalf("weighted schedule not reproducible at ticket %d", i)
		}
	}
}

// TestAdmissionRealModeWeightedCompletes smoke-tests the real-mode
// per-image queues: weighted dispatch admits and completes everything
// submitted, and per-image stats add up (checked structurally via the
// conservation law — timing is nondeterministic in real mode).
func TestAdmissionRealModeWeightedCompletes(t *testing.T) {
	s := New(wasp.New(), 4, WithAdmission(Admission{
		Weights: map[string]int{"heavy": 1, "light": 8},
	}))
	defer s.Close()
	var tickets []*Ticket
	reqs := make([]Request, 0, 48)
	for i := 0; i < 24; i++ {
		reqs = append(reqs, Request{Image: "heavy", Fn: costTask(50_000)})
		reqs = append(reqs, Request{Image: "light", Fn: costTask(5_000)})
	}
	tickets = append(tickets, s.SubmitBatch(reqs)...)
	if err := WaitAll(tickets...); err != nil {
		t.Fatal(err)
	}
	if s.Submitted() != 48 || s.Completed() != 48 || s.Rejected() != 0 {
		t.Fatalf("submitted/completed/rejected = %d/%d/%d", s.Submitted(), s.Completed(), s.Rejected())
	}
	images := s.AdmissionImages()
	if len(images) != 2 || images[0] != "heavy" || images[1] != "light" {
		t.Fatalf("admission images = %v", images)
	}
	for _, img := range images {
		st, ok := s.AdmissionStats(img)
		if !ok || st.Completed != 24 || st.InFlight != 0 || st.Queued != 0 {
			t.Fatalf("%s stats = %+v, ok=%v", img, st, ok)
		}
		if st.SvcEWMA == 0 {
			t.Fatalf("%s: no service telemetry", img)
		}
	}
	lt, _ := s.AdmissionStats("light")
	ht, _ := s.AdmissionStats("heavy")
	if lt.Weight != 8 || ht.Weight != 1 {
		t.Fatalf("weights = %d/%d, want 8/1", lt.Weight, ht.Weight)
	}
}

// TestAdmissionMaxQueuedShedsBacklog: a hog's backlog occupies the
// shared queue, bounded at 4×workers; MaxQueued sheds the excess so the
// hog cannot fill the queue and block its own or other tenants'
// submits. A gated task holds the one lane, so every hog ticket past the
// bound sheds and exactly MaxQueued of them are served.
func TestAdmissionMaxQueuedShedsBacklog(t *testing.T) {
	const maxQueued, burst = 3, 16 // below the one lane's queue bound of 4
	s := New(wasp.New(), 1, WithAdmission(Admission{MaxQueued: maxQueued}))
	defer s.Close()
	held, release := make(chan struct{}), make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	gate := s.SubmitBatch([]Request{{Image: "gate", Fn: func(*cycles.Clock) (*wasp.Result, error) {
		close(held)
		<-release
		return nil, nil
	}}})[0]
	<-held
	// The burst is four times the queue bound: without MaxQueued its
	// submit would block on the full queue behind the held lane, and so
	// would the quiet tenant's.
	submitted := make(chan struct{})
	var hog []*Ticket
	var quiet *Ticket
	go func() {
		defer close(submitted)
		reqs := make([]Request, burst)
		for i := range reqs {
			reqs[i] = Request{Image: "hog", Fn: costTask(1)}
		}
		hog = s.SubmitBatch(reqs)
		quiet = s.SubmitFn(costTask(1))
	}()
	select {
	case <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("submits blocked behind the hog's backlog")
	}
	close(release)
	if err := WaitAll(gate, quiet); err != nil {
		t.Fatalf("gate or quiet tenant failed: %v", err)
	}
	var served, shed int
	for _, tk := range hog {
		if _, err := tk.Wait(); err != nil {
			if !errors.Is(err, ErrAdmission) {
				t.Fatalf("unexpected error: %v", err)
			}
			shed++
		} else {
			served++
		}
	}
	if served != maxQueued || shed != burst-maxQueued {
		t.Fatalf("hog served/shed = %d/%d, want %d/%d", served, shed, maxQueued, burst-maxQueued)
	}
	if s.Submitted() != s.Completed()+s.Rejected() {
		t.Fatalf("conservation violated: %v", s)
	}
	st, _ := s.AdmissionStats("hog")
	if st.Rejected != uint64(shed) {
		t.Fatalf("hog stats rejected = %d, want %d", st.Rejected, shed)
	}
}

// TestAdmissionInFlightDerived: AdmissionStats.InFlight, derived from
// the lifetime counters and the queue, reads the tickets in service —
// 1 while a gated real-mode ticket runs with one more queued and one
// shed, 0 after the drain, and 0 on a virtual scheduler, which serves
// every ticket before its submit returns.
func TestAdmissionInFlightDerived(t *testing.T) {
	s := New(wasp.New(), 1, WithAdmission(Admission{MaxQueued: 1}))
	defer s.Close()
	held, release := make(chan struct{}), make(chan struct{})
	tickets := s.SubmitBatch([]Request{{Image: "img", Fn: func(*cycles.Clock) (*wasp.Result, error) {
		close(held)
		<-release
		return nil, nil
	}}})
	<-held
	tickets = append(tickets, s.SubmitBatch([]Request{{Image: "img", Fn: costTask(1)}, {Image: "img", Fn: costTask(1)}})...)
	st, _ := s.AdmissionStats("img")
	close(release)
	if st.InFlight != 1 || st.Queued != 1 || st.Rejected != 1 || st.Submitted != 3 {
		t.Fatalf("while gated: stats = %+v, want 1 in flight, 1 queued, 1 rejected of 3", st)
	}
	if _, err := tickets[2].Wait(); !errors.Is(err, ErrAdmission) {
		t.Fatalf("third ticket: err = %v, want ErrAdmission", err)
	}
	if err := WaitAll(tickets[:2]...); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.AdmissionStats("img"); st.InFlight != 0 || st.Queued != 0 || st.Completed != 2 {
		t.Fatalf("after drain: stats = %+v, want 0 in flight, 0 queued, 2 completed", st)
	}

	v := NewVirtual(wasp.New(), 2, WithAdmission(Admission{}))
	defer v.Close()
	vt := v.SubmitBatchAt([]Request{{Image: "img", Cost: 100}, {Image: "img", Cost: 100}, {Arrival: 50, Image: "img", Cost: 100}})
	// A malformed request, rejected before admission, counts against
	// the image too.
	vt = append(vt, v.SubmitBatchAt([]Request{{Arrival: 10, Image: "img"}})...)
	vt = append(vt, v.SubmitBatchAt([]Request{{Arrival: 20, Image: "img", Cost: 100}})...)
	if _, err := vt[3].Wait(); !errors.Is(err, errWork) {
		t.Fatalf("malformed request: err = %v, want %v", err, errWork)
	}
	if st, _ := v.AdmissionStats("img"); st.InFlight != 0 || st.Completed != 4 || st.Rejected != 1 {
		t.Fatalf("virtual: stats = %+v, want 0 in flight, 4 completed, 1 rejected", st)
	}
}

// TestTicketCachesAdmissionState: on both cores, admission hands each
// ticket its image's own entry in the admission map — the state
// dispatch and completion then use without a lookup.
func TestTicketCachesAdmissionState(t *testing.T) {
	pol := WithAdmission(Admission{Weights: map[string]int{"a": 2}})
	reqs := []Request{
		{Arrival: 0, Image: "a", Fn: costTask(1000)},
		{Arrival: 0, Image: "b", Fn: costTask(1000)},
		{Arrival: 10, Image: "a", Fn: costTask(1000)},
		{Arrival: 20, Image: "c", Fn: costTask(1000)},
	}
	for _, mk := range []func(*wasp.Wasp, int, ...Option) *Scheduler{New, NewVirtual} {
		s := mk(wasp.New(), 2, pol)
		tickets := s.SubmitBatchAt(reqs)
		// A single submission takes the virtual core's one-ticket path.
		tickets = append(tickets, s.SubmitBatchAt(reqs[3:])...)
		if err := WaitAll(tickets...); err != nil {
			t.Fatal(err)
		}
		s.Close()
		for i, tk := range tickets {
			if want := s.adm.images[tk.Image]; tk.st == nil || tk.st != want {
				t.Errorf("%v: ticket %d (%s) caches %p, the admission map holds %p", s.core, i, tk.Image, tk.st, want)
			}
		}
	}
}
