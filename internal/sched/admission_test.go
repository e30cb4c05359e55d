package sched

import (
	"errors"
	"testing"

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

// TestAdmissionHardCapBoundsHotConcurrency is the hard-cap half of the
// fairness suite: with MaxInFlight=2 (deferred queueing) the hot image
// never holds more than two workers, cold tenants keep bounded delay,
// and every deferred ticket still completes exactly once.
func TestAdmissionHardCapBoundsHotConcurrency(t *testing.T) {
	const (
		workers = 4
		hotN    = 48
		hotSvc  = 200_000
		coldN   = 8
		coldGap = 150_000
		coldSvc = 20_000
	)
	coldTenants := []string{"cold-a", "cold-b"}
	s := NewVirtual(wasp.New(), workers, WithAdmission(Admission{MaxInFlight: 2}))
	tickets := s.SubmitBatchAt(noisyNeighborTrace(hotN, hotSvc, coldTenants, coldN, coldGap, coldSvc))
	if err := WaitAll(tickets...); err != nil {
		t.Fatal(err)
	}
	// At any hot ticket's start, at most MaxInFlight hot tickets overlap.
	var hot []*Ticket
	for _, tk := range tickets {
		if tk.Image == "hot" {
			hot = append(hot, tk)
		}
	}
	if len(hot) != hotN {
		t.Fatalf("hot tickets = %d, want %d", len(hot), hotN)
	}
	for _, a := range hot {
		overlap := 0
		for _, b := range hot {
			if b.Start <= a.Start && a.Start < b.Done {
				overlap++
			}
		}
		if overlap > 2 {
			t.Fatalf("hot in-flight = %d at t=%d, cap is 2", overlap, a.Start)
		}
	}
	q := queueCyclesByImage(tickets)
	for _, tenant := range coldTenants {
		if p99 := stats.Percentile(q[tenant], 99); p99 > 6*hotSvc {
			t.Fatalf("%s: p99 queue = %.0f under hard cap, want bounded", tenant, p99)
		}
	}
	if s.Submitted() != s.Completed() || s.Rejected() != 0 {
		t.Fatalf("deferred tickets lost: %v", s)
	}
	st, ok := s.AdmissionStats("hot")
	if !ok || st.Completed != hotN || st.SvcEWMA == 0 {
		t.Fatalf("hot admission stats = %+v, ok=%v", st, ok)
	}
}

// TestAdmissionHardCapRejects: with RejectOverflow, submissions beyond
// the in-flight cap fail fast with ErrAdmission — and only those.
func TestAdmissionHardCapRejects(t *testing.T) {
	s := NewVirtual(wasp.New(), 4, WithAdmission(Admission{MaxInFlight: 2, RejectOverflow: true}))
	const svc = 1000
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tickets = append(tickets, s.SubmitFnAt(0, costTask(svc)))
	}
	// All four share the untagged image "": two admitted, two rejected.
	var admitted, rejected int
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			if !errors.Is(err, ErrAdmission) {
				t.Fatalf("err = %v, want ErrAdmission", err)
			}
			rejected++
		} else {
			admitted++
		}
	}
	if admitted != 2 || rejected != 2 {
		t.Fatalf("admitted/rejected = %d/%d, want 2/2", admitted, rejected)
	}
	// After the in-flight work completes (virtual time svc), a new
	// arrival is admitted again.
	late := s.SubmitFnAt(2*svc, costTask(svc))
	if _, err := late.Wait(); err != nil {
		t.Fatalf("post-drain submit rejected: %v", err)
	}
	if s.Submitted() != 5 || s.Completed() != 3 || s.Rejected() != 2 {
		t.Fatalf("submitted/completed/rejected = %d/%d/%d, want 5/3/2",
			s.Submitted(), s.Completed(), s.Rejected())
	}
	st, ok := s.AdmissionStats("")
	if !ok || st.Rejected != 2 || st.Submitted != 5 {
		t.Fatalf("admission stats = %+v, ok=%v", st, ok)
	}
}

// TestAdmissionDeferredQueueingDelaysStart: without RejectOverflow a
// capped image's excess arrivals are deferred — their service starts at
// the completion that frees a slot, and QueueCycles reports the wait.
func TestAdmissionDeferredQueueingDelaysStart(t *testing.T) {
	s := NewVirtual(wasp.New(), 2, WithAdmission(Admission{MaxInFlight: 1}))
	const svc = 1000
	t1 := s.SubmitFnAt(0, costTask(svc))
	t2 := s.SubmitFnAt(0, costTask(svc))
	t3 := s.SubmitFnAt(0, costTask(svc))
	if err := WaitAll(t1, t2, t3); err != nil {
		t.Fatal(err)
	}
	if t1.Start != 0 || t1.Done != svc {
		t.Fatalf("first ticket served [%d,%d], want [0,%d]", t1.Start, t1.Done, svc)
	}
	// Both workers are free, but the image holds one in-flight slot:
	// the second starts only when the first completes, the third when
	// the second does.
	if t2.Start != svc || t3.Start != 2*svc {
		t.Fatalf("deferred starts = %d, %d, want %d, %d", t2.Start, t3.Start, svc, 2*svc)
	}
	if t2.QueueCycles() != svc || t3.QueueCycles() != 2*svc {
		t.Fatalf("deferred queue cycles = %d, %d, want %d, %d",
			t2.QueueCycles(), t3.QueueCycles(), svc, 2*svc)
	}
}

// TestAdmissionRealModeWeightedCompletes smoke-tests the real-mode
// per-image queues: weighted dispatch with hard caps admits and
// completes everything submitted below the cap, per-image stats add
// up, and deferred images never exceed their in-flight bound (checked
// structurally via the conservation law — timing is nondeterministic
// in real mode).
func TestAdmissionRealModeWeightedCompletes(t *testing.T) {
	s := New(wasp.New(), 4, WithAdmission(Admission{
		MaxInFlight: 2,
		Weights:     map[string]int{"heavy": 1, "light": 8},
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

// TestAdmissionRejectOutOfOrderArrivals is the regression test for the
// in-flight accounting bias: a hard-cap reject decision for a ticket
// arriving at t must count only siblings already admitted at t. A
// same-image sibling submitted earlier but *arriving later* used to be
// counted against the quota (its completion time was recorded without
// its admission edge), spuriously rejecting a ticket whose image was
// idle at its arrival.
func TestAdmissionRejectOutOfOrderArrivals(t *testing.T) {
	s := NewVirtual(wasp.New(), 1, WithAdmission(Admission{MaxInFlight: 1, RejectOverflow: true}))
	tickets := s.SubmitBatchAt([]Request{
		{Arrival: 180, Image: "hot", Fn: costTask(100)},
		{Arrival: 150, Image: "hot", Fn: costTask(100)}, // out of order
		{Arrival: 0, Image: "z", Fn: costTask(300)},
	})
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("ticket %d spuriously rejected: %v", i, err)
		}
	}
	// At hot@150's arrival no hot ticket was admitted (hot@180 had not
	// arrived, let alone started): all three must be served.
	if s.Rejected() != 0 || s.Completed() != 3 {
		t.Fatalf("completed/rejected = %d/%d, want 3/0", s.Completed(), s.Rejected())
	}
}

// TestAdmissionDeferralDoesNotDelayOtherImages is the regression test
// for the deferral time-advance bug: when every backlogged ticket is
// capped, the event loop must advance to the NEXT EVENT — which can be
// another image's arrival, not only the capping image's completion. A
// deferred hog ticket must never hold an unrelated tenant's request
// past its arrival while workers sit idle.
func TestAdmissionDeferralDoesNotDelayOtherImages(t *testing.T) {
	s := NewVirtual(wasp.New(), 4, WithAdmission(Admission{MaxInFlight: 1}))
	tickets := s.SubmitBatchAt([]Request{
		{Arrival: 10, Image: "hog", Fn: costTask(1000)},
		{Arrival: 11, Image: "hog", Fn: costTask(1000)}, // deferred behind the first
		{Arrival: 50, Image: "quiet", Fn: costTask(10)}, // 3 workers idle at 50
	})
	if err := WaitAll(tickets...); err != nil {
		t.Fatal(err)
	}
	if tickets[0].Start != 10 {
		t.Fatalf("hog[0] start = %d, want 10", tickets[0].Start)
	}
	if tickets[1].Start != 1010 {
		t.Fatalf("hog[1] start = %d, want 1010 (deferred to the slot)", tickets[1].Start)
	}
	if tickets[2].Start != 50 || tickets[2].QueueCycles() != 0 {
		t.Fatalf("quiet start = %d (queue %d), want 50 with zero queueing — the hog's deferral must not delay it",
			tickets[2].Start, tickets[2].QueueCycles())
	}
}

// TestAdmissionMaxQueuedShedsBacklog: in deferral mode a capped image's
// backlog occupies the shared bounded queue; MaxQueued sheds the excess
// so a hog cannot fill the queue cap and block other tenants' submits.
func TestAdmissionMaxQueuedShedsBacklog(t *testing.T) {
	gate := make(chan struct{})
	s := New(wasp.New(), 2,
		WithQueueCap(64),
		WithAdmission(Admission{MaxInFlight: 1, MaxQueued: 4}))
	defer s.Close()
	blocked := func(clk *cycles.Clock) (*wasp.Result, error) {
		<-gate
		return nil, nil
	}
	reqs := make([]Request, 16)
	for i := range reqs {
		reqs[i] = Request{Image: "hog", Fn: blocked}
	}
	hog := s.SubmitBatch(reqs)
	// With the hog's first ticket blocking a worker and MaxInFlight 1,
	// at most MaxQueued hog tickets may wait; the rest shed. Another
	// tenant's submit must not block on a full queue.
	quiet := s.SubmitFn(func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(1)
		return nil, nil
	})
	if _, err := quiet.Wait(); err != nil {
		t.Fatalf("quiet tenant blocked behind hog backlog: %v", err)
	}
	close(gate)
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
	if shed == 0 {
		t.Fatal("MaxQueued shed nothing from a 16-deep burst over a 4-slot bound")
	}
	if served == 0 {
		t.Fatal("every hog ticket shed")
	}
	if s.Submitted() != s.Completed()+s.Rejected() {
		t.Fatalf("conservation violated: %v", s)
	}
	st, _ := s.AdmissionStats("hog")
	if st.Rejected != uint64(shed) {
		t.Fatalf("hog stats rejected = %d, want %d", st.Rejected, shed)
	}
}

// TestTicketCachesAdmissionState: on both cores, admission hands each
// ticket its image's own entry in the admission map — the state
// dispatch, completion and the span history then use without a lookup.
func TestTicketCachesAdmissionState(t *testing.T) {
	pol := WithAdmission(Admission{MaxInFlight: 2, Weights: map[string]int{"a": 2}})
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
