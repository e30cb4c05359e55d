package sched

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/placement"
)

// virtualCore is the virtual-mode dispatch core: deterministic
// event-driven dispatch in the submitting goroutine, O(log n) searches per
// decision. One sorted array of active workers' (clock, id) keys per
// backend (ready.go) answers earliest-free and busy-at-T; the weighted
// batch dispatcher picks images off admission's ready heap and tickets
// off per-image backlog heaps (vheap.go). Everything here is guarded
// by mu.
type virtualCore struct {
	s  *Scheduler
	mu sync.Mutex

	// nActive is the active pool width: workers[:nActive] take work, the
	// rest are parked by resize (autoscaling).
	nActive int
	ready   []readySet
	busy    []int // busyAt's scratch
}

func newVirtualCore(s *Scheduler) core {
	c := &virtualCore{s: s, nActive: len(s.workers)}
	for _, wk := range s.workers {
		c.unpark(wk)
	}
	s.driveCleaners(true)
	return c
}

func (c *virtualCore) Lock()          { c.mu.Lock() }
func (c *virtualCore) Unlock()        { c.mu.Unlock() }
func (c *virtualCore) String() string { return "virtual" }

// close hands the cleaner ledgers back to the runtime.
func (c *virtualCore) close() { c.s.driveCleaners(false) }

// driveCleaners models each backend's cleaner as a dedicated virtual
// core that settles the releases it owes after each ticket
// (execVirtualLocked).
func (s *Scheduler) driveCleaners(on bool) {
	for _, cl := range s.cleaners {
		cl.SetDriven(on)
	}
}

// submit services a submission synchronously in virtual time. Single
// tickets (and admission-free batches) dispatch in submission order —
// batching never changes the schedule. Batches under an Admission
// policy run the event-driven weighted dispatch instead. Returns the
// tickets admission rejected.
func (c *virtualCore) submit(ts []*Ticket) (rejected []*Ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s.adm != nil && len(ts) > 1 {
		batch, rejected := c.s.admitBatchLocked(ts)
		c.dispatchWeighted(batch)
		return rejected
	}
	for _, t := range ts {
		// One busy count and one placer evaluation serve both the
		// eligibility gate and the placement decision: nothing moves
		// between them.
		by, total := c.busyAt(t.Arrival)
		if weights, ok := c.s.admitOneLocked(t, by); ok {
			c.place(t, by, total, weights)
		} else {
			rejected = append(rejected, t)
		}
	}
	return rejected
}

// admitOneLocked gates one ticket dispatched at its arrival time: the
// shared submission vet (busy: per-backend busy-worker counts at the
// arrival, for load-aware placers), then one dispatch charged to the
// image's pass. It returns the vet's placement weights for place.
// Caller holds the core lock.
func (s *Scheduler) admitOneLocked(t *Ticket, busy []int) (weights []float64, ok bool) {
	if weights, ok = s.vetLocked(t, busy); !ok || s.adm == nil {
		return weights, ok
	}
	st := s.adm.state(t.Image)
	t.st = st
	st.submitted++
	s.adm.activate(st)
	s.adm.advance(st)
	return weights, true
}

// admitBatchLocked vets a weighted batch in submission order (the
// placer sees each ticket once here, at its arrival, in submission
// order — stateful policies depend on that) and counts the survivors
// submitted. The batch's first eight image states are memoized, so a
// batch with k <= 8 distinct images looks k names up. Caller holds the
// core lock.
func (s *Scheduler) admitBatchLocked(ts []*Ticket) (batch, rejected []*Ticket) {
	batch = make([]*Ticket, 0, len(ts))
	seen := make([]*imageState, 0, 8)
	for _, t := range ts {
		if _, ok := s.vetLocked(t, nil); !ok {
			rejected = append(rejected, t)
			continue
		}
		i := 0
		for i < len(seen) && seen[i].name != t.Image {
			i++
		}
		if i < len(seen) {
			t.st = seen[i]
		} else if t.st = s.adm.state(t.Image); len(seen) < cap(seen) {
			seen = append(seen, t.st)
		}
		t.st.submitted++
		batch = append(batch, t)
	}
	return batch, rejected
}

// busyAt counts the active workers still busy at virtual time at, per
// backend and in total — at most one binary search per ready set. The
// slice is scratch, valid until the next call.
func (c *virtualCore) busyAt(at uint64) (by []int, total int) {
	c.busy = c.busy[:0]
	for _, r := range c.ready {
		n := r.size() - r.countLE(at)
		c.busy = append(c.busy, n)
		total += n
	}
	return c.busy, total
}

// earliestFree returns the key of the active worker with the lowest
// clock, ties toward the lowest index — the classic deterministic
// selection rule: pick with every backend eligible and unbiased.
func (c *virtualCore) earliestFree() rkey { return c.pick(nil, 0) }

// place assigns the ticket to a worker in virtual time and services it
// synchronously; (by, total) is busyAt at the ticket's arrival, and
// weights the placement weights already computed for it (nil: compute
// them here, when a placer is attached). Without
// a placer it is the classic earliest-free-worker rule; with one, the
// choice is restricted to workers on eligible backends and each
// candidate's earliest start is penalized by the backend's placement
// bias (placement.Bias of its weight) — deterministic cost-aware list
// scheduling. Ties break toward the earlier worker clock, then the
// lowest worker index, keeping runs reproducible.
func (c *virtualCore) place(t *Ticket, by []int, total int, weights []float64) {
	s := c.s
	k := rkey{id: -1}
	if s.placer != nil {
		// Decision-time weights: load-sensitive policies see the busy
		// counts and EWMAs as of the ticket's arrival. The single-ticket
		// path computed them moments ago under this same lock hold
		// (admitOneLocked); the event-driven batch path reaches here at a
		// later decision time and computes fresh.
		if weights == nil {
			weights = s.placeWeightsLocked(t, by)
		}
		k = c.pick(weights, t.Arrival)
	}
	if k.id < 0 {
		// No placer, or one gone all-ineligible since dispatch entry
		// checked eligibility: earliest-free, so the ticket is not lost.
		k = c.earliestFree()
	}
	best := s.workers[k.id]
	// A clock change moves the worker in its ready set.
	c.park(best)
	s.execVirtualLocked(best, t, total)
	c.unpark(best)
}

// execVirtualLocked serves t on wk synchronously and folds the run into
// the virtual-time state. busy, the busy-worker count at the ticket's
// arrival, is its depth-at-submit. The completion updates the
// placement EWMAs and the admission telemetry. The dedicated virtual
// cleaner cores then settle the zeroing of the shells the ticket
// released, no earlier than its completion. Caller holds the core lock.
func (s *Scheduler) execVirtualLocked(wk *worker, t *Ticket, busy int) {
	t.DepthAtSubmit = busy
	if d := int64(busy); d > s.peakDepth.Load() {
		s.peakDepth.Store(d)
	}
	if tr := s.tracer; tr.Enabled() && s.placer != nil {
		tr.Instant(obs.ControlLane, obs.KindPlace, t.Image,
			t.Arrival, t.seq, uint64(wk.beIdx), uint64(busy))
	}
	s.serve(wk, t)
	if s.placer != nil {
		s.noteServiceLocked(t, wk)
	}
	if s.adm != nil {
		s.adm.complete(t)
	}
	s.retire(wk, t)
	for _, cl := range s.cleaners {
		cl.DrainAt(t.Done)
	}
}

// pick selects the key of the best-scoring worker from the per-backend
// minima alone. Within one backend the score — max(clock, eff) biased
// by the backend weight — is nondecreasing in the worker clock, and
// score ties resolve toward the earlier (clock, id), which is the ready
// set's own key order. So each backend's best candidate is exactly its
// first key, and the fleet winner is the min of one candidate per
// eligible backend by (score, clock, id) — the tie-break of a scan over
// every worker in id order, made explicit. The key's id is -1 when no
// backend is eligible.
func (c *virtualCore) pick(weights []float64, eff uint64) rkey {
	best := rkey{id: -1}
	var bestScore uint64
	for be, r := range c.ready {
		k, ok := r.min()
		if !ok || !eligibleOn(weights, be) {
			continue
		}
		score := max(k.clk, eff)
		if weights != nil {
			score += placement.Bias(weights[be])
		}
		if best.id < 0 || score < bestScore || (score == bestScore && below(k, best) == 1) {
			best, bestScore = k, score
		}
	}
	return best
}

// dispatchWeighted dispatches a whole batch event-driven: at each step
// the decision time T is the earliest-free worker clock (at least the
// earliest undispatched arrival), the backlog is every undispatched
// ticket arrived by T, and the next ticket is chosen by the admission
// layer's weighted fair pick across the backlog's images — exactly what
// the real core's per-image queues do, made deterministic.
//
// Each step searches in O(log n): T comes off the ready sets, arrivals
// enter the window off a cursor over the arrival order, the backlog
// lives in per-image min-heaps of submission indices (so "first
// submitted per image" survives out-of-order arrivals), and the pick is
// admission.next on the ready heap, which an image enters, activated,
// as its backlog turns non-empty. Caller holds mu.
func (c *virtualCore) dispatchWeighted(batch []*Ticket) {
	a := c.s.adm
	// Arrival-ordered event queue over the batch, ties by submission
	// index, so equal arrivals enter the window in submission order.
	order := make([]int, len(batch))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		return cmp.Or(cmp.Compare(batch[i].Arrival, batch[j].Arrival), cmp.Compare(i, j))
	})
	qpos := 0 // order[:qpos] has entered the window
	for qpos < len(order) || len(a.ready) > 0 {
		// An empty window waits for the next arrival. A nonempty one
		// already holds every arrival up to the decision time that
		// filled it, which is at least its earliest arrival, so raising
		// T to that arrival would admit nothing more.
		T := c.earliestFree().clk
		if len(a.ready) == 0 {
			T = max(T, batch[order[qpos]].Arrival)
		}
		for qpos < len(order) && batch[order[qpos]].Arrival <= T {
			idx := order[qpos]
			qpos++
			st := batch[idx].st
			if len(st.backlog) == 0 {
				a.enter(st)
			}
			st.push(idx)
		}

		win := a.next()
		best := batch[win.popMin()]
		by, total := c.busyAt(best.Arrival)
		c.place(best, by, total, nil)
		if len(win.backlog) > 0 {
			a.enter(win)
		}
	}
}

// resize sets the active fleet width; see SetVirtualWorkers.
func (c *virtualCore) resize(n int, at uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nActive = c.s.resizeLocked(c.nActive, n, at, c.park, c.unpark)
	return c.nActive
}

// resizeLocked moves the active width from active to n at virtual time
// at (semantics on SetVirtualWorkers), calling park/unpark as each
// worker leaves or (re)joins the active set so the core can maintain
// its dispatch structures. Caller holds the core lock.
func (s *Scheduler) resizeLocked(active, n int, at uint64, park, unpark func(*worker)) int {
	if tr := s.tracer; tr.Enabled() && n != active {
		tr.Instant(obs.ControlLane, obs.KindAutoscale, "fleet-resize",
			at, 0, uint64(active), uint64(n))
	}
	for ; active > n; active-- {
		wk := s.workers[active-1]
		park(wk)
		s.bstates[wk.beIdx].workers--
	}
	for len(s.workers) < n {
		s.addWorker()
	}
	for ; active < n; active++ {
		wk := s.workers[active]
		wk.clk.AdvanceTo(at)
		unpark(wk)
		s.bstates[wk.beIdx].workers++
	}
	return active
}

// park takes wk's key out of its ready set under its current clock.
// Must precede any change to wk's clock.
func (c *virtualCore) park(wk *worker) { c.ready[wk.beIdx].remove(wk) }

// unpark (re)enters wk under its current clock, growing the per-backend
// ready sets when resize registered a backend the initial fleet never
// reached.
func (c *virtualCore) unpark(wk *worker) {
	for len(c.ready) <= wk.beIdx {
		c.ready = append(c.ready, readySet{})
	}
	c.ready[wk.beIdx].insert(wk)
}
