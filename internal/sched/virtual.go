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
// backend (ready.go) answers earliest-free and busy-at-T; the event
// heaps (vheap.go) back the weighted batch dispatcher. The span-history
// half of the admission state (imageState.spans/maxArrival,
// admitAtVirtual) lives in this file. Everything here is guarded by mu.
type virtualCore struct {
	s  *Scheduler
	mu sync.Mutex

	// nActive is the active pool width: workers[:nActive] take work, the
	// rest are parked by resize (autoscaling).
	nActive int
	ready   []readySet
	busy    []int // busyAt's scratch

	// step numbers dispatchWeighted's decision steps across batches: the
	// stamp that keeps an image's memoized deferral-cap check to its step.
	step uint64
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
		return append(rejected, c.dispatchWeighted(batch)...)
	}
	for _, t := range ts {
		// One busy count and one placer evaluation serve both the
		// eligibility gate and the placement decision: nothing moves
		// between them.
		by, total := c.busyAt(t.Arrival)
		if c.s.admitOneLocked(t, by) {
			c.place(t, by, total)
		} else {
			rejected = append(rejected, t)
		}
	}
	return rejected
}

// admitOneLocked gates one ticket dispatched at its arrival time: the
// shared submission vet (busy: per-backend busy-worker counts at the
// arrival, for load-aware placers), then the admission hard cap —
// rejection, or deferral as a later effective start. Caller holds the
// core lock.
func (s *Scheduler) admitOneLocked(t *Ticket, busy []int) (ok bool) {
	if t.elig, ok = s.vetLocked(t, busy); !ok || s.adm == nil {
		return ok
	}
	st := s.adm.state(t.Image)
	t.st = st
	st.submitted++
	if t.notBefore, ok = s.adm.admitAtVirtual(st, t.Arrival); !ok {
		st.rejected++
		t.err = ErrAdmission
		return false
	}
	s.adm.activate(st)
	if st.pass > s.adm.vtime {
		s.adm.vtime = st.pass
	}
	st.pass += s.adm.stride(st)
	return true
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
// synchronously; (by, total) is busyAt at the ticket's arrival. Without
// a placer it is the classic earliest-free-worker rule; with one, the
// choice is restricted to workers on eligible backends and each
// candidate's earliest start is penalized by the backend's placement
// bias (placement.Bias of its weight) — deterministic cost-aware list
// scheduling. Ties break toward the earlier worker clock, then the
// lowest worker index, keeping runs reproducible.
func (c *virtualCore) place(t *Ticket, by []int, total int) {
	s := c.s
	k := rkey{id: -1}
	if s.placer != nil {
		// Decision-time weights: load-sensitive policies see the busy
		// counts and EWMAs as of the ticket's arrival. The single-ticket
		// path computed them moments ago under this same lock hold
		// (t.elig); the event-driven batch path reaches here at a later
		// decision time and computes fresh.
		weights := t.elig
		if weights == nil {
			weights = s.placeWeightsLocked(t, by)
		}
		k = c.pick(weights, max(t.Arrival, t.notBefore))
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
// placement EWMAs, the admission telemetry and, under a hard cap, the
// span history the cap reads (without a cap it would just grow without
// bound). The dedicated virtual cleaner cores then settle the zeroing
// of the shells the ticket released, no earlier than its completion.
// Caller holds the core lock.
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
		if s.adm.pol.MaxInFlight > 0 {
			t.st.spans = append(t.st.spans, admitSpan{at: t.Arrival, done: t.Done})
		}
	}
	s.retire(wk, t)
	for _, cl := range s.cleaners {
		s.cleanerDrains.Add(uint64(cl.DrainAt(t.Done)))
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
// the real core's per-image queues do, made deterministic. Hard caps
// apply at T: RejectOverflow rejects a ticket whose image is saturated
// at its arrival, on window entry and again after each dispatch of the
// same image (the only moments an image's span set changes); deferred
// images leave their tickets in the backlog until a completion frees a
// slot, and are set aside without activation for the step.
//
// Each step searches in O(log n): T comes off the ready sets, the earliest
// outstanding arrival off a cursor over the arrival order, the backlog
// lives in per-image min-heaps of submission indices (so "first submitted per
// image" survives out-of-order arrivals), and the pick pops the minimum
// (pass, name) from a pass-ordered image heap. Start-time-fair
// activation happens on pop: an uncapped image surfacing with a stale
// pass is raised to the global virtual time and reinserted, so by the
// time a winner emerges every contender has been normalized. Caller
// holds mu. Returns the rejected tickets.
func (c *virtualCore) dispatchWeighted(batch []*Ticket) (rejected []*Ticket) {
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
	rejectCap := a.pol.MaxInFlight > 0 && a.pol.RejectOverflow
	deferCap := a.pol.MaxInFlight > 0 && !a.pol.RejectOverflow
	var (
		qpos      int // order[:qpos] has entered the window
		head      int // order[:head] is all gone
		winN      int
		gone      = make([]bool, len(batch))
		iheap     imgHeap
		deferredL []*imageState
	)
	reject := func(idx int, st *imageState) {
		st.rejected++
		batch[idx].err = ErrAdmission
		rejected = append(rejected, batch[idx])
		gone[idx] = true
	}
	// atCap is the deferral-cap check at the step's decision time T,
	// memoized per image for the step — inFlightAt scans the image's
	// completion history.
	atCap := func(st *imageState, T uint64) bool {
		if !deferCap {
			return false
		}
		if st.capStep != c.step {
			st.capStep, st.capFull = c.step, st.inFlightAt(T) >= a.pol.MaxInFlight
		}
		return st.capFull
	}
	var timeFloor uint64
	for winN > 0 || qpos < len(order) {
		c.step++
		T := c.earliestFree().clk
		if T < timeFloor {
			T = timeFloor
		}
		// minArr: the earliest outstanding arrival — the first ticket in
		// arrival order not yet dispatched or rejected (one exists, or
		// the loop would have ended).
		for gone[order[head]] {
			head++
		}
		minArr := batch[order[head]].Arrival
		if minArr > T {
			T = minArr
		}

		// Ingest every arrival at or before T. Hard-cap rejection happens
		// here, when a ticket enters the decision window: its image
		// saturated at its arrival time.
		for qpos < len(order) && batch[order[qpos]].Arrival <= T {
			idx := order[qpos]
			qpos++
			st := batch[idx].st
			if rejectCap && st.inFlightAt(batch[idx].Arrival) >= a.pol.MaxInFlight {
				reject(idx, st)
				continue
			}
			st.push(idx)
			if !st.inHeap {
				iheap.push(st)
			}
			winN++
		}
		if winN == 0 {
			continue // every entrant was rejected; recompute T off the queue
		}

		// Weighted pick: pop-min (pass, name).
		var win *imageState
		deferredL = deferredL[:0]
		for len(iheap) > 0 {
			st := iheap.pop()
			if atCap(st, T) {
				// Deferred without activation: a capped image banks no
				// pass normalization.
				deferredL = append(deferredL, st)
				continue
			}
			if st.pass < a.vtime {
				a.activate(st)
				iheap.push(st)
				continue
			}
			win = st
			break
		}
		if win == nil {
			// Every backlogged image is deferred: advance time to the
			// next event and retry. That event is the earliest capping
			// completion beyond T — or the next queued arrival, which
			// must also bound the jump: an uncapped image's ticket must
			// never be held past its arrival just because another
			// image's backlog is waiting out its cap.
			nextT := ^uint64(0)
			if qpos < len(order) {
				nextT = batch[order[qpos]].Arrival
			}
			for _, st := range deferredL {
				for _, sp := range st.spans {
					if sp.done > T && sp.done < nextT {
						nextT = sp.done
					}
				}
				iheap.push(st)
			}
			if nextT == ^uint64(0) {
				nextT = T + 1 // defensive: cannot recur, caps imply in-flight work
			}
			timeFloor = nextT
			continue
		}
		for _, st := range deferredL {
			iheap.push(st)
		}
		if win.pass > a.vtime {
			a.vtime = win.pass
		}
		win.pass += a.stride(win)
		bestIdx := win.popMin()
		best := batch[bestIdx]
		gone[bestIdx] = true
		winN--
		best.notBefore = T
		// Every outstanding arrival is >= minArr, so completion history
		// at or below it can never be queried again — compact it before
		// the history of a long trace grows quadratic.
		win.pruneDone(minArr)
		by, total := c.busyAt(best.Arrival)
		c.place(best, by, total)
		// The dispatch appended a span to the winner's image — the only
		// event that can newly saturate it — so re-purge its backlog.
		if rejectCap && len(win.backlog) > 0 {
			kept := win.backlog[:0]
			for _, j := range win.backlog {
				if win.inFlightAt(batch[j].Arrival) >= a.pol.MaxInFlight {
					reject(j, win)
					winN--
					continue
				}
				kept = append(kept, j)
			}
			win.backlog = kept
			win.heapify()
		}
		if len(win.backlog) > 0 {
			iheap.push(win)
		}
	}
	return rejected
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

// admitSpan is one dispatched ticket's claim on its image's in-flight
// quota in virtual time: the slot is held from the ticket's arrival
// (admission) until its completion. Recording the admission edge, not
// just the completion, keeps out-of-order arrivals honest — a ticket
// arriving at t must not be counted against a sibling that was not
// even admitted yet at t.
type admitSpan struct {
	at, done uint64
}

// pruneDone drops admission spans completed at or before upTo, once the
// history has grown enough to be worth compacting. Safe when no later
// admission query can reference times at or below upTo; callers pass
// the earliest arrival still outstanding, so a submission arriving out
// of order behind it observes a slightly relaxed cap (documented on
// admitAtVirtual). Caller holds the core lock.
func (st *imageState) pruneDone(upTo uint64) {
	if len(st.spans) < 256 {
		return
	}
	kept := st.spans[:0]
	for _, sp := range st.spans {
		if sp.done > upTo {
			kept = append(kept, sp)
		}
	}
	st.spans = kept
}

// inFlightAt reports how many of the image's dispatched tickets hold an
// admission slot at virtual time t: admitted at or before t and not yet
// completed. Caller holds the core lock.
func (st *imageState) inFlightAt(t uint64) int {
	n := 0
	for _, sp := range st.spans {
		if sp.at <= t && sp.done > t {
			n++
		}
	}
	return n
}

// admitAtVirtual decides admission for a ticket arriving at the given
// virtual time: (ok=false) rejects under RejectOverflow; otherwise it
// returns the earliest virtual time the image has a free slot — the
// arrival itself when under the cap, or the k-th completion that brings
// the in-flight count below the cap (deferred queueing as a later
// effective start). Completion history below the highest arrival seen
// is pruned, so a submission arriving out of order far behind the trace
// front may observe a relaxed cap. Caller holds the core lock.
func (a *admission) admitAtVirtual(st *imageState, arrival uint64) (notBefore uint64, ok bool) {
	if a.pol.MaxInFlight <= 0 {
		return arrival, true
	}
	if arrival >= st.maxArrival {
		st.maxArrival = arrival
		st.pruneDone(arrival)
	}
	busy := st.inFlightAt(arrival)
	if busy < a.pol.MaxInFlight {
		return arrival, true
	}
	if a.pol.RejectOverflow {
		return 0, false
	}
	// Deferred: the slot frees at the (busy-cap+1)-th completion among
	// the spans occupying the quota at the arrival.
	k := busy - a.pol.MaxInFlight + 1
	later := make([]uint64, 0, busy)
	for _, sp := range st.spans {
		if sp.at <= arrival && sp.done > arrival {
			later = append(later, sp.done)
		}
	}
	slices.Sort(later)
	return later[k-1], true
}
