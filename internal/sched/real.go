package sched

import (
	"sync"

	"repro/internal/obs"
	"repro/internal/placement"
)

// realCore is the real-mode dispatch core: N worker lanes draining a
// bounded queue — a cond-var deque rather than a channel, so a burst
// enqueues under one lock acquisition with one wake, and the admission
// layer can pick across per-image queues instead of strict FIFO. Each
// lane has a resident goroutine (workerLoop), but any goroutine may
// drive it: Ticket.Wait borrows an idle lane and serves the queue on
// the caller's goroutine instead of waking the resident and sleeping
// (help). The enqueue-side half of the admission state
// (imageState.queue, inFlight, inFlightBy; tryEnqueue, pick) lives in
// this file, guarded by dmu.
type realCore struct {
	s *Scheduler

	dmu      sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	qcap     int // backlog bound: submit blocks when full
	qclosed  bool
	fifo     []*Ticket // plain FIFO lane, used when adm == nil
	fifoHead int
	queuedN  int

	// idle lists the lanes whose resident is parked in park: the lanes a
	// waiter may borrow (help). A borrowed lane is off the list and
	// marked lent until it comes back.
	idle []*worker

	// busyBy counts workers mid-ticket per backend (maintained only
	// while a placer is attached): the weight-aware pop consults it to
	// decide when a non-preferred backend may take over a steered ticket.
	busyBy []int

	wg sync.WaitGroup
}

func newRealCore(s *Scheduler) core {
	c := &realCore{s: s, qcap: s.qcap}
	if c.qcap == 0 {
		c.qcap = 4 * len(s.workers)
	}
	c.notEmpty = sync.NewCond(&c.dmu)
	c.notFull = sync.NewCond(&c.dmu)
	if s.placer != nil {
		c.busyBy = make([]int, len(s.bstates))
	}
	for _, wk := range s.workers {
		c.wg.Add(1)
		go c.workerLoop(wk)
	}
	return c
}

func (c *realCore) Lock()          { c.dmu.Lock() }
func (c *realCore) Unlock()        { c.dmu.Unlock() }
func (c *realCore) String() string { return "real" }

// resize: real-mode fleets are goroutines, not clocks.
func (c *realCore) resize(int, uint64) int {
	panic("sched: SetVirtualWorkers is a virtual-mode primitive")
}

// close drains the queue and waits for the workers to exit.
func (c *realCore) close() {
	c.dmu.Lock()
	c.qclosed = true
	c.notEmpty.Broadcast()
	c.notFull.Broadcast()
	c.dmu.Unlock()
	c.wg.Wait()
}

// submit enqueues a burst under one lock acquisition, waking the
// workers once. It returns the tickets the queue did not accept
// (scheduler closed mid-wait, admission hard-cap rejection, a nil task,
// or no eligible backend), each with its error set.
func (c *realCore) submit(ts []*Ticket) (rejected []*Ticket) {
	s := c.s
	accepted := 0
	c.dmu.Lock()
	for _, t := range ts {
		// Placement eligibility is fixed at enqueue in real mode: the
		// weights gate which workers may pop the ticket. An image no
		// backend may serve is rejected here rather than parked forever.
		var ok bool
		if t.elig, ok = s.vetLocked(t, nil); !ok {
			rejected = append(rejected, t)
			continue
		}
		if s.placer != nil {
			t.prefBE = c.prefBackendLocked(t)
			if tr := s.tracer; tr.Enabled() && t.prefBE >= 0 {
				tr.Instant(obs.ControlLane, obs.KindPlace, t.Image,
					t.Arrival, t.seq, uint64(t.prefBE), 1)
			}
		}
		for !c.qclosed && c.queuedN >= c.qcap {
			// A burst larger than the queue's free space must wake the
			// workers before sleeping: the usual single wake happens only
			// after the whole burst is enqueued, and waiting for space
			// that only workers can free without it is a deadlock.
			c.notEmpty.Broadcast()
			c.notFull.Wait()
		}
		if c.qclosed {
			s.rejectLocked(t, ErrClosed)
			rejected = append(rejected, t)
			continue
		}
		if s.adm != nil {
			if err := s.adm.tryEnqueue(t); err != nil {
				t.err = err
				rejected = append(rejected, t)
				continue
			}
		} else {
			c.fifo = append(c.fifo, t)
		}
		t.lender, t.queued = c, true
		t.DepthAtSubmit = c.queuedN // tickets already waiting ahead of this one
		c.queuedN++
		s.depth.Store(int64(c.queuedN))
		if d := int64(c.queuedN); d > s.peakDepth.Load() {
			s.peakDepth.Store(d)
		}
		accepted++
	}
	// One wake for the burst — but a single submission wakes a single
	// worker: pick eligibility is global, so broadcasting one ticket to
	// N idle workers is a thundering herd on the hot dispatch path.
	// With a placer on a mixed fleet that reasoning breaks — a Signal
	// could land on a worker whose backend may not serve the ticket,
	// which would then park again and strand the ticket — so
	// platform-constrained dispatch always broadcasts.
	switch {
	case accepted == 1 && (s.placer == nil || len(s.bstates) == 1):
		c.notEmpty.Signal()
	case accepted >= 1:
		c.notEmpty.Broadcast()
	}
	c.dmu.Unlock()
	return rejected
}

// prefBackendLocked picks the backend dispatch should steer a ticket
// toward: the highest-weight eligible backend, but only when its bias
// advantage over the runner-up is material against the image's own
// smoothed service time (a quarter of it) — near-ties race freely, so
// load-balancing policies keep their work-conserving behavior and only
// decisive cost gaps serialize dispatch onto one backend. Returns -1 for
// "no steering". Caller holds dmu; placer is attached.
func (c *realCore) prefBackendLocked(t *Ticket) int {
	if t.elig == nil || len(c.s.bstates) < 2 {
		return -1
	}
	best, second := -1, -1
	for i, w := range t.elig {
		if w <= 0 {
			continue
		}
		switch {
		case best < 0 || w > t.elig[best]:
			second, best = best, i
		case second < 0 || w > t.elig[second]:
			second = i
		}
	}
	if best < 0 || second < 0 {
		return -1 // zero or one eligible backend: eligibility already decides
	}
	gap := placement.Bias(t.elig[second]) - placement.Bias(t.elig[best])
	svc, _ := c.s.imgStats.get(t.Image)
	minGap := svc / 4
	if minGap < 1 {
		minGap = 1
	}
	if gap < minGap {
		return -1
	}
	return best
}

// pickLocked pops the next ticket lane wk's backend may serve: the
// first eligible FIFO entry, or the admission layer's weighted pick
// across per-image queues restricted to eligible images. It is the one
// pick every driver of a lane shares — the resident worker and a waiter
// the lane is lent to — so dispatch order never depends on who drives.
// Deferred tickets (image at its hard cap), tickets pinned to other
// platforms, and tickets steered to a preferred backend that still has
// an idle worker are left queued; nil means nothing was eligible.
// Caller holds dmu.
func (c *realCore) pickLocked(wk *worker) (t *Ticket) {
	s := c.s
	if c.queuedN == 0 {
		return nil
	}
	eligible := func(t *Ticket) bool {
		if !eligibleOn(t.elig, wk.beIdx) {
			return false
		}
		// Weight-aware steering: a decisively preferred backend gets
		// first claim while it has an idle worker; takeover by another
		// eligible backend is allowed only once the preferred one is
		// saturated (work conservation over strict preference).
		if t.prefBE >= 0 && t.prefBE != wk.beIdx &&
			c.busyBy[t.prefBE] < s.bstates[t.prefBE].workers {
			return false
		}
		// Per-backend admission quota: the image may already hold its
		// full allotment of this worker's backend.
		if quota := s.quotaFor(t); quota > 0 {
			if st := s.adm.images[t.Image]; st != nil && st.inFlightOn(wk.beIdx) >= quota {
				return false
			}
		}
		return true
	}
	if s.adm != nil {
		t = s.adm.pick(eligible)
	} else {
		// Skip holes earlier platform-affine pops left behind.
		for c.fifoHead < len(c.fifo) && c.fifo[c.fifoHead] == nil {
			c.fifoHead++
		}
		for i := c.fifoHead; i < len(c.fifo); i++ {
			cand := c.fifo[i]
			if cand == nil || !eligible(cand) {
				continue
			}
			t = cand
			c.fifo[i] = nil
			if i == c.fifoHead {
				c.fifoHead++
			}
			break
		}
		if c.fifoHead == len(c.fifo) {
			c.fifo = c.fifo[:0]
			c.fifoHead = 0
		} else if c.fifoHead > 1024 && 2*c.fifoHead > len(c.fifo) {
			// Compact the drained prefix so a long-lived queue does
			// not pin its high-water backing array. Interior holes
			// survive the copy and are skipped by the scan above.
			c.fifo = append(c.fifo[:0], c.fifo[c.fifoHead:]...)
			c.fifoHead = 0
		}
	}
	if t == nil {
		return nil
	}
	t.queued = false
	c.queuedN--
	s.depth.Store(int64(c.queuedN))
	if s.placer != nil {
		c.busyBy[wk.beIdx]++
		if c.queuedN > 0 && len(s.bstates) > 1 &&
			c.busyBy[wk.beIdx] >= s.bstates[wk.beIdx].workers {
			// This backend just saturated: tickets steered to it
			// become takeable by the other backends' idle workers,
			// which may be parked — wake them to re-evaluate.
			c.notEmpty.Broadcast()
		}
	}
	if s.quotaFor(t) > 0 {
		s.adm.state(t.Image).claimBackend(wk.beIdx, len(s.bstates))
	}
	c.notFull.Signal()
	if c.qclosed && c.queuedN == 0 {
		// Draining just finished: wake workers parked on a backlog
		// their backend could not serve, or they would sleep through
		// the closed-and-drained exit forever and Close would hang on
		// them.
		c.notEmpty.Broadcast()
	}
	return t
}

// idleDrained, when non-nil, runs after a lane scrubs a shell on the
// idle path — a test seam (the migrateExportGate pattern) that lets
// tests wait on the drain event instead of polling the cleaner. Always
// nil outside tests.
var idleDrained func()

// workerLoop is lane wk's resident driver, one locked pass per duty
// cycle: the next ticket, else one dirty shell from the runtime's
// cleaner (the Wasp+CA low-priority lane), else park. Cleaning runs on
// the driver's host thread but is never charged to the lane's virtual
// clock — idle capacity absorbs it, exactly like the paper's background
// cleaning thread.
func (c *realCore) workerLoop(wk *worker) {
	defer c.wg.Done()
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for {
		if t := c.pickLocked(wk); t != nil {
			c.execUnlocked(wk, t)
		} else if c.qclosed && c.queuedN == 0 {
			return
		} else if !c.scrubLocked() {
			c.park(wk)
		}
	}
}

// park puts lane wk on the idle list, where a waiter may borrow it
// (help), and blocks its resident until it is woken with the lane in
// hand. Caller holds dmu.
func (c *realCore) park(wk *worker) {
	c.idle = append(c.idle, wk)
	for c.notEmpty.Wait(); wk.lent; c.notEmpty.Wait() {
		// The lane is out with a waiter, so if this was a submission's
		// single wake it landed on a resident that cannot act on it:
		// pass it on to one that can. The borrower wakes this resident
		// when the lane comes back with work left (driveLent).
		if c.queuedN > 0 && len(c.idle) > 0 {
			c.notEmpty.Signal()
		}
	}
	c.unidleLocked(wk)
}

// unidleLocked takes lane wk off the idle list.
func (c *realCore) unidleLocked(wk *worker) {
	last := len(c.idle) - 1
	for i, x := range c.idle {
		if x == wk {
			c.idle[i], c.idle[last] = c.idle[last], nil
			c.idle = c.idle[:last]
			return
		}
	}
}

// help lends idle lanes to the goroutine waiting on t for as long as t
// is still queued: the caller pops whatever pickLocked hands the lane —
// its own ticket or, when the fair pick says so, another caller's — and
// serves it on its own goroutine, saving the wake of a parked resident
// and the wake back on done. A lane has one driver at a time and only
// lanes carry tickets, so at most NumWorkers tickets are ever in
// service. Returns once t has been popped (by anyone) or no idle lane
// may serve what is queued; Wait then blocks on done as before.
func (c *realCore) help(t *Ticket) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for t.queued {
		var wk *worker
		var next *Ticket
		for _, cand := range c.idle {
			if next = c.pickLocked(cand); next != nil {
				wk = cand
				break
			}
		}
		if wk == nil {
			return
		}
		c.driveLent(wk, next, t)
	}
}

// driveLent runs the resident's duty cycle on idle lane wk from the
// calling goroutine: ticket next, then whatever pickLocked yields while
// the caller's own ticket is still queued, then — the queue empty — one
// scrub, where the resident would have scrubbed (the pool's shrink rule
// only sees parked shells, so a lane that skipped its scrub would leave
// them to inline reclaims). While the lane is out its resident neither
// picks nor exits, so Close waits for it. (It goes back in a defer, and
// execUnlocked retakes dmu in one: serve turns a task's panic into the
// ticket's error, so nothing should unwind through here, but a lane lost
// to a bug in the dispatch path itself would hang Close.) Caller holds
// dmu.
func (c *realCore) driveLent(wk *worker, next, own *Ticket) {
	c.unidleLocked(wk)
	wk.lent = true
	defer func() {
		wk.lent = false
		c.idle = append(c.idle, wk)
		if c.queuedN > 0 || c.qclosed || c.cleanerBacklog() {
			// What the borrower leaves undone is the resident's again
			// (other idle residents wake too, and park if the pick has
			// nothing for them).
			c.notEmpty.Broadcast()
		}
	}()
	for ; next != nil; next = c.pickLocked(wk) {
		c.execUnlocked(wk, next)
		c.s.helped.Add(1)
		if !own.queued {
			break
		}
	}
	if c.queuedN == 0 {
		c.scrubLocked()
	}
}

// execUnlocked serves t on lane wk with dmu released, retaking it on
// the way out. Caller holds dmu and drives wk.
func (c *realCore) execUnlocked(wk *worker, t *Ticket) {
	c.dmu.Unlock()
	defer c.dmu.Lock()
	c.exec(wk, t)
}

// scrubLocked scrubs one dirty shell from any backend's cleaner and
// reports whether it released dmu to try (the zeroing runs unlocked, so
// the caller must look at the queue again). The backlog check itself
// runs under dmu: a driver that finds none may park on this pass.
// Caller holds dmu.
func (c *realCore) scrubLocked() bool {
	if !c.cleanerBacklog() {
		return false
	}
	c.dmu.Unlock()
	defer c.dmu.Lock()
	for _, cl := range c.s.cleaners {
		if cl.DrainOne() {
			c.s.cleanerDrains.Add(1)
			if idleDrained != nil {
				idleDrained()
			}
			break
		}
	}
	return true
}

// cleanerBacklog reports whether any backend's cleaner holds a dirty
// shell.
func (c *realCore) cleanerBacklog() bool {
	for _, cl := range c.s.cleaners {
		if cl.Pending() > 0 {
			return true
		}
	}
	return false
}

// exec serves one popped ticket and folds its completion back into the
// dispatch state under dmu: placement EWMAs and the steering busy
// count, then the admission in-flight release.
func (c *realCore) exec(wk *worker, t *Ticket) {
	s := c.s
	s.serve(wk, t)
	if s.placer != nil || s.adm != nil {
		c.dmu.Lock()
		if s.placer != nil {
			s.noteServiceLocked(t, wk)
			c.busyBy[wk.beIdx]--
		}
		if s.adm != nil {
			s.adm.complete(t, wk.beIdx)
			if (s.adm.pol.MaxInFlight > 0 && !s.adm.pol.RejectOverflow) ||
				s.adm.pol.MaxPerBackend > 0 {
				// A deferred image may have a free slot now — under the
				// global cap, or on the completing ticket's backend under
				// the per-backend quota. Only these caps can park a worker
				// waiting on a completion; broadcasting for other policies
				// would just wake every idle worker per ticket for nothing.
				c.notEmpty.Broadcast()
			}
		}
		c.dmu.Unlock()
	}
	s.retire(wk, t)
}

// tryEnqueue admits t into its image queue, or rejects it under a hard
// cap with RejectOverflow. Caller holds dmu.
func (a *admission) tryEnqueue(t *Ticket) error {
	st := a.state(t.Image)
	st.submitted++
	if a.pol.MaxInFlight > 0 && a.pol.RejectOverflow &&
		len(st.queue)+st.inFlight >= a.pol.MaxInFlight {
		st.rejected++
		return ErrAdmission
	}
	if a.pol.MaxQueued > 0 && len(st.queue) >= a.pol.MaxQueued {
		st.rejected++
		return ErrAdmission
	}
	if len(st.queue) == 0 {
		a.activate(st)
		st.activeAt = len(a.active)
		a.active = append(a.active, st)
	}
	st.queue = append(st.queue, t)
	a.queued++
	return nil
}

// pick removes and returns the next ticket by weighted fair pick across
// the per-image queues: the eligible image with the lowest pass (ties
// break on the image name, keeping the pick deterministic whatever the
// order of the active list). Deferred images — at their hard cap — are
// not eligible, and neither are images the caller's eligible filter
// refuses (the placement layer's platform-affinity gate: a worker
// passes a filter accepting only tickets its backend may serve). Only
// images with a waiting ticket are looked at, so the cost follows the
// backlog, not the tenants ever seen. Returns nil when no eligible
// ticket exists. Caller holds dmu.
func (a *admission) pick(eligible func(*Ticket) bool) *Ticket {
	var best *imageState
	for _, st := range a.active {
		if a.pickable(st, eligible) && (best == nil || st.before(best)) {
			best = st
		}
	}
	return a.take(best)
}

// pickable reports whether st's head ticket may be dispatched now.
func (a *admission) pickable(st *imageState, eligible func(*Ticket) bool) bool {
	if len(st.queue) == 0 {
		return false
	}
	if a.pol.MaxInFlight > 0 && !a.pol.RejectOverflow && st.inFlight >= a.pol.MaxInFlight {
		return false // deferred: wait for a completion slot
	}
	return eligible(st.queue[0]) // else pinned to a backend this worker does not serve
}

// before is the fair pick's total order: (pass, name).
func (st *imageState) before(o *imageState) bool {
	return st.pass < o.pass || (st.pass == o.pass && st.name < o.name)
}

// take dispatches the head ticket of the picked image (nil: none),
// advancing its pass and dropping it from the active list once its
// queue is empty.
func (a *admission) take(best *imageState) *Ticket {
	if best == nil {
		return nil
	}
	t := best.queue[0]
	best.queue[0] = nil
	best.queue = best.queue[1:]
	if len(best.queue) == 0 {
		last := a.active[len(a.active)-1]
		a.active[best.activeAt] = last
		last.activeAt = best.activeAt
		a.active[len(a.active)-1] = nil
		a.active = a.active[:len(a.active)-1]
	}
	a.queued--
	best.inFlight++
	if best.pass > a.vtime {
		a.vtime = best.pass
	}
	best.pass += a.stride(best)
	return t
}

// claimBackend charges one in-flight slot of backend beIdx against the
// image's per-backend quota (lazily sized to the fleet's backend
// count). Caller holds dmu.
func (st *imageState) claimBackend(beIdx, nBackends int) {
	if st.inFlightBy == nil {
		st.inFlightBy = make([]int, nBackends)
	}
	st.inFlightBy[beIdx]++
}

// inFlightOn reports the image's dispatched-but-not-completed count on
// one backend. Caller holds dmu.
func (st *imageState) inFlightOn(beIdx int) int {
	if beIdx >= len(st.inFlightBy) {
		return 0
	}
	return st.inFlightBy[beIdx]
}
