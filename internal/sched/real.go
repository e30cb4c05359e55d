package sched

import "sync"

// realCore is the real-mode dispatch core: N worker lanes draining a
// bounded queue — a cond-var deque rather than a channel, so a burst
// enqueues under one lock acquisition with one wake, and the admission
// layer can pick across per-image queues instead of strict FIFO. Each
// lane has a resident goroutine (workerLoop), but any goroutine may
// drive it: Ticket.Wait borrows an idle lane and serves the queue on
// the caller's goroutine instead of waking the resident and sleeping
// (help). Any lane serves any ticket: placement is a virtual-mode
// policy, and a placer attached here fails every ticket with
// ErrPlacement. The enqueue-side half of the admission state
// (imageState.queue; tryEnqueue, pick) lives in this file, guarded by
// dmu.
type realCore struct {
	s *Scheduler

	dmu      sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	qcap     int // backlog bound, 4×workers: submit blocks when full
	qclosed  bool
	fifo     []*Ticket // plain FIFO lane, used when adm == nil
	fifoHead int
	queuedN  int

	// idle lists the lanes whose resident is parked in park: the lanes a
	// waiter may borrow (help). A borrowed lane is off the list and
	// marked lent until it comes back.
	idle []*worker

	wg sync.WaitGroup
}

func newRealCore(s *Scheduler) core {
	c := &realCore{s: s, qcap: 4 * len(s.workers)}
	c.notEmpty = sync.NewCond(&c.dmu)
	c.notFull = sync.NewCond(&c.dmu)
	for _, wk := range s.workers {
		c.wg.Add(1)
		go c.workerLoop(wk)
	}
	return c
}

func (c *realCore) Lock()          { c.dmu.Lock() }
func (c *realCore) Unlock()        { c.dmu.Unlock() }
func (c *realCore) String() string { return "real" }

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
// (scheduler closed mid-wait, an image over its MaxQueued bound, a
// malformed request, or a placer attached), each with its error set.
func (c *realCore) submit(ts []*Ticket) (rejected []*Ticket) {
	s := c.s
	accepted := 0
	c.dmu.Lock()
	if s.placer != nil {
		// Lanes neither gate nor steer, so the tickets fail closed
		// rather than run as if the placer were not there.
		for _, t := range ts {
			s.rejectLocked(t, ErrPlacement)
		}
		c.dmu.Unlock()
		return ts
	}
	for _, t := range ts {
		if _, ok := s.vetLocked(t, nil); !ok {
			rejected = append(rejected, t)
			continue
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
		// Queued: Wait may help serve it, and done is held until finish.
		t.lender, t.queued = c, true
		t.done.Lock()
		t.DepthAtSubmit = c.queuedN // tickets already waiting ahead of this one
		c.queuedN++
		s.depth.Store(int64(c.queuedN))
		if d := int64(c.queuedN); d > s.peakDepth.Load() {
			s.peakDepth.Store(d)
		}
		accepted++
	}
	// One wake for the burst — but a single submission wakes a single
	// worker: any lane serves any ticket, so broadcasting one ticket to
	// N idle workers is a thundering herd on the hot dispatch path.
	switch {
	case accepted == 1:
		c.notEmpty.Signal()
	case accepted > 1:
		c.notEmpty.Broadcast()
	}
	c.dmu.Unlock()
	return rejected
}

// pickLocked pops the next ticket: the FIFO's head, or the admission
// layer's weighted pick across per-image queues. It is the one pick
// every driver of a lane shares — the resident worker and a waiter the
// lane is lent to — so dispatch order never depends on who drives. nil
// means the queue is empty. Caller holds dmu.
func (c *realCore) pickLocked() (t *Ticket) {
	s := c.s
	if c.queuedN == 0 {
		return nil
	}
	if s.adm != nil {
		t = s.adm.pick()
	} else {
		t = c.fifo[c.fifoHead]
		c.fifo[c.fifoHead] = nil
		c.fifoHead++
		if c.fifoHead == len(c.fifo) {
			c.fifo, c.fifoHead = c.fifo[:0], 0
		} else if c.fifoHead > 1024 && 2*c.fifoHead > len(c.fifo) {
			// Compact the drained prefix so a long-lived queue does
			// not pin its high-water backing array.
			c.fifo = append(c.fifo[:0], c.fifo[c.fifoHead:]...)
			c.fifoHead = 0
		}
	}
	t.queued = false
	c.queuedN--
	s.depth.Store(int64(c.queuedN))
	c.notFull.Signal()
	return t
}

// workerLoop is lane wk's resident driver, one locked pass per duty
// cycle: the next ticket, else park.
func (c *realCore) workerLoop(wk *worker) {
	defer c.wg.Done()
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for {
		if t := c.pickLocked(); t != nil {
			c.execUnlocked(wk, t)
		} else if c.qclosed {
			return
		} else {
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
// service. Returns once t has been popped (by anyone) or no lane is
// idle; Wait then blocks on done as before.
func (c *realCore) help(t *Ticket) {
	c.dmu.Lock()
	defer c.dmu.Unlock()
	for t.queued && len(c.idle) > 0 {
		c.driveLent(c.idle[0], c.pickLocked(), t)
	}
}

// driveLent runs the resident's duty cycle on idle lane wk from the
// calling goroutine: ticket next, then whatever pickLocked yields while
// the caller's own ticket is still queued. While the lane is out its
// resident neither picks nor exits, so Close waits for it. (It goes back
// in a defer, and execUnlocked retakes dmu in one: serve turns a task's
// panic into the ticket's error, so nothing should unwind through here,
// but a lane lost to a bug in the dispatch path itself would hang
// Close.) Caller holds dmu.
func (c *realCore) driveLent(wk *worker, next, own *Ticket) {
	c.unidleLocked(wk)
	wk.lent = true
	defer func() {
		wk.lent = false
		c.idle = append(c.idle, wk)
		if c.queuedN > 0 || c.qclosed {
			// What the borrower leaves undone is the resident's again
			// (other idle residents wake too, and park if the pick has
			// nothing for them).
			c.notEmpty.Broadcast()
		}
	}()
	for ; next != nil; next = c.pickLocked() {
		c.execUnlocked(wk, next)
		if !own.queued {
			break
		}
	}
}

// execUnlocked serves t on lane wk with dmu released, retaking it on
// the way out. Caller holds dmu and drives wk.
func (c *realCore) execUnlocked(wk *worker, t *Ticket) {
	c.dmu.Unlock()
	defer c.dmu.Lock()
	c.exec(wk, t)
}

// exec serves one popped ticket and folds its completion into the
// admission telemetry under dmu.
func (c *realCore) exec(wk *worker, t *Ticket) {
	s := c.s
	s.serve(wk, t)
	if s.adm != nil {
		c.dmu.Lock()
		s.adm.complete(t)
		c.dmu.Unlock()
	}
	s.retire(wk, t)
}

// tryEnqueue admits t into its image queue, or sheds it once the image
// already has MaxQueued tickets waiting. Caller holds dmu.
func (a *admission) tryEnqueue(t *Ticket) error {
	st := a.state(t.Image)
	t.st = st
	st.submitted++
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
	return nil
}

// pick removes and returns the next ticket by weighted fair pick across
// the per-image queues: the image with the lowest pass (ties break on
// the image name, keeping the pick deterministic whatever the order of
// the active list). Only images with a waiting ticket are looked at, so
// the cost follows the backlog, not the tenants ever seen. Returns nil
// when nothing is queued. Caller holds dmu.
func (a *admission) pick() *Ticket {
	var best *imageState
	for _, st := range a.active {
		if best == nil || st.before(best) {
			best = st
		}
	}
	return a.take(best)
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
	if len(best.queue) == 1 {
		// Drained: keep the backing array for the next enqueue.
		best.queue = best.queue[:0]
	} else {
		best.queue = best.queue[1:]
	}
	if len(best.queue) == 0 {
		last := a.active[len(a.active)-1]
		a.active[best.activeAt] = last
		last.activeAt = best.activeAt
		a.active[len(a.active)-1] = nil
		a.active = a.active[:len(a.active)-1]
	}
	a.advance(best)
	return t
}
