package sched

import (
	"sync"

	"repro/internal/placement"
	"repro/internal/wasp"
)

// linearCore is the reference virtual dispatcher the O(log n) core must
// match bit for bit: every decision is a scan over the active workers
// or the pending tickets — O(n²) in batch size, no sorted sets, no heaps. It
// is a third implementation of the core
// interface that exists only in tests: the property suite
// (dispatch_prop_test.go), the tie-break pins and
// BenchmarkVirtualDispatch/linear drive it through newLinear.
type linearCore struct {
	s       *Scheduler
	mu      sync.Mutex
	nActive int
}

// newLinear is NewVirtual on the reference core.
func newLinear(w *wasp.Wasp, n int, opts ...Option) *Scheduler {
	return newScheduler(w, n, func(s *Scheduler) core {
		s.driveCleaners(true)
		return &linearCore{s: s, nActive: len(s.workers)}
	}, opts...)
}

func (c *linearCore) Lock()          { c.mu.Lock() }
func (c *linearCore) Unlock()        { c.mu.Unlock() }
func (c *linearCore) String() string { return "linear" }
func (c *linearCore) close()         { c.s.driveCleaners(false) }

func (c *linearCore) resize(n int, at uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	nop := func(*worker) {}
	c.nActive = c.s.resizeLocked(c.nActive, n, at, nop, nop)
	return c.nActive
}

// setVirtualWorkers is SetVirtualWorkers on either virtual core:
// production asserts the heap core, so the reference core resizes
// through its own method.
func setVirtualWorkers(s *Scheduler, n int, at uint64) {
	if c, ok := s.core.(*linearCore); ok {
		c.resize(n, at)
		return
	}
	s.SetVirtualWorkers(n, at)
}

func (c *linearCore) submit(ts []*Ticket) (rejected []*Ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s.adm != nil && len(ts) > 1 {
		batch, rejected := c.s.admitBatchLocked(ts)
		c.dispatchWeighted(batch)
		return rejected
	}
	for _, t := range ts {
		by, _ := c.busyAt(t.Arrival)
		if weights, ok := c.s.admitOneLocked(t, by); ok {
			c.place(t, weights)
		} else {
			rejected = append(rejected, t)
		}
	}
	return rejected
}

func (c *linearCore) busyAt(at uint64) (by []int, total int) {
	by = make([]int, len(c.s.bstates))
	for _, wk := range c.s.workers[:c.nActive] {
		if wk.clk.Now() > at {
			by[wk.beIdx]++
			total++
		}
	}
	return by, total
}

// earliestFree: lowest clock, ties toward the lowest index.
func (c *linearCore) earliestFree() *worker {
	best := c.s.workers[0]
	for _, wk := range c.s.workers[:c.nActive] {
		if wk.clk.Now() < best.clk.Now() {
			best = wk
		}
	}
	return best
}

func (c *linearCore) place(t *Ticket, weights []float64) {
	s := c.s
	by, busy := c.busyAt(t.Arrival)
	var best *worker
	if s.placer == nil {
		best = c.earliestFree()
	} else {
		if weights == nil {
			weights = s.placeWeightsLocked(t, by)
		}
		if best = c.pickWorker(weights, t.Arrival); best == nil {
			best = c.earliestFree()
		}
	}
	s.execVirtualLocked(best, t, busy)
}

// pickWorker is the reference candidate scan: every active worker on an
// eligible backend, scored by earliest start plus placement bias; ties
// toward the earlier clock, then the lower id (iteration order).
func (c *linearCore) pickWorker(weights []float64, eff uint64) *worker {
	var best *worker
	var bestScore uint64
	for _, wk := range c.s.workers[:c.nActive] {
		if !eligibleOn(weights, wk.beIdx) {
			continue
		}
		score := max(wk.clk.Now(), eff)
		if weights != nil {
			score += placement.Bias(weights[wk.beIdx])
		}
		if best == nil || score < bestScore ||
			(score == bestScore && wk.clk.Now() < best.clk.Now()) {
			best, bestScore = wk, score
		}
	}
	return best
}

// dispatchWeighted is the reference batch dispatcher: per decision step
// it re-scans the whole pending slice for the earliest arrival and the
// weighted pick.
func (c *linearCore) dispatchWeighted(pending []*Ticket) {
	a := c.s.adm
	for len(pending) > 0 {
		// Decision time: earliest-free worker, floored by the earliest
		// pending arrival.
		T := c.earliestFree().clk.Now()
		minArr := ^uint64(0)
		for _, t := range pending {
			if t.Arrival < minArr {
				minArr = t.Arrival
			}
		}
		if minArr > T {
			T = minArr
		}

		// Weighted pick: per image, the earliest-submitted backlogged
		// ticket; across images, the lowest pass.
		var best *Ticket
		var bestSt *imageState
		bestIdx := -1
		for i, t := range pending {
			if t.Arrival > T {
				continue
			}
			st := a.state(t.Image)
			a.activate(st)
			// First-submitted ticket per image (same-image entries later
			// in pending compare equal and are skipped), lowest (pass,
			// name) across images.
			if bestSt == nil || st.pass < bestSt.pass ||
				(st.pass == bestSt.pass && st != bestSt && st.name < bestSt.name) {
				best, bestSt, bestIdx = t, st, i
			}
		}
		a.advance(bestSt)
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		c.place(best, nil)
	}
}
