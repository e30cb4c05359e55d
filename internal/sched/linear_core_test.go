package sched

import (
	"sort"
	"sync"

	"repro/internal/placement"
	"repro/internal/wasp"
)

// linearCore is the reference virtual dispatcher the O(log n) core must
// match bit for bit: every decision is a scan over the active workers
// or the pending tickets — O(n²) in batch size, no trees, no heaps, no
// incremental records. It is a third implementation of the core
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

func (c *linearCore) submit(ts []*Ticket) (rejected []*Ticket) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s.adm != nil && len(ts) > 1 {
		batch, rejected := c.s.admitBatchLocked(ts)
		return append(rejected, c.dispatchWeighted(batch)...)
	}
	for _, t := range ts {
		if by, _ := c.busyAt(t.Arrival); c.s.admitOneLocked(t, by) {
			c.place(t)
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

func (c *linearCore) place(t *Ticket) {
	s := c.s
	by, busy := c.busyAt(t.Arrival)
	quota := s.quotaFor(t)
	var best *worker
	if s.placer == nil && quota == 0 {
		best = c.earliestFree()
	} else {
		weights := t.elig
		if weights == nil {
			weights = s.placeWeightsLocked(t, by)
		}
		eff := t.Arrival
		if t.notBefore > eff {
			eff = t.notBefore
		}
		var bestStart uint64
		if best, bestStart = c.pickWorker(t, weights, eff, quota); best == nil {
			best = c.earliestFree()
		} else if quota > 0 && bestStart > t.notBefore {
			t.notBefore = bestStart
		}
	}
	s.execVirtualLocked(best, t, busy)
}

// pickWorker is the reference candidate scan: every active worker on an
// eligible backend, scored by quota-adjusted earliest start plus
// placement bias; ties toward the earlier clock, then the lower id
// (iteration order).
func (c *linearCore) pickWorker(t *Ticket, weights []float64, eff uint64, quota int) (*worker, uint64) {
	var best *worker
	var bestScore, bestStart uint64
	for _, wk := range c.s.workers[:c.nActive] {
		if !eligibleOn(weights, wk.beIdx) {
			continue
		}
		start := wk.clk.Now()
		if start < eff {
			start = eff
		}
		if quota > 0 {
			start = c.quotaStart(t.Image, wk, start, quota)
		}
		score := start
		if weights != nil {
			score += placement.Bias(weights[wk.beIdx])
		}
		if best == nil || score < bestScore ||
			(score == bestScore && wk.clk.Now() < best.clk.Now()) {
			best, bestScore, bestStart = wk, score, start
		}
	}
	return best, bestStart
}

// quotaStart returns the earliest virtual time >= start at which the
// per-backend admission quota admits one more run of image img on wk's
// backend: enough of the same-image runs in flight on the backend's
// other workers at `start` must complete first.
func (c *linearCore) quotaStart(img string, wk *worker, start uint64, quota int) uint64 {
	var dones []uint64
	for _, w2 := range c.s.workers[:c.nActive] {
		if w2 == wk || w2.beIdx != wk.beIdx || w2.lastImage != img {
			continue
		}
		if w2.lastStart <= start && start < w2.lastDone {
			dones = append(dones, w2.lastDone)
		}
	}
	if len(dones) < quota {
		return start
	}
	sort.Slice(dones, func(i, j int) bool { return dones[i] < dones[j] })
	// The slot frees at the completion that brings the backend's
	// same-image in-flight count below the quota.
	return dones[len(dones)-quota]
}

// dispatchWeighted is the reference batch dispatcher: per decision step
// it re-scans the whole pending slice for the earliest arrival, the
// rejection purge, and the weighted pick.
func (c *linearCore) dispatchWeighted(pending []*Ticket) (rejected []*Ticket) {
	a := c.s.adm
	var timeFloor uint64
	for len(pending) > 0 {
		// Decision time: earliest-free worker, floored by deferral waits
		// and by the earliest pending arrival.
		T := c.earliestFree().clk.Now()
		if T < timeFloor {
			T = timeFloor
		}
		minArr := ^uint64(0)
		for _, t := range pending {
			if t.Arrival < minArr {
				minArr = t.Arrival
			}
		}
		if minArr > T {
			T = minArr
		}

		// Hard-cap rejection happens when a ticket enters the decision
		// window: its image saturated at its arrival time.
		if a.pol.MaxInFlight > 0 && a.pol.RejectOverflow {
			kept := pending[:0]
			dropped := false
			for _, t := range pending {
				if t.Arrival <= T && a.state(t.Image).inFlightAt(t.Arrival) >= a.pol.MaxInFlight {
					a.state(t.Image).rejected++
					t.err = ErrAdmission
					rejected = append(rejected, t)
					dropped = true
					continue
				}
				kept = append(kept, t)
			}
			pending = kept
			if dropped {
				continue
			}
		}

		// Weighted pick: per image, the earliest-submitted backlogged
		// ticket; across images, the lowest pass among those not at a
		// deferral cap at T. The cap check is memoized per image for
		// this iteration — inFlightAt scans the image's completion
		// history, and a burst can have thousands of backlogged tickets
		// sharing one image.
		var best *Ticket
		var bestSt *imageState
		bestIdx := -1
		var deferred map[*imageState]bool
		atCap := func(st *imageState) bool {
			if a.pol.MaxInFlight <= 0 || a.pol.RejectOverflow {
				return false
			}
			if deferred == nil {
				deferred = make(map[*imageState]bool)
			}
			capped, ok := deferred[st]
			if !ok {
				capped = st.inFlightAt(T) >= a.pol.MaxInFlight
				deferred[st] = capped
			}
			return capped
		}
		for i, t := range pending {
			if t.Arrival > T {
				continue
			}
			st := a.state(t.Image)
			if atCap(st) {
				continue
			}
			a.activate(st)
			// First-submitted ticket per image (same-image entries later
			// in pending compare equal and are skipped), lowest (pass,
			// name) across images.
			if bestSt == nil || st.pass < bestSt.pass ||
				(st.pass == bestSt.pass && st != bestSt && st.name < bestSt.name) {
				best, bestSt, bestIdx = t, st, i
			}
		}
		if best == nil {
			// Every backlogged image is deferred: advance time to the
			// next event and retry. That event is the earliest capping
			// completion beyond T — or the next pending arrival, which
			// must also bound the jump: an uncapped image's ticket must
			// never be held past its arrival just because another
			// image's backlog is waiting out its quota.
			nextT := ^uint64(0)
			for _, t := range pending {
				if t.Arrival > T {
					if t.Arrival < nextT {
						nextT = t.Arrival
					}
					continue
				}
				for _, sp := range a.state(t.Image).spans {
					if sp.done > T && sp.done < nextT {
						nextT = sp.done
					}
				}
			}
			if nextT == ^uint64(0) {
				nextT = T + 1 // defensive: cannot recur, caps imply in-flight work
			}
			timeFloor = nextT
			continue
		}
		if bestSt.pass > a.vtime {
			a.vtime = bestSt.pass
		}
		bestSt.pass += a.stride(bestSt)
		best.notBefore = T
		pending = append(pending[:bestIdx], pending[bestIdx+1:]...)
		// Every remaining pending arrival is >= minArr, so completion
		// history at or below it can never be queried again — compact
		// it before the history of a long trace grows quadratic.
		bestSt.pruneDone(minArr)
		c.place(best)
	}
	return rejected
}
