package wasp

import (
	"sync"
	"sync/atomic"

	"repro/internal/cycles"
	"repro/internal/obs"
)

// Cleaner is the Wasp+CA background cleaner (§5.2, Fig 8). Under
// WithAsyncClean the release path does no zeroing at all: the dirty
// shell is parked on the cleaner's queue and scrubbed off the measured
// path by one of three lanes:
//
//   - a self-spawning background drain goroutine — the paper's
//     dedicated cleaning thread. It exists only while there is a
//     backlog, so an idle runtime holds no goroutine;
//   - an idle scheduler worker (internal/sched's low-priority lane)
//     calling DrainOne between tickets;
//   - the virtual-mode scheduler calling DrainAt, which models the
//     cleaner as one more virtual core: every scrub advances the
//     cleaner's own clock by the zeroing cost, so the work is fully
//     accounted (and measurable via Cycles) without ever landing on a
//     request clock.
//
// Acquire-side contract: a pooled shell handed out under async cleaning
// is always already clean. When the warm pool is empty but dirty or
// in-flight shells exist for the size class, reclaim bridges the gap so
// the caller never pays a cold create for a shell the cleaner simply
// has not reached yet.
type Cleaner struct {
	// pools is the owning backend's shell cache: under multi-platform
	// runtimes each backend has its own cleaner, so a dirty shell is
	// always scrubbed back into the pool of the platform it ran on.
	pools *shellPools
	pages *shellPages // the backend's Rebase tally

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []dirtyShell
	queued   map[int]int // per size class: shells waiting on the queue
	inflight map[int]int // per size class: shells being scrubbed right now
	running  bool        // background drain goroutine active
	driven   bool        // an external driver (virtual scheduler) owns draining

	// vclk is the dedicated virtual cleaner core's timeline: it advances
	// to each shell's release time and then by the zeroing cost, so its
	// reading is the virtual time the core last went idle. vbusy sums
	// only the zeroing work. Only DrainAt advances either; in real mode
	// the host-side scrubbing is deliberately not charged anywhere,
	// mirroring CleanSilent's accounting.
	vclk     *cycles.Clock
	vbusy    uint64
	vdrained uint64 // shells scrubbed by the virtual core specifically

	enqueued atomic.Uint64
	cleaned  atomic.Uint64
	inline   atomic.Uint64
	dropped  atomic.Uint64

	// tr records enqueue/scrub events on the async-clean path. Set by
	// Wasp before serving (never mid-drain); nil-safe when unset.
	tr *obs.Tracer
}

type dirtyShell struct {
	memBytes int
	s        *shell
}

func newCleaner(pools *shellPools, pages *shellPages) *Cleaner {
	c := &Cleaner{pools: pools, pages: pages, queued: make(map[int]int), inflight: make(map[int]int), vclk: cycles.NewClock()}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// enqueue hands a dirty shell to the cleaner — this is everything the
// release path does under async cleaning. The dirty backlog is bounded
// per size class; overflow shells are dropped for the host kernel to
// reclaim.
func (c *Cleaner) enqueue(memBytes int, s *shell) {
	c.mu.Lock()
	if c.queued[memBytes] >= c.backlogCap() {
		c.mu.Unlock()
		c.dropped.Add(1)
		return
	}
	c.queue = append(c.queue, dirtyShell{memBytes, s})
	c.queued[memBytes]++
	c.enqueued.Add(1)
	if tr := c.tr; tr.Enabled() {
		var at uint64
		if s.ctx != nil && s.ctx.Clock != nil {
			at = s.ctx.Clock.Now() // release time on the shell's own clock
		}
		tr.Instant(obs.ControlLane, obs.KindClean, "clean-enqueue", at, 0, uint64(memBytes), uint64(len(c.queue)))
	}
	spawn := !c.driven && !c.running
	if spawn {
		c.running = true
	}
	c.mu.Unlock()
	if spawn {
		go c.drainLoop()
	}
}

// backlogCap bounds each size class's dirty backlog at twice its pool
// capacity: a deeper backlog could never be absorbed by the pool
// anyway, so retaining it would just pin dead guest memory. Called with
// mu held.
func (c *Cleaner) backlogCap() int { return 2 * c.pools.policy.MaxPerClass }

// drainLoop scrubs queued shells until the queue is empty or a driver
// takes over, then exits; enqueue restarts it on demand.
func (c *Cleaner) drainLoop() {
	c.mu.Lock()
	for {
		if c.driven || len(c.queue) == 0 {
			c.running = false
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		d := c.pop(0)
		c.inflight[d.memBytes]++
		c.mu.Unlock()
		c.scrub(d, false, 0)
		c.mu.Lock()
		c.inflight[d.memBytes]--
		c.cond.Broadcast()
	}
}

// pop removes and returns queue entry i. Called with mu held.
func (c *Cleaner) pop(i int) dirtyShell {
	d := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	c.queued[d.memBytes]--
	return d
}

// scrub zeroes a dirty shell off any request path. With toCaller the
// clean shell is handed back directly (reclaim); otherwise it is parked
// in the warm pool, or dropped if the size class is at capacity. at is
// the virtual cleaner core's completion time (0 on host lanes, whose
// scrubs occupy no virtual timeline).
func (c *Cleaner) scrub(d dirtyShell, toCaller bool, at uint64) *shell {
	c.pages.add(d.s.ctx.CleanSilent())
	d.s.dirty = false
	c.cleaned.Add(1)
	if tr := c.tr; tr.Enabled() {
		name := "clean-scrub"
		if toCaller {
			name = "clean-reclaim"
		}
		tr.Instant(obs.ControlLane, obs.KindClean, name, at, 0, uint64(d.memBytes), 0)
	}
	if toCaller {
		return d.s
	}
	if !c.pools.put(d.memBytes, d.s) {
		c.dropped.Add(1)
	}
	return nil
}

// DrainOne scrubs one queued dirty shell, if any — the scheduler's
// low-priority idle-worker lane calls this between tickets. The zeroing
// runs on the caller's host thread but is never charged to a request
// clock. Reports whether a shell was scrubbed.
func (c *Cleaner) DrainOne() bool {
	c.mu.Lock()
	if len(c.queue) == 0 {
		c.mu.Unlock()
		return false
	}
	d := c.pop(0)
	c.inflight[d.memBytes]++
	c.mu.Unlock()
	c.scrub(d, false, 0)
	c.mu.Lock()
	c.inflight[d.memBytes]--
	c.cond.Broadcast()
	c.mu.Unlock()
	return true
}

// Drain scrubs every queued shell now and reports how many.
func (c *Cleaner) Drain() int {
	n := 0
	for c.DrainOne() {
		n++
	}
	return n
}

// DrainAt scrubs every queued shell on the dedicated virtual cleaner
// core: the core picks up each shell no earlier than the release time
// `at` and pays its zeroing cost in the core's own virtual time. The
// virtual-mode scheduler calls this after each serviced ticket, so
// Wasp+CA cleaning is modelled deterministically as a dedicated core
// rather than silently elided.
func (c *Cleaner) DrainAt(at uint64) int {
	n := 0
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.mu.Unlock()
			return n
		}
		d := c.pop(0)
		c.inflight[d.memBytes]++
		c.vclk.AdvanceTo(at)
		cost := cycles.ZeroCost(d.memBytes)
		c.vclk.Advance(cost)
		c.vbusy += cost
		c.vdrained++
		done := c.vclk.Now()
		c.mu.Unlock()
		c.scrub(d, false, done)
		c.mu.Lock()
		c.inflight[d.memBytes]--
		c.cond.Broadcast()
		c.mu.Unlock()
		n++
	}
}

// reclaim hands the caller a clean shell for the size class when the
// warm pool has none: a queued dirty shell is scrubbed on the spot, or,
// if one is mid-scrub on another lane, the caller waits for it to land
// in the pool. The model's assumption (the paper's cleaner keeps pace
// with the release rate) is that a shell released before this acquire
// is clean by the time it is needed, so the wait is host-side only and
// nothing is charged to the run's clock. Returns nil when the class has
// neither queued nor in-flight shells.
func (c *Cleaner) reclaim(memBytes int) *shell {
	c.mu.Lock()
	for {
		for i := range c.queue {
			if c.queue[i].memBytes == memBytes {
				d := c.pop(i)
				c.mu.Unlock()
				c.inline.Add(1)
				return c.scrub(d, true, 0)
			}
		}
		if c.inflight[memBytes] == 0 {
			c.mu.Unlock()
			return nil
		}
		c.cond.Wait()
		if s := c.pools.take(memBytes); s != nil {
			c.mu.Unlock()
			return s
		}
	}
}

// SetDriven transfers drain ownership to an external driver — the
// virtual-mode scheduler, which models the cleaner as a dedicated
// virtual core. While driven, enqueue spawns no background goroutine;
// turning driving on waits for an already-running background drain to
// quiesce so every subsequent scrub is accounted deterministically by
// the driver. SetDriven(false) hands ownership back and restarts the
// background drain if a backlog remains.
func (c *Cleaner) SetDriven(on bool) {
	c.mu.Lock()
	c.driven = on
	if on {
		for c.running || c.totalInflight() > 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
		return
	}
	spawn := len(c.queue) > 0 && !c.running
	if spawn {
		c.running = true
	}
	c.mu.Unlock()
	if spawn {
		go c.drainLoop()
	}
}

// totalInflight sums in-flight scrubs across size classes. Called with
// mu held.
func (c *Cleaner) totalInflight() int {
	n := 0
	for _, v := range c.inflight {
		n += v
	}
	return n
}

// Pending reports dirty shells waiting on the queue.
func (c *Cleaner) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// Cycles reports the virtual cleaner core's clock: the virtual time at
// which the dedicated core last went idle (virtual mode only).
func (c *Cleaner) Cycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vclk.Now()
}

// BusyCycles reports the total zeroing work the dedicated virtual core
// performed — the cost Wasp+CA moved off every request path.
func (c *Cleaner) BusyCycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vbusy
}

// VirtualDrains reports the shells scrubbed by the virtual cleaner core
// specifically (Cleaned also counts host-lane scrubs).
func (c *Cleaner) VirtualDrains() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vdrained
}

// Enqueued reports shells ever handed to the cleaner by release.
func (c *Cleaner) Enqueued() uint64 { return c.enqueued.Load() }

// Cleaned reports shells scrubbed off the release path, on any lane.
func (c *Cleaner) Cleaned() uint64 { return c.cleaned.Load() }

// InlineReclaims reports pool-miss acquisitions served by scrubbing a
// queued shell on the spot instead of paying a cold create.
func (c *Cleaner) InlineReclaims() uint64 { return c.inline.Load() }

// Dropped reports shells discarded to the host: backlog overflow at
// enqueue, or a full size class at park time.
func (c *Cleaner) Dropped() uint64 { return c.dropped.Load() }
