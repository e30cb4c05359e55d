package wasp

import (
	"sync"
	"sync/atomic"

	"repro/internal/cycles"
	"repro/internal/obs"
)

// Cleaner is the Wasp+CA cleaner (§5.2, Fig 8), kept as a ledger. Under
// WithAsyncClean a release parks the dirty shell in its backend's pool
// exactly as under Wasp+C, and the next acquire resets its vCPU in both
// modes; populate's Rebase then rewrites every page that is dirty,
// unknown or differs from what the run needs, so no memory is zeroed
// ahead of it. The one difference left between the modes is where a
// reused shell's zeroing cost, cycles.ZeroCost of its memory, lands:
// Wasp+C charges it on the acquiring request's clock, Wasp+CA on a
// dedicated virtual cleaner core that no request waits for.
//
// That core is this ledger. While a driver owns it (SetDriven: the
// virtual-mode scheduler), every release is owed to the core, and DrainAt
// settles what is owed after each ticket: the core picks the shells up no
// earlier than the ticket's completion and pays their zeroing in its own
// virtual time (Cycles, BusyCycles). A shell acquired again before its
// release is settled is forgiven (InlineReclaims): its acquirer reset it.
// Undriven, nothing is owed: in real mode the zeroing is charged nowhere,
// as the paper's background thread rides idle cores. The runtime starts
// no goroutine for any of this.
type Cleaner struct {
	mu     sync.Mutex
	driven bool
	// gen names the current settlement period. A release owed to the core
	// carries it (shell.owedIn), so an acquire can tell an unsettled
	// release, which it forgives, from one the core already paid for.
	gen        uint64
	owed       int    // releases owed since the last settlement
	owedCycles uint64 // their summed zeroing cost

	// vnow is the virtual cleaner core's clock, the virtual time it last
	// went idle; vbusy sums only its zeroing work, vdrained its shells.
	vnow, vbusy, vdrained uint64

	// enqueued counts releases booked; cleaned, released shells an
	// acquire reset with no zeroing charged to the request.
	enqueued, cleaned, inline, dropped atomic.Uint64

	// tr records release and settlement events: the Wasp's tracer,
	// nil-safe when unset.
	tr *obs.Tracer
}

func newCleaner(tr *obs.Tracer) *Cleaner { return &Cleaner{gen: 1, tr: tr} }

// owe books one Wasp+CA release of s, made at virtual time at on the
// shell's clock: counted always, owed to the virtual core while driven.
func (c *Cleaner) owe(s *shell, memBytes int, at uint64) {
	c.enqueued.Add(1)
	c.mu.Lock()
	if c.driven {
		s.owedIn = c.gen
		c.owed++
		c.owedCycles += cycles.ZeroCost(memBytes)
	}
	owed := c.owed
	c.mu.Unlock()
	if tr := c.tr; tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindClean, "clean-enqueue", at, 0, uint64(memBytes), uint64(owed))
	}
}

// reacquired books a released shell an acquire has just reset off the
// request clock, forgiving its release if the core has not settled it.
func (c *Cleaner) reacquired(s *shell, memBytes int) {
	c.cleaned.Add(1)
	c.mu.Lock()
	forgive := s.owedIn == c.gen
	if forgive {
		c.owed--
		c.owedCycles -= cycles.ZeroCost(memBytes)
	}
	c.mu.Unlock()
	if forgive {
		c.inline.Add(1)
	}
}

// settleLocked empties the ledger and opens a new settlement period.
// Called with mu held.
func (c *Cleaner) settleLocked() {
	c.owed, c.owedCycles = 0, 0
	c.gen++
}

// DrainAt settles the ledger on the virtual cleaner core: the core picks
// the owed shells up no earlier than at and pays their summed zeroing
// cost in its own virtual time. The virtual-mode scheduler calls it with
// each serviced ticket's completion, so Wasp+CA cleaning is accounted
// deterministically rather than elided. It reports the shells settled.
func (c *Cleaner) DrainAt(at uint64) int {
	c.mu.Lock()
	n, cost := c.owed, c.owedCycles
	if n > 0 {
		c.vnow = max(c.vnow, at) + cost
		c.vbusy += cost
		c.vdrained += uint64(n)
		c.settleLocked()
	}
	done := c.vnow
	c.mu.Unlock()
	if tr := c.tr; n > 0 && tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindClean, "clean-settle", done, 0, uint64(n), cost)
	}
	return n
}

// Drain settles every owed release without charging the virtual core, so
// a harness can start a measured phase from an empty ledger, and reports
// how many it settled.
func (c *Cleaner) Drain() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.owed
	c.settleLocked()
	return n
}

// SetDriven hands the ledger to an external driver, the virtual-mode
// scheduler, or takes it back. While driven, releases are owed to the
// virtual core until DrainAt settles them; taking the ledger back forgives
// what is still owed, since undriven cleaning is charged nowhere.
func (c *Cleaner) SetDriven(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.driven = on
	if !on {
		c.settleLocked()
	}
}

// Cycles reports the virtual cleaner core's clock: the virtual time at
// which it last went idle (virtual mode only).
func (c *Cleaner) Cycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vnow
}

// BusyCycles reports the zeroing work the virtual cleaner core settled:
// the cost Wasp+CA moved off every request path.
func (c *Cleaner) BusyCycles() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vbusy
}

// VirtualDrains reports the releases the virtual cleaner core settled.
func (c *Cleaner) VirtualDrains() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.vdrained
}

// Enqueued reports every Wasp+CA release booked, driven or not.
func (c *Cleaner) Enqueued() uint64 { return c.enqueued.Load() }

// InlineReclaims reports owed releases forgiven because their shell was
// acquired again before the virtual core settled them (0 undriven).
func (c *Cleaner) InlineReclaims() uint64 { return c.inline.Load() }

// Dropped reports Wasp+CA releases dropped to the host at the size
// class's capacity bound (Wasp.PoolDropped counts Wasp+C's).
func (c *Cleaner) Dropped() uint64 { return c.dropped.Load() }
