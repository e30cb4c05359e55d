// Package cycles provides the deterministic virtual cycle clock that
// underpins every measurement in this repository, together with the
// calibrated cost table that stands in for the hardware the paper measured.
//
// The paper measures everything in cycles with rdtsc on "tinker", an AMD
// EPYC 7281 at 2.69 GHz. We reproduce that methodology with a virtual
// clock: every simulated operation (instruction retired, memory reference,
// VM entry, ring transition, page-table walk, snapshot copy) advances the
// clock by a cost drawn from the table in costs.go. Experiments therefore
// report cycle counts that are deterministic, reproducible, and — because
// the costs are calibrated against the paper's own measurements — directly
// comparable in shape to the published figures.
package cycles

// Frequency is the virtual TSC frequency in Hz, matching tinker's
// AMD EPYC 7281 at 2.69 GHz (paper §4.1).
const Frequency = 2_690_000_000

// Clock is a monotonically increasing virtual cycle counter. A Clock is
// owned by exactly one execution context (a VM run, a native baseline run,
// or an event-driven simulation); it is deliberately not safe for
// concurrent use, mirroring the per-core TSC it models.
type Clock struct {
	now uint64
}

// NewClock returns a clock starting at cycle 0.
func NewClock() *Clock { return &Clock{} }

// Now returns the current cycle count.
func (c *Clock) Now() uint64 { return c.now }

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n uint64) { c.now += n }

// AdvanceTo moves the clock forward to absolute cycle t. It is a no-op if
// t is in the past; virtual time never runs backwards.
func (c *Clock) AdvanceTo(t uint64) {
	if t > c.now {
		c.now = t
	}
}

// Reset rewinds the clock to zero. Only harnesses should call this,
// between independent trials.
func (c *Clock) Reset() { c.now = 0 }

// Micros converts a cycle count to microseconds at the virtual frequency.
func Micros(cycles uint64) float64 {
	return float64(cycles) / (Frequency / 1e6)
}

// Millis converts a cycle count to milliseconds at the virtual frequency.
func Millis(cycles uint64) float64 {
	return float64(cycles) / (Frequency / 1e3)
}
