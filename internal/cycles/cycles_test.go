package cycles

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(100)
	c.Advance(23)
	if got := c.Now(); got != 123 {
		t.Fatalf("Now() = %d, want 123", got)
	}
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.Advance(50)
	c.AdvanceTo(40) // must not go backwards
	if got := c.Now(); got != 50 {
		t.Fatalf("AdvanceTo past: Now() = %d, want 50", got)
	}
	c.AdvanceTo(70)
	if got := c.Now(); got != 70 {
		t.Fatalf("AdvanceTo future: Now() = %d, want 70", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	// Property: any sequence of Advance/AdvanceTo never decreases Now.
	f := func(steps []uint32) bool {
		c := NewClock()
		prev := uint64(0)
		for i, s := range steps {
			if i%2 == 0 {
				c.Advance(uint64(s % 1000))
			} else {
				c.AdvanceTo(uint64(s))
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMicrosConversionRoundTrip(t *testing.T) {
	// 2690 cycles at 2.69 GHz is exactly 1 µs.
	if got := Micros(2690); got != 1.0 {
		t.Fatalf("Micros(2690) = %v, want 1.0", got)
	}
	if got := FromMicros(1.0); got != 2690 {
		t.Fatalf("FromMicros(1.0) = %v, want 2690", got)
	}
	if got := Millis(2_690_000); got != 1.0 {
		t.Fatalf("Millis(2.69M) = %v, want 1.0", got)
	}
	if got := FromNanos(1000); got != 2690 {
		t.Fatalf("FromNanos(1000) = %v, want 2690", got)
	}
}

func TestMemcpyCostMatchesBandwidth(t *testing.T) {
	// 16 MB at ~6.7 GB/s should take ≈2.3-2.5 ms (paper Fig 12: 2.3 ms).
	c := MemcpyCost(16 << 20)
	ms := Millis(c)
	if ms < 2.0 || ms > 2.8 {
		t.Fatalf("16MB copy = %.2f ms, want ≈2.3 ms", ms)
	}
	if MemcpyCost(0) != 0 {
		t.Fatal("zero-byte copy should be free")
	}
	if MemcpyCost(-5) != 0 {
		t.Fatal("negative length should be free")
	}
}

func TestMemcpyCostMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return MemcpyCost(x) <= MemcpyCost(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseDeterministic(t *testing.T) {
	a, b := NewNoise(42), NewNoise(42)
	for i := 0; i < 100; i++ {
		if x, y := a.Jitter(10000), b.Jitter(10000); x != y {
			t.Fatalf("same seed diverged at i=%d: %d vs %d", i, x, y)
		}
	}
}

func TestNoiseSeedsDiffer(t *testing.T) {
	a, b := NewNoise(1), NewNoise(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Jitter(100000) == b.Jitter(100000) {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("different seeds produced %d/100 identical samples", same)
	}
}

func TestNoiseJitterBounds(t *testing.T) {
	n := NewNoise(7)
	for i := 0; i < 10000; i++ {
		v := n.Jitter(1000)
		if v < 500 {
			t.Fatalf("jitter deflated below half: %d", v)
		}
		if v > 1000*20 {
			t.Fatalf("jitter exploded: %d", v)
		}
	}
}

func TestNoiseZeroBase(t *testing.T) {
	n := NewNoise(1)
	if n.Jitter(0) != 0 {
		t.Fatal("Jitter(0) must be 0")
	}
	var nilNoise *Noise
	if nilNoise.Jitter(55) != 55 {
		t.Fatal("nil noise must be identity")
	}
}

func TestNoiseProducesOutliers(t *testing.T) {
	n := NewNoise(3)
	outliers := 0
	for i := 0; i < 20000; i++ {
		if n.Jitter(1000) > 2000 {
			outliers++
		}
	}
	if outliers == 0 {
		t.Fatal("expected occasional scheduling-event outliers, saw none")
	}
	if outliers > 2000 {
		t.Fatalf("too many outliers: %d/20000", outliers)
	}
}

func TestNoiseUint64n(t *testing.T) {
	n := NewNoise(9)
	if n.Uint64n(0) != 0 {
		t.Fatal("Uint64n(0) must be 0")
	}
	for i := 0; i < 1000; i++ {
		if v := n.Uint64n(17); v >= 17 {
			t.Fatalf("Uint64n(17) = %d out of range", v)
		}
	}
}

// FromMicros converts microseconds to cycles at the virtual frequency.
func FromMicros(us float64) uint64 {
	return uint64(us * (Frequency / 1e6))
}

// FromNanos converts nanoseconds to cycles at the virtual frequency.
func FromNanos(ns float64) uint64 {
	return uint64(ns * (Frequency / 1e9))
}

// Uint64n returns a deterministic value in [0, n).
func (n *Noise) Uint64n(bound uint64) uint64 {
	if bound == 0 {
		return 0
	}
	return uint64(n.rng.Int63n(int64(bound)))
}
