package cycles

import "math/rand"

// Noise is a seeded source of measurement jitter. The paper's measurements
// carry variance from host-kernel scheduling, the network stack, and
// microarchitectural state; experiments remove extreme outliers with
// Tukey's method (§4.2 footnote 3). We reproduce that structure with a
// deterministic log-normal-ish jitter plus rare large outliers, so that the
// published filtering step has something real to do.
type Noise struct {
	rng *rand.Rand
	// Rel is the relative standard deviation of the common-case jitter
	// (e.g. 0.03 for ±3%).
	Rel float64
	// OutlierP is the probability of a scheduling-event outlier.
	OutlierP float64
	// OutlierMul scales an outlier (e.g. 4 → roughly 4× the base cost).
	OutlierMul float64
}

// NewNoise returns a deterministic noise source with the given seed and
// a 3% relative jitter with 1-in-200 outliers of ~4x, which matches the
// variance structure visible in the paper's error bars.
func NewNoise(seed int64) *Noise {
	return &Noise{
		rng:        rand.New(rand.NewSource(seed)),
		Rel:        0.03,
		OutlierP:   0.005,
		OutlierMul: 4,
	}
}

// Jitter returns base perturbed by the configured noise. The result is
// always at least 1 if base is nonzero, and never less than half of base;
// measurement noise inflates latencies far more often than it deflates
// them, so the distribution is right-skewed.
func (n *Noise) Jitter(base uint64) uint64 {
	if n == nil || base == 0 {
		return base
	}
	if n.OutlierP > 0 && n.rng.Float64() < n.OutlierP {
		return uint64(float64(base) * (1 + n.OutlierMul*n.rng.Float64()))
	}
	// Right-skewed: |gaussian| added, small gaussian subtracted.
	g := n.rng.NormFloat64() * n.Rel
	if g < 0 {
		g = g / 3 // deflation happens, but mildly
	}
	v := float64(base) * (1 + g)
	if v < float64(base)/2 {
		v = float64(base) / 2
	}
	if v < 1 {
		v = 1
	}
	return uint64(v)
}
