// Package stats implements the statistical reductions the paper applies to
// its measurements: arithmetic mean, standard deviation, harmonic mean
// (used for throughput in Fig 13), percentiles, minima (Table 1 reports
// per-component minima), and Tukey's outlier filter (§4.2 footnote 3).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (n-1 denominator),
// or 0 when fewer than two samples are present.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// HarmonicMean returns the harmonic mean of xs. The paper reports the
// harmonic mean of throughput in Fig 13. Non-positive samples are invalid
// and cause a zero return.
func HarmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var recip float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		recip += 1 / x
	}
	return float64(len(xs)) / recip
}

// Min returns the minimum of xs, or 0 for an empty slice. Table 1 reports
// the minimum latency observed per boot component.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It copies and sorts its input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

func percentileSorted(s []float64, p float64) float64 {
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TukeyFilter removes outliers exactly as the paper does: samples outside
// [Q1 - 1.5·IQR, Q3 + 1.5·IQR] are dropped. It returns the surviving
// samples (in their original order) and the number removed.
func TukeyFilter(xs []float64) (kept []float64, removed int) {
	if len(xs) < 4 {
		return append([]float64(nil), xs...), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1 := percentileSorted(s, 25)
	q3 := percentileSorted(s, 75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	kept = make([]float64, 0, len(xs))
	for _, x := range xs {
		if x < lo || x > hi {
			removed++
			continue
		}
		kept = append(kept, x)
	}
	return kept, removed
}

// Summary holds the reductions reported for one measured series.
type Summary struct {
	N        int
	Mean     float64
	StdDev   float64
	Min      float64
	Max      float64
	P50      float64
	P99      float64
	Outliers int // removed by Tukey filtering before the other reductions
}

// Summarize applies the paper's methodology to a series: Tukey-filter,
// then reduce. The unfiltered extremes are preserved in Min/Max of the
// filtered data (the paper's plots show filtered data).
func Summarize(xs []float64) Summary {
	kept, removed := TukeyFilter(xs)
	return Summary{
		N:        len(kept),
		Mean:     Mean(kept),
		StdDev:   StdDev(kept),
		Min:      Min(kept),
		Max:      Max(kept),
		P50:      Percentile(kept, 50),
		P99:      Percentile(kept, 99),
		Outliers: removed,
	}
}

// String renders a Summary as a compact row.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f sd=%.1f min=%.1f p50=%.1f p99=%.1f max=%.1f outliers=%d",
		s.N, s.Mean, s.StdDev, s.Min, s.P50, s.P99, s.Max, s.Outliers)
}

// EWMA folds one sample into an exponentially weighted moving average
// with a 1/8 smoothing factor (the TCP RTT estimator's classic alpha);
// a zero prev seeds the average with the sample. The scheduler's
// admission strides, per-image service telemetry and per-backend
// service times share this so their smoothing can never silently
// diverge.
func EWMA(prev, sample uint64) uint64 {
	if prev == 0 {
		return sample
	}
	return (7*prev + sample) / 8
}

// Jain returns Jain's fairness index (Σx)²/(n·Σx²) over the per-tenant
// allocation metric xs: 1.0 when every tenant receives an equal value,
// approaching 1/n as one tenant captures everything. Tenants absent
// from the allocation contribute x=0. Returns 0 for an empty or
// all-zero input.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// FromUint64 converts a []uint64 cycle series to float64 for reduction.
func FromUint64(xs []uint64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
