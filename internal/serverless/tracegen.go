package serverless

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cycles"
	"repro/internal/sched"
	"repro/internal/wasp"
)

// Trace-driven workload generators for the cluster-scale simulation:
// seeded Poisson arrivals, diurnal rate curves, heavy-tailed service
// times, and flash crowds, beyond the fixed mixes of the earlier
// experiments.
//
// Seed contract (see internal/sched/README.md): every generator is a
// pure function of its arguments — one splitmix64 stream per call,
// consumed in a fixed order (arrival gap, then service draw, per
// ticket), no global state, no wall clock. Same seed, same trace, bit
// for bit; distinct seeds (or the documented per-image seed offsets in
// ClusterMix) give independent streams. Generated requests are Fn
// tasks that advance the serving worker's clock by the drawn service
// cost, tagged with the image name, so million-ticket traces cost the
// host almost nothing beyond the dispatch decisions under test.

// TraceRNG is a splitmix64 PRNG: tiny, fast, and fully determined by
// its seed. It is deliberately not math/rand — the generator's output
// must be stable across Go versions for committed bench baselines.
type TraceRNG struct {
	state uint64
}

// NewTraceRNG seeds a stream.
func NewTraceRNG(seed uint64) *TraceRNG { return &TraceRNG{state: seed} }

// Uint64 returns the next raw draw.
func (r *TraceRNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *TraceRNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponential draw with the given mean, by inverse CDF.
func (r *TraceRNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) * mean
}

// ServiceProfile draws per-ticket service costs. Base is the minimum
// (and scale) cost in cycles. With TailAlpha > 0 the draw is a bounded
// Pareto(Base, TailAlpha) capped at TailCap — the heavy tail that makes
// p99 provisioning interesting; otherwise the cost is uniform in
// [Base, Base×(1+Spread)].
type ServiceProfile struct {
	Base      uint64
	Spread    float64
	TailAlpha float64
	TailCap   uint64
}

// Draw consumes exactly one rng draw and returns the service cost.
func (p ServiceProfile) Draw(rng *TraceRNG) uint64 {
	if p.TailAlpha > 0 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		v := float64(p.Base) * math.Pow(u, -1/p.TailAlpha)
		if lim := float64(p.TailCap); lim > 0 && v > lim {
			v = lim
		}
		return uint64(v)
	}
	return p.Base + uint64(float64(p.Base)*p.Spread*rng.Float64())
}

// fnRequest builds the standard simulated request: an Fn task that
// advances the worker clock by cost, tagged with the image identity.
func fnRequest(image string, arrival, cost uint64) sched.Request {
	return sched.Request{
		Arrival: arrival,
		Image:   image,
		Fn: func(clk *cycles.Clock) (*wasp.Result, error) {
			clk.Advance(cost)
			return nil, nil
		},
	}
}

// PoissonTrace generates image arrivals as a Poisson process at
// ratePerSec over horizon cycles: independent exponential inter-arrival
// gaps, one service draw per ticket.
func PoissonTrace(seed uint64, image string, ratePerSec float64, horizon uint64, svc ServiceProfile) []sched.Request {
	rng := NewTraceRNG(seed)
	meanGap := float64(cycles.Frequency) / ratePerSec
	var reqs []sched.Request
	at := uint64(rng.Exp(meanGap))
	for at < horizon {
		reqs = append(reqs, fnRequest(image, at, svc.Draw(rng)))
		at += uint64(rng.Exp(meanGap)) + 1
	}
	return reqs
}

// DiurnalTrace generates a Poisson process whose rate follows a daily
// curve compressed into the horizon: rate(t) = base + amp ×
// (1+sin(2πt/period))/2, sampled by thinning against the peak rate —
// the standard way to draw a non-homogeneous Poisson process without
// changing the gap distribution's seed contract. Each candidate
// arrival consumes two draws (gap, thinning), plus one more when
// accepted (service).
func DiurnalTrace(seed uint64, image string, baseRate, ampRate float64, period, horizon uint64, svc ServiceProfile) []sched.Request {
	rng := NewTraceRNG(seed)
	peak := baseRate + ampRate
	meanGap := float64(cycles.Frequency) / peak
	var reqs []sched.Request
	at := uint64(rng.Exp(meanGap))
	for at < horizon {
		phase := 2 * math.Pi * float64(at%period) / float64(period)
		rate := baseRate + ampRate*(1+math.Sin(phase))/2
		if rng.Float64() < rate/peak {
			reqs = append(reqs, fnRequest(image, at, svc.Draw(rng)))
		}
		at += uint64(rng.Exp(meanGap)) + 1
	}
	return reqs
}

// FlashCrowdTrace generates a sparse Poisson background plus `crowds`
// evenly spaced flash crowds: at each crowd, burstSize arrivals land
// within a window one-tenth of the crowd spacing, uniformly — the
// workload autoscalers fail on when they only track averages.
func FlashCrowdTrace(seed uint64, image string, baseRate float64, crowds, burstSize int, horizon uint64, svc ServiceProfile) []sched.Request {
	rng := NewTraceRNG(seed)
	reqs := PoissonTrace(rng.Uint64(), image, baseRate, horizon, svc)
	if crowds < 1 {
		crowds = 1
	}
	spacing := horizon / uint64(crowds+1)
	window := spacing / 10
	if window == 0 {
		window = 1
	}
	for c := 1; c <= crowds; c++ {
		start := spacing * uint64(c)
		for i := 0; i < burstSize; i++ {
			at := start + uint64(float64(window)*rng.Float64())
			reqs = append(reqs, fnRequest(image, at, svc.Draw(rng)))
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs
}

// ClusterMix composes the standard cluster workload the frontier bench
// sweeps: a steady Poisson API tier, a diurnal web tier, a heavy-tailed
// batch tier, and a flash-crowd spike tier, with per-image seed offsets
// off the caller's seed (seed+1 … seed+4 — part of the seed contract).
// scale multiplies every tier's arrival rate; horizon is the trace
// length in cycles. The result is arrival-sorted (stable, so equal
// arrivals keep tier order).
func ClusterMix(seed uint64, scale float64, horizon uint64) []sched.Request {
	const F = uint64(cycles.Frequency)
	var reqs []sched.Request
	reqs = append(reqs, PoissonTrace(seed+1, "api", 120*scale, horizon,
		ServiceProfile{Base: F / 500, Spread: 0.5})...) // ~2-3 ms
	reqs = append(reqs, DiurnalTrace(seed+2, "web", 30*scale, 90*scale, horizon/2, horizon,
		ServiceProfile{Base: F / 200, Spread: 1.0})...) // ~5-10 ms, two "days"
	reqs = append(reqs, PoissonTrace(seed+3, "batch", 6*scale, horizon,
		ServiceProfile{Base: F / 100, TailAlpha: 1.3, TailCap: F / 4})...) // 10 ms, Pareto tail to 250 ms
	reqs = append(reqs, FlashCrowdTrace(seed+4, "spike", 4*scale, 3, int(160*scale), horizon,
		ServiceProfile{Base: F / 400, Spread: 0.3})...) // 3 crowds
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs
}

// UniformTrace generates exactly n tickets at a fixed arrival cadence
// with one service draw each — the dense, regular load the scaling and
// batch rows use, where the variable under test is the dispatch core,
// not the workload shape.
func UniformTrace(seed uint64, image string, n int, gap uint64, svc ServiceProfile) []sched.Request {
	rng := NewTraceRNG(seed)
	reqs := make([]sched.Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, fnRequest(image, uint64(i)*gap, svc.Draw(rng)))
	}
	return reqs
}

// TraceImages summarizes a trace: per-image ticket counts, in first
// appearance order — a cheap fingerprint for tests and tables.
func TraceImages(reqs []sched.Request) string {
	counts := map[string]int{}
	var names []string
	for _, r := range reqs {
		if counts[r.Image] == 0 {
			names = append(names, r.Image)
		}
		counts[r.Image]++
	}
	out := ""
	for i, n := range names {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", n, counts[n])
	}
	return out
}
