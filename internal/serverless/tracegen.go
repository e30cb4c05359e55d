package serverless

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/cycles"
	"repro/internal/sched"
)

// Trace-driven workload generators for the cluster-scale simulation:
// seeded Poisson arrivals, diurnal rate curves, heavy-tailed service
// times, and flash crowds, beyond the fixed mixes of the earlier
// experiments.
//
// Seed contract (see internal/sched/README.md): every generator is a
// pure function of its arguments — one splitmix64 stream per tier,
// consumed in a fixed order (arrival gap, then service draw, per
// ticket), no global state, no wall clock. Same seed, same trace, bit
// for bit; distinct seeds (or the documented per-image seed offsets in
// ClusterMix) give independent streams. Tiers are drawn as pointer-free
// records sorted by arrival, and ClusterMix merges them into one exactly
// sized trace, writing each request once. Since no tier reads another's
// stream or records, ClusterMix draws its tiers concurrently, and the
// merge breaks ties by tier index, never by which tier finished first:
// the trace is the same at any GOMAXPROCS. Its requests are cost-model
// tickets (sched.Request.Cost: the drawn service cost, in cycles, tagged
// with the image name) that the serving worker's clock advances by with
// no call, so million-ticket traces cost the host almost nothing beyond
// the dispatch decisions under test.

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
// [Base, Base×(1+Spread)]. A draw is at least 1 cycle, since a
// cost-model ticket of cost 0 carries no work and is rejected; only a
// Base of 0 reaches that floor.
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
		return max(uint64(v), 1)
	}
	return max(p.Base+uint64(float64(p.Base)*p.Spread*rng.Float64()), 1)
}

// arrival is one drawn ticket before it is named: its arrival and its
// service cost, in cycles. A record holds no pointer, so drawing a tier
// writes 16 bytes a ticket with no write barrier and leaves nothing for
// the GC to scan; ClusterMix names each record once, in the trace.
type arrival struct{ at, cost uint64 }

func byArrival(a, b arrival) int { return cmp.Compare(a.at, b.at) }

// expectedRecords sizes a tier expected to draw mean records: mean plus
// four standard deviations, or nothing for a mean not positive or huge.
func expectedRecords(mean float64) int {
	if !(mean > 0 && mean < 1<<30) {
		return 0
	}
	return int(mean+4*math.Sqrt(mean)) + 1
}

// poissonTrace draws arrivals as a Poisson process at ratePerSec over
// horizon cycles: independent exponential inter-arrival gaps, one
// service draw per ticket.
func poissonTrace(seed uint64, ratePerSec float64, horizon uint64, svc ServiceProfile) []arrival {
	rng := NewTraceRNG(seed)
	meanGap := float64(cycles.Frequency) / ratePerSec
	recs := make([]arrival, 0, expectedRecords(float64(horizon)/meanGap))
	at := uint64(rng.Exp(meanGap))
	for at < horizon {
		recs = append(recs, arrival{at, svc.Draw(rng)})
		at += uint64(rng.Exp(meanGap)) + 1
	}
	return recs
}

// diurnalTrace draws a Poisson process whose rate follows a daily curve
// compressed into the horizon: rate(t) = base + amp ×
// (1+sin(2πt/period))/2, sampled by thinning against the peak rate —
// the standard way to draw a non-homogeneous Poisson process without
// changing the gap distribution's seed contract. Each candidate
// arrival consumes two draws (gap, thinning), plus one more when
// accepted (service).
func diurnalTrace(seed uint64, baseRate, ampRate float64, period, horizon uint64, svc ServiceProfile) []arrival {
	rng := NewTraceRNG(seed)
	peak := baseRate + ampRate
	meanGap := float64(cycles.Frequency) / peak
	recs := make([]arrival, 0, expectedRecords((baseRate+ampRate/2)*float64(horizon)/float64(cycles.Frequency)))
	at := uint64(rng.Exp(meanGap))
	for at < horizon {
		phase := 2 * math.Pi * float64(at%period) / float64(period)
		rate := baseRate + ampRate*(1+math.Sin(phase))/2
		if rng.Float64() < rate/peak {
			recs = append(recs, arrival{at, svc.Draw(rng)})
		}
		at += uint64(rng.Exp(meanGap)) + 1
	}
	return recs
}

// flashCrowdTrace draws a sparse Poisson background plus `crowds`
// evenly spaced flash crowds: at each crowd, burstSize arrivals land
// within a window one-tenth of the crowd spacing, uniformly — the
// workload autoscalers fail on when they only track averages. Only the
// bursts are sorted, then merged into the sorted background: equal
// arrivals keep background first and bursts in draw order, as a stable
// sort of the background followed by the bursts orders them.
func flashCrowdTrace(seed uint64, baseRate float64, crowds, burstSize int, horizon uint64, svc ServiceProfile) []arrival {
	rng := NewTraceRNG(seed)
	bg := poissonTrace(rng.Uint64(), baseRate, horizon, svc)
	crowds = max(crowds, 1)
	spacing := horizon / uint64(crowds+1)
	window := max(spacing/10, 1)
	bursts := make([]arrival, 0, crowds*max(burstSize, 0))
	for c := 1; c <= crowds; c++ {
		start := spacing * uint64(c)
		for i := 0; i < burstSize; i++ {
			at := start + uint64(float64(window)*rng.Float64())
			bursts = append(bursts, arrival{at, svc.Draw(rng)})
		}
	}
	slices.SortStableFunc(bursts, byArrival)
	recs := make([]arrival, 0, len(bg)+len(bursts))
	for len(bg) > 0 && len(bursts) > 0 {
		if bursts[0].at < bg[0].at {
			recs, bursts = append(recs, bursts[0]), bursts[1:]
		} else {
			recs, bg = append(recs, bg[0]), bg[1:]
		}
	}
	return append(append(recs, bg...), bursts...)
}

// sortByArrival stable-sorts a trace by arrival: equal arrivals keep
// their order in reqs.
func sortByArrival(reqs []sched.Request) {
	slices.SortStableFunc(reqs, func(a, b sched.Request) int { return cmp.Compare(a.Arrival, b.Arrival) })
}

// ClusterMix composes the standard cluster workload (TestClusterFrontier,
// the cluster_sim workload): a steady Poisson API tier, a diurnal web
// tier, a heavy-tailed batch tier, and a flash-crowd spike tier, with
// per-image seed offsets off the caller's seed (seed+1 … seed+4 — part
// of the seed contract).
// scale multiplies every tier's arrival rate; horizon is the trace
// length in cycles. The tiers are drawn side by side: the web and spike
// tiers, the two dearest, each on a goroutine of its own, while the
// caller draws the API tier and then the batch tier. Each tier reads
// only its own stream and writes only its own records, so no schedule
// can change a draw. Every tier comes out of its generator as records
// sorted by arrival, and one merge, on the caller, writes the result:
// equal arrivals keep tier order, exactly the order a stable sort of
// the concatenated tiers gives, at any GOMAXPROCS.
func ClusterMix(seed uint64, scale float64, horizon uint64) []sched.Request {
	const F = uint64(cycles.Frequency)
	var web, spike []arrival
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		web = diurnalTrace(seed+2, 30*scale, 90*scale, horizon/2, horizon,
			ServiceProfile{Base: F / 200, Spread: 1.0}) // ~5-10 ms, two "days"
	}()
	go func() {
		defer wg.Done()
		spike = flashCrowdTrace(seed+4, 4*scale, 3, int(160*scale), horizon,
			ServiceProfile{Base: F / 400, Spread: 0.3}) // 3 crowds
	}()
	api := poissonTrace(seed+1, 120*scale, horizon,
		ServiceProfile{Base: F / 500, Spread: 0.5}) // ~2-3 ms
	batch := poissonTrace(seed+3, 6*scale, horizon,
		ServiceProfile{Base: F / 100, TailAlpha: 1.3, TailCap: F / 4}) // 10 ms, Pareto tail to 250 ms
	wg.Wait()
	return mergeByArrival([]string{"api", "web", "batch", "spike"}, api, web, batch, spike)
}

// mergeByArrival merges arrival-sorted record tiers into one exactly
// sized trace, sorted by arrival with ties in tier order, naming tier
// i's requests images[i]. Each request is written once, in place.
func mergeByArrival(images []string, tiers ...[]arrival) []sched.Request {
	n := 0
	for _, t := range tiers {
		n += len(t)
	}
	out := make([]sched.Request, n)
	for i := range out {
		next := -1
		for j, t := range tiers {
			if len(t) > 0 && (next < 0 || t[0].at < tiers[next][0].at) {
				next = j
			}
		}
		r, a := &out[i], tiers[next][0]
		r.Arrival, r.Image, r.Cost = a.at, images[next], a.cost
		tiers[next] = tiers[next][1:]
	}
	return out
}
