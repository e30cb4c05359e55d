package serverless

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cycles"
	"repro/internal/sched"
)

// The seed contract: same seed, same trace, bit for bit; different
// seeds, different traces.
func TestTraceGeneratorSeedContract(t *testing.T) {
	const F = uint64(cycles.Frequency)
	svc := ServiceProfile{Base: F / 500, Spread: 0.5}
	type key struct {
		Arrival uint64
		Image   string
	}
	project := func(seed uint64) []key {
		reqs := ClusterMix(seed, 0.5, F)
		out := make([]key, len(reqs))
		for i, r := range reqs {
			out[i] = key{r.Arrival, r.Image}
		}
		return out
	}
	a, b := project(42), project(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must reproduce the trace bit for bit")
	}
	if c := project(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds must give different traces")
	}

	p1 := PoissonTrace(7, "img", 100, F, svc)
	p2 := PoissonTrace(7, "img", 100, F, svc)
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("poisson reproducibility: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Arrival != p2[i].Arrival {
			t.Fatalf("poisson arrival %d diverged", i)
		}
	}
}

// Poisson arrivals land near the requested rate, and the heavy-tail
// service profile actually produces a tail.
func TestTraceGeneratorShapes(t *testing.T) {
	const F = uint64(cycles.Frequency)
	reqs := PoissonTrace(1, "img", 200, 4*F, ServiceProfile{Base: 1000})
	got := float64(len(reqs)) / 4
	if got < 150 || got > 250 {
		t.Fatalf("poisson rate 200/s came out at %.0f/s", got)
	}

	tail := PoissonTrace(2, "img", 500, 2*F, ServiceProfile{Base: 1000, TailAlpha: 1.2, TailCap: 1_000_000})
	over := 0
	for _, r := range tail {
		if r.Cost >= 10_000 {
			over++
		}
	}
	if over == 0 {
		t.Fatal("pareto tail produced no draws >= 10x the base")
	}
	if over > len(tail)/2 {
		t.Fatalf("pareto tail too fat: %d of %d over 10x", over, len(tail))
	}

	// Diurnal: the busy half of the curve must carry more arrivals than
	// the quiet half.
	d := DiurnalTrace(3, "web", 20, 200, 2*F, 2*F, ServiceProfile{Base: 1000})
	var first, second int
	for _, r := range d {
		if r.Arrival < F {
			first++
		} else {
			second++
		}
	}
	if first == 0 || second == 0 || first == second {
		t.Fatalf("diurnal halves should differ: %d vs %d", first, second)
	}

	// Flash crowd: a crowd window must be far denser than the background.
	fc := FlashCrowdTrace(4, "spike", 2, 1, 500, 2*F, ServiceProfile{Base: 1000})
	if len(fc) < 500 {
		t.Fatalf("flash crowd lost arrivals: %d", len(fc))
	}
	for i := 1; i < len(fc); i++ {
		if fc[i].Arrival < fc[i-1].Arrival {
			t.Fatalf("trace must be arrival-sorted at %d", i)
		}
	}
}

// clusterTiers is ClusterMix's four tiers as its generators return them,
// before the merge: the reference side of TestClusterMixMatchesStableSort.
func clusterTiers(seed uint64, scale float64, horizon uint64) [][]sched.Request {
	const F = uint64(cycles.Frequency)
	return [][]sched.Request{
		PoissonTrace(seed+1, "api", 120*scale, horizon, ServiceProfile{Base: F / 500, Spread: 0.5}),
		DiurnalTrace(seed+2, "web", 30*scale, 90*scale, horizon/2, horizon, ServiceProfile{Base: F / 200, Spread: 1.0}),
		PoissonTrace(seed+3, "batch", 6*scale, horizon, ServiceProfile{Base: F / 100, TailAlpha: 1.3, TailCap: F / 4}),
		FlashCrowdTrace(seed+4, "spike", 4*scale, 3, int(160*scale), horizon, ServiceProfile{Base: F / 400, Spread: 0.3}),
	}
}

// stableSortReference concatenates the tiers and stable-sorts them by
// arrival: the order ClusterMix's merge must reproduce.
func stableSortReference(tiers [][]sched.Request) []sched.Request {
	var reqs []sched.Request
	for _, tier := range tiers {
		reqs = append(reqs, tier...)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs
}

func sameTrace(t *testing.T, what string, got, want []sched.Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d requests, reference %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Arrival != w.Arrival || g.Image != w.Image || g.Cost != w.Cost {
			t.Fatalf("%s: request %d is (%d, %s, %d), reference (%d, %s, %d)", what, i,
				g.Arrival, g.Image, g.Cost, w.Arrival, w.Image, w.Cost)
		}
	}
}

// collidingTiers builds four arrival-sorted tiers whose arrivals are
// drawn from ten values, so nearly every request ties with requests of
// the other tiers; each request's service draw names its tier and index.
func collidingTiers() [][]sched.Request {
	rng := NewTraceRNG(9)
	var tiers [][]sched.Request
	for tier := 0; tier < 4; tier++ {
		reqs := make([]sched.Request, 50+tier*7)
		for i := range reqs {
			reqs[i] = sched.Request{Arrival: rng.Uint64() % 10, Image: fmt.Sprint("tier", tier), Cost: uint64(tier*1000 + i)}
		}
		sortByArrival(reqs)
		tiers = append(tiers, reqs)
	}
	return tiers
}

// traceDigest is an FNV-1a digest over every request's arrival, image
// and service draw, in trace order.
func traceDigest(reqs []sched.Request) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, r := range reqs {
		binary.LittleEndian.PutUint64(buf[:], r.Arrival)
		h.Write(buf[:])
		h.Write([]byte(r.Image))
		binary.LittleEndian.PutUint64(buf[:], r.Cost)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestClusterMixMatchesStableSort: ClusterMix's one-pass merge of its
// arrival-sorted tiers equals a stable sort of their concatenation —
// arrival, image and service draw at every position — for seeds 1–5 at
// the cluster_sim workload's scale, and on tiers built to collide.
func TestClusterMixMatchesStableSort(t *testing.T) {
	const F = uint64(cycles.Frequency)
	for seed := uint64(1); seed <= 5; seed++ {
		sameTrace(t, fmt.Sprintf("seed %d", seed), ClusterMix(seed, 60, 2*F), stableSortReference(clusterTiers(seed, 60, 2*F)))
	}
	tiers := collidingTiers()
	want := stableSortReference(tiers)
	sameTrace(t, "colliding tiers", mergeByArrival(tiers...), want)
}

// TestClusterMixDigest pins seed 1's cluster_sim trace (scale 60, 24
// virtual seconds) by traceDigest, recorded when ClusterMix still
// stable-sorted the concatenated tiers. That trace has no two equal
// arrivals, so the merge's tie order is pinned the same way on
// collidingTiers. A merge that reorders equal arrivals, or a generator
// that draws differently, fails here whatever the reference above says.
func TestClusterMixDigest(t *testing.T) {
	const F = uint64(cycles.Frequency)
	reqs := ClusterMix(1, 60, 24*F)
	if n, got, want := len(reqs), traceDigest(reqs), uint64(0x4f7297f7a82ba179); n != 324149 || got != want {
		t.Errorf("seed 1: %d requests, digest %#x; want 324149, %#x", n, got, want)
	}
	if got, want := traceDigest(mergeByArrival(collidingTiers()...)), uint64(0x7a9fc9bb85da70a7); got != want {
		t.Errorf("colliding tiers: digest %#x, want %#x", got, want)
	}
}
