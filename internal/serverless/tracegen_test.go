package serverless

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

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

	p1 := poissonTrace(7, 100, F, svc)
	p2 := poissonTrace(7, 100, F, svc)
	if len(p1) == 0 || len(p1) != len(p2) {
		t.Fatalf("poisson reproducibility: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].at != p2[i].at {
			t.Fatalf("poisson arrival %d diverged", i)
		}
	}
}

// Poisson arrivals land near the requested rate, and the heavy-tail
// service profile actually produces a tail.
func TestTraceGeneratorShapes(t *testing.T) {
	const F = uint64(cycles.Frequency)
	reqs := poissonTrace(1, 200, 4*F, ServiceProfile{Base: 1000})
	got := float64(len(reqs)) / 4
	if got < 150 || got > 250 {
		t.Fatalf("poisson rate 200/s came out at %.0f/s", got)
	}

	tail := poissonTrace(2, 500, 2*F, ServiceProfile{Base: 1000, TailAlpha: 1.2, TailCap: 1_000_000})
	over := 0
	for _, r := range tail {
		if r.cost >= 10_000 {
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
	d := diurnalTrace(3, 20, 200, 2*F, 2*F, ServiceProfile{Base: 1000})
	var first, second int
	for _, r := range d {
		if r.at < F {
			first++
		} else {
			second++
		}
	}
	if first == 0 || second == 0 || first == second {
		t.Fatalf("diurnal halves should differ: %d vs %d", first, second)
	}

	// Flash crowd: a crowd window must be far denser than the background.
	fc := flashCrowdTrace(4, 2, 1, 500, 2*F, ServiceProfile{Base: 1000})
	if len(fc) < 500 {
		t.Fatalf("flash crowd lost arrivals: %d", len(fc))
	}
	for i := 1; i < len(fc); i++ {
		if fc[i].at < fc[i-1].at {
			t.Fatalf("trace must be arrival-sorted at %d", i)
		}
	}

	// Every tier's rate is zero at scale 0: nothing is drawn.
	if n := len(ClusterMix(1, 0, 2*F)); n != 0 {
		t.Fatalf("scale 0 drew %d requests", n)
	}
}

// clusterTiers is ClusterMix's four tiers and their image names as its
// generators return them, before the merge: the reference side of
// TestClusterMixMatchesStableSort.
func clusterTiers(seed uint64, scale float64, horizon uint64) ([]string, [][]arrival) {
	const F = uint64(cycles.Frequency)
	return []string{"api", "web", "batch", "spike"}, [][]arrival{
		poissonTrace(seed+1, 120*scale, horizon, ServiceProfile{Base: F / 500, Spread: 0.5}),
		diurnalTrace(seed+2, 30*scale, 90*scale, horizon/2, horizon, ServiceProfile{Base: F / 200, Spread: 1.0}),
		poissonTrace(seed+3, 6*scale, horizon, ServiceProfile{Base: F / 100, TailAlpha: 1.3, TailCap: F / 4}),
		flashCrowdTrace(seed+4, 4*scale, 3, int(160*scale), horizon, ServiceProfile{Base: F / 400, Spread: 0.3}),
	}
}

// stableSortReference concatenates the tiers, naming tier i's requests
// images[i], and stable-sorts them by arrival: the order ClusterMix's
// merge must reproduce.
func stableSortReference(images []string, tiers [][]arrival) []sched.Request {
	var reqs []sched.Request
	for i, tier := range tiers {
		for _, a := range tier {
			reqs = append(reqs, sched.Request{Arrival: a.at, Image: images[i], Cost: a.cost})
		}
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

// collidingTiers builds four arrival-sorted tiers and their image names,
// with arrivals drawn from ten values, so nearly every request ties with
// requests of the other tiers; each request's service draw names its
// tier and index.
func collidingTiers() ([]string, [][]arrival) {
	rng := NewTraceRNG(9)
	var images []string
	var tiers [][]arrival
	for tier := 0; tier < 4; tier++ {
		recs := make([]arrival, 50+tier*7)
		for i := range recs {
			recs[i] = arrival{at: rng.Uint64() % 10, cost: uint64(tier*1000 + i)}
		}
		slices.SortStableFunc(recs, byArrival)
		images = append(images, fmt.Sprint("tier", tier))
		tiers = append(tiers, recs)
	}
	return images, tiers
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
	images, tiers := collidingTiers()
	want := stableSortReference(images, tiers)
	sameTrace(t, "colliding tiers", mergeByArrival(images, tiers...), want)
}

// TestFlashCrowdMergeMatchesStableSort: the flash-crowd tier merges its
// sorted bursts into its background exactly as a stable sort of the
// background followed by the bursts orders them. The reference draws as
// the generator does (the background's seed, then each crowd's bursts in
// order), on crowds 100 cycles apart with a 10-cycle window and a
// background arrival every ~2 cycles, so bursts tie with each other and
// with the background.
func TestFlashCrowdMergeMatchesStableSort(t *testing.T) {
	const horizon, crowds, burst, spacing, window = 400, 3, 8, 100, 10
	svc := ServiceProfile{Base: 1000, Spread: 1}
	rate := float64(cycles.Frequency) / 2
	ties := 0
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewTraceRNG(seed)
		want := poissonTrace(rng.Uint64(), rate, horizon, svc)
		background := map[uint64]bool{}
		for _, a := range want {
			background[a.at] = true
		}
		for c := uint64(1); c <= crowds; c++ {
			for i := 0; i < burst; i++ {
				a := arrival{c*spacing + uint64(window*rng.Float64()), svc.Draw(rng)}
				if background[a.at] {
					ties++
				}
				want = append(want, a)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if got := flashCrowdTrace(seed, rate, crowds, burst, horizon, svc); !slices.Equal(got, want) {
			t.Fatalf("seed %d: flash crowd %v, reference %v", seed, got, want)
		}
	}
	if ties == 0 {
		t.Fatal("no burst tied with a background arrival: the case under test never arose")
	}
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
	images, tiers := collidingTiers()
	if got, want := traceDigest(mergeByArrival(images, tiers...)), uint64(0x7a9fc9bb85da70a7); got != want {
		t.Errorf("colliding tiers: digest %#x, want %#x", got, want)
	}
}

// TestClusterMixScheduleFree builds TestClusterMixDigest's trace at
// GOMAXPROCS 1, where ClusterMix's tiers are drawn one after another,
// and at the default, where they are drawn side by side, and requires
// the same pins both times: no schedule may change a draw or an order.
func TestClusterMixScheduleFree(t *testing.T) {
	const F = uint64(cycles.Frequency)
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		reqs := ClusterMix(1, 60, 24*F)
		runtime.GOMAXPROCS(prev)
		if n, got, want := len(reqs), traceDigest(reqs), uint64(0x4f7297f7a82ba179); n != 324149 || got != want {
			t.Errorf("seed 1 at GOMAXPROCS %d: %d requests, digest %#x; want 324149, %#x", procs, n, got, want)
		}
	}
}

// TestClusterMixAllocs: building the cluster_sim workload's trace (seed
// 1, scale 60, 24 virtual seconds) allocates at most 1.25× the trace it
// returns, in at most 32 objects. The tiers are pointer-free records
// sized to their expected draws, and the merge writes each request once
// into one exactly sized slice; a generator that grows []sched.Request,
// or a merge that copies the trace, fails here. ReadMemStats counts the
// whole process, so the tier goroutines' allocations are counted with
// the caller's, and so are their goroutines, closures and WaitGroup;
// no other test runs meanwhile.
func TestClusterMixAllocs(t *testing.T) {
	const F = uint64(cycles.Frequency)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reqs := ClusterMix(1, 60, 24*F)
	runtime.ReadMemStats(&after)
	out := float64(uintptr(len(reqs)) * unsafe.Sizeof(sched.Request{}))
	ratio, objs := float64(after.TotalAlloc-before.TotalAlloc)/out, after.Mallocs-before.Mallocs
	t.Logf("%d requests: %.2fx the trace's %.1f MB, %d objects", len(reqs), ratio, out/1e6, objs)
	if ratio > 1.25 || objs > 32 {
		t.Fatalf("ClusterMix allocates %.2fx its output in %d objects; want at most 1.25x and 32", ratio, objs)
	}
}
