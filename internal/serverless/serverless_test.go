package serverless

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/wasp"
)

func TestVespidServiceCost(t *testing.T) {
	w := wasp.New()
	v := NewVespid(w, 4)
	v.Register(&Function{Name: "b64", Payload: []byte("hello world payload")})
	// First call takes the snapshot; steady-state cost is what matters.
	if _, err := v.ServiceCycles("b64"); err != nil {
		t.Fatal(err)
	}
	c, err := v.ServiceCycles("b64")
	if err != nil {
		t.Fatal(err)
	}
	ms := cycles.Millis(c)
	// Vespid request: front end + snapshot-restored JS virtine — low
	// single-digit ms at most.
	if ms <= 0 || ms > 5 {
		t.Fatalf("vespid service = %.2f ms, want sub-5ms", ms)
	}
}

func TestVespidUnknownFunction(t *testing.T) {
	w := wasp.New()
	v := NewVespid(w, 4)
	if _, err := v.ServiceCycles("nope"); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestOpenWhiskColdVsWarm(t *testing.T) {
	o := NewOpenWhisk(4, 7)
	_, cold := o.invoke(0)
	_, warm := o.invoke(cold + 1000)
	if cold <= warm {
		t.Fatalf("cold (%d) should far exceed warm (%d)", cold, warm)
	}
	if cycles.Millis(cold) < 100 {
		t.Fatalf("cold start = %.1f ms, want hundreds of ms", cycles.Millis(cold))
	}
	if cycles.Millis(warm) > 120 {
		t.Fatalf("warm start = %.1f ms, too slow", cycles.Millis(warm))
	}
}

func TestOpenWhiskIdleReclaim(t *testing.T) {
	o := NewOpenWhisk(4, 7)
	_, cold1 := o.invoke(0)
	// After the idle timeout the container is reclaimed: cold again.
	far := cold1 + o.IdleTimeout + uint64(cycles.Frequency)
	_, cold2 := o.invoke(far)
	if cycles.Millis(cold2) < 100 {
		t.Fatalf("expected cold start after idle reclaim, got %.1f ms", cycles.Millis(cold2))
	}
}

func TestOpenWhiskQueuesAtCap(t *testing.T) {
	o := NewOpenWhisk(1, 7)
	s1, svc1 := o.invoke(0)
	s2, _ := o.invoke(1)
	if s2 < s1+svc1 {
		t.Fatal("second request should queue behind the single container")
	}
}

func TestDefaultPatternShape(t *testing.T) {
	p := DefaultPattern(100)
	if p.UsersAt(0) >= p.UsersAt(25) {
		t.Fatal("burst 1 should exceed ramp start")
	}
	if p.UsersAt(25) != 50 || p.UsersAt(65) != 50 {
		t.Fatal("bursts should hit 50 users")
	}
	if p.UsersAt(45) != 20 {
		t.Fatal("settle should be 20 users")
	}
	if p.UsersAt(99) >= 20 {
		t.Fatal("ramp down should fall below settle")
	}
	arr := p.Arrivals()
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals not monotone")
		}
	}
}

func TestFig15Shape(t *testing.T) {
	w := wasp.New()
	trace, err := RunFig15(w, DefaultPattern(12), 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 12 {
		t.Fatalf("trace buckets = %d", len(trace))
	}
	s := Summarize(trace)
	// Fig 15's structural claims: the virtine platform achieves much
	// lower latencies under bursty load than stock OpenWhisk, whose
	// cold starts dominate burst onsets.
	if s.VespidMeanP50 >= s.WhiskMeanP50 {
		t.Fatalf("vespid p50 %.2f ms should beat openwhisk %.2f ms", s.VespidMeanP50, s.WhiskMeanP50)
	}
	if s.VespidWorstP99 >= s.WhiskWorstP99 {
		t.Fatalf("vespid worst p99 %.2f ms should beat openwhisk %.2f ms", s.VespidWorstP99, s.WhiskWorstP99)
	}
	// OpenWhisk's worst p99 should show a cold-start spike (>100 ms).
	if s.WhiskWorstP99 < 100 {
		t.Fatalf("openwhisk p99 = %.1f ms, expected cold-start spike", s.WhiskWorstP99)
	}
	// Vespid stays in low milliseconds.
	if s.VespidMeanP50 > 10 {
		t.Fatalf("vespid mean p50 = %.2f ms, want low single digits", s.VespidMeanP50)
	}
	if s.VespidTotal == 0 || s.WhiskTotal == 0 {
		t.Fatal("no completions recorded")
	}
}

// pinRows logs a regenerated table and compares it row by row with its
// pinned rows. Every cell is virtual time, so the rows reproduce
// exactly on any host.
func pinRows(t *testing.T, got, want []string) {
	t.Helper()
	t.Logf("\n%s", strings.Join(got, "\n"))
	if len(got) != len(want) {
		t.Errorf("%d rows, %d pinned", len(got), len(want))
	}
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Errorf("row %d drifted from its pin:\n got  %q\n want %q", i, got[i], want[i])
		}
	}
}

// TestNoisyNeighborFairness: the admission layer's reason to exist.
// Under FIFO the hog's bursts starve the cold tenants (low Jain index,
// seconds of queueing); under equal soft weights every tenant receives
// its entitlement (Jain ≥ 0.9) and cold-tenant p99 queueing collapses
// by orders of magnitude. Virtual mode keeps both runs deterministic.
func TestNoisyNeighborFairness(t *testing.T) {
	fifo, err := RunNoisyNeighbor(wasp.New(), "fifo", 4, 2, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	fair, err := RunNoisyNeighbor(wasp.New(), "weighted", 4, 2, &sched.Admission{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if fair.Jain < 0.9 {
		t.Fatalf("weighted Jain = %.3f, want >= 0.9", fair.Jain)
	}
	if fifo.Jain > fair.Jain-0.1 {
		t.Fatalf("FIFO Jain %.3f not clearly below weighted %.3f", fifo.Jain, fair.Jain)
	}
	cold := func(rep *FairnessReport, image string) TenantFairness {
		for _, tf := range rep.Tenants {
			if tf.Image == image {
				return tf
			}
		}
		t.Fatalf("%s: no tenant %s", rep.Config, image)
		return TenantFairness{}
	}
	for _, image := range []string{"svc-a", "svc-d"} {
		f, w := cold(fifo, image), cold(fair, image)
		if w.P99QueueMs*10 > f.P99QueueMs {
			t.Fatalf("%s: weighted p99 %.1f ms not an order below FIFO %.1f ms",
				image, w.P99QueueMs, f.P99QueueMs)
		}
		if w.DoneByHorizon != w.Requests {
			t.Fatalf("%s: only %d/%d done within horizon under weights",
				image, w.DoneByHorizon, w.Requests)
		}
	}
	// Deterministic replay.
	again, err := RunNoisyNeighbor(wasp.New(), "weighted", 4, 2, &sched.Admission{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again.Jain != fair.Jain || again.Makespan != fair.Makespan {
		t.Fatalf("weighted run not reproducible: (%.4f,%d) vs (%.4f,%d)",
			again.Jain, again.Makespan, fair.Jain, fair.Makespan)
	}
}

// TestAdmissionFairnessClaims pins the admission table: the noisy-
// neighbor mix under FIFO and equal soft weights, at seed 99 with four
// workers and a two-second horizon. The weighted config is fair
// (Jain ≥ 0.9) with FIFO clearly below,
// cold-tenant p99 queueing under weights is an order below FIFO's, and
// the hog keeps its full share (work conserving). A tenant's pinned row
// is its weight, requests, completions within the horizon, p50 and p99
// queueing ms and entitlement share; a config's ALL row is requests,
// completions and Jain's index.
func TestAdmissionFairnessClaims(t *testing.T) {
	var got []string
	reps := map[string]*FairnessReport{}
	tenant := map[string]TenantFairness{}
	for _, cfg := range []struct {
		name string
		adm  *sched.Admission
	}{
		{"fifo", nil},
		{"weighted", &sched.Admission{}},
	} {
		rep, err := RunNoisyNeighbor(wasp.New(), cfg.name, 4, 2, cfg.adm, 99)
		if err != nil {
			t.Fatal(err)
		}
		reps[cfg.name] = rep
		reqs, done := 0, 0
		for _, tf := range rep.Tenants {
			reqs += tf.Requests
			done += tf.DoneByHorizon
			tenant[cfg.name+"/"+tf.Image] = tf
			got = append(got, fmt.Sprintf("%s/%s %d %d %d %.2f %.2f %.2f", cfg.name, tf.Image,
				tf.Weight, tf.Requests, tf.DoneByHorizon, tf.P50QueueMs, tf.P99QueueMs, tf.Share))
		}
		got = append(got, fmt.Sprintf("%s/ALL %d %d %.2f", cfg.name, reqs, done, rep.Jain))
	}
	pinRows(t, got, []string{
		"fifo/hog 1 512 156 2237.09 4429.52 1.00",
		"fifo/svc-a 1 32 8 2424.34 4505.15 0.25",
		"fifo/svc-b 1 32 8 2425.96 4506.91 0.25",
		"fifo/svc-c 1 32 8 2428.23 4507.67 0.25",
		"fifo/svc-d 1 32 8 2429.30 4509.08 0.25",
		"fifo/ALL 640 188 0.64",
		"weighted/hog 1 512 150 2300.66 4445.65 1.00",
		"weighted/svc-a 1 32 32 17.25 42.39 1.00",
		"weighted/svc-b 1 32 32 19.93 43.37 1.00",
		"weighted/svc-c 1 32 32 22.23 44.91 1.00",
		"weighted/svc-d 1 32 32 23.02 45.80 1.00",
		"weighted/ALL 640 278 1.00",
	})

	fifo, fair := reps["fifo"], reps["weighted"]
	if fair.Jain < 0.9 {
		t.Fatalf("weighted Jain = %.3f, want >= 0.9", fair.Jain)
	}
	if fifo.Jain > fair.Jain-0.1 {
		t.Fatalf("FIFO Jain %.3f not clearly below weighted %.3f", fifo.Jain, fair.Jain)
	}
	for _, image := range []string{"svc-a", "svc-d"} {
		f, w := tenant["fifo/"+image], tenant["weighted/"+image]
		if w.P99QueueMs*10 > f.P99QueueMs {
			t.Fatalf("%s: weighted p99 %.1f ms not an order below FIFO %.1f ms",
				image, w.P99QueueMs, f.P99QueueMs)
		}
	}
	if share := tenant["weighted/hog"].Share; share < 0.99 {
		t.Fatalf("hog share under weights = %.3f, want ~1 (work conserving)", share)
	}
}

// --- Multi-tenant noisy-neighbor fairness experiment ---------------------
//
// One hot function ("hog") bursts ~3x the node's capacity while several
// cold tenants trickle small requests through the horizon — the classic
// noisy-neighbor mix the scheduler's admission layer exists for. The
// whole arrival trace is presented to a virtual-mode scheduler as one
// SubmitBatchAt, so the experiment is deterministic, and it runs once
// per dispatch policy (plain FIFO, soft weights).

// TenantFairness is one tenant's slice of a fairness run.
type TenantFairness struct {
	Image    string
	Weight   int
	Requests int
	// DoneByHorizon counts the tenant's requests completed within the
	// arrival horizon — the congestion window fairness is judged over.
	DoneByHorizon int
	// DemandCycles is the tenant's total offered service work;
	// ServedCycles the part of it completed within the horizon.
	DemandCycles, ServedCycles uint64
	// P50QueueMs/P99QueueMs reduce the tenant's per-request queueing
	// delay.
	P50QueueMs, P99QueueMs float64
	// Share is the tenant's entitlement satisfaction in [0,1]:
	// ServedCycles over min(DemandCycles, weighted fair share of the
	// horizon's capacity). A tenant that received everything it was
	// entitled to scores 1 even if it demanded more — a backlogged hog
	// is not a victim of unfairness, only of its own excess.
	Share float64
}

// FairnessReport is one noisy-neighbor run under one dispatch policy.
type FairnessReport struct {
	Config     string
	Workers    int
	HorizonSec int
	Tenants    []TenantFairness // sorted by image name
	// Jain is Jain's fairness index over the tenants' Share values:
	// 1.0 when every tenant got its entitlement, 1/n when one tenant
	// captured everything.
	Jain     float64
	Makespan uint64
}

// noisyNeighborTrace builds the deterministic tenant mix for the given
// horizon: per second, the hog issues 8 bursts of 32 requests at ~47 ms
// each (~3x a 4-worker node's capacity), and each cold tenant issues 16
// requests at ~4 ms. Requests carry seeded jitter, precomputed at trace
// build time so every policy replays the identical workload. The trace
// is sorted by arrival with the hog first at equal instants — the
// backlog position a cold tenant actually finds.
func noisyNeighborTrace(horizonSec int, seed int64) ([]sched.Request, map[string]uint64) {
	const F = uint64(cycles.Frequency)
	noise := cycles.NewNoise(seed)
	demand := make(map[string]uint64)
	var reqs []sched.Request
	add := func(image string, arrival, svc uint64) {
		svc = noise.Jitter(svc)
		demand[image] += svc
		reqs = append(reqs, sched.Request{Arrival: arrival, Image: image, Cost: svc})
	}
	for sec := 0; sec < horizonSec; sec++ {
		base := uint64(sec) * F
		for burst := 0; burst < 8; burst++ {
			at := base + uint64(burst)*(F/8)
			for i := 0; i < 32; i++ {
				add("hog", at, F/21) // ~47 ms: 256/s ≈ 3x of 4 workers
			}
		}
	}
	for _, tenant := range []string{"svc-a", "svc-b", "svc-c", "svc-d"} {
		for sec := 0; sec < horizonSec; sec++ {
			base := uint64(sec) * F
			for i := 0; i < 16; i++ {
				add(tenant, base+uint64(i)*(F/16), F/256) // ~4 ms each
			}
		}
	}
	sortByArrival(reqs)
	return reqs, demand
}

// RunNoisyNeighbor drives the noisy-neighbor mix through a virtual-mode
// scheduler with the given worker width and admission policy (nil for
// the FIFO baseline) and reduces the outcome to a FairnessReport.
func RunNoisyNeighbor(w *wasp.Wasp, config string, workers, horizonSec int, adm *sched.Admission, seed int64) (*FairnessReport, error) {
	if workers < 1 {
		workers = 4
	}
	if horizonSec < 1 {
		horizonSec = 2
	}
	reqs, demand := noisyNeighborTrace(horizonSec, seed)
	var opts []sched.Option
	if adm != nil {
		opts = append(opts, sched.WithAdmission(*adm))
	}
	s := sched.NewVirtual(w, workers, opts...)
	defer s.Close()
	tickets := s.SubmitBatchAt(reqs)

	horizon := uint64(horizonSec) * uint64(cycles.Frequency)
	capacity := uint64(workers) * horizon
	type acc struct {
		reqs, done int
		served     uint64
		queues     []float64
	}
	byImage := make(map[string]*acc)
	for _, tk := range tickets {
		a := byImage[tk.Image]
		if a == nil {
			a = &acc{}
			byImage[tk.Image] = a
		}
		a.reqs++
		if _, err := tk.Wait(); err != nil {
			return nil, err
		}
		a.queues = append(a.queues, float64(tk.QueueCycles()))
		if tk.Done <= horizon {
			a.done++
			a.served += tk.ServiceCycles()
		}
	}

	names := make([]string, 0, len(byImage))
	for name := range byImage {
		names = append(names, name)
	}
	sort.Strings(names)
	var weightSum int
	pol := sched.Admission{}
	if adm != nil {
		pol = *adm
	}
	weights := make(map[string]int, len(names))
	for _, name := range names {
		// The exact weights the scheduler enforced, not a reimplementation.
		weights[name] = pol.WeightFor(name)
		weightSum += weights[name]
	}

	rep := &FairnessReport{
		Config:     config,
		Workers:    workers,
		HorizonSec: horizonSec,
		Makespan:   s.Makespan(),
	}
	shares := make([]float64, 0, len(names))
	for _, name := range names {
		a := byImage[name]
		fairShare := float64(capacity) * float64(weights[name]) / float64(weightSum)
		entitled := float64(demand[name])
		if fairShare < entitled {
			entitled = fairShare
		}
		share := 0.0
		if entitled > 0 {
			share = float64(a.served) / entitled
			if share > 1 {
				share = 1
			}
		}
		shares = append(shares, share)
		rep.Tenants = append(rep.Tenants, TenantFairness{
			Image:         name,
			Weight:        weights[name],
			Requests:      a.reqs,
			DoneByHorizon: a.done,
			DemandCycles:  demand[name],
			ServedCycles:  a.served,
			P50QueueMs:    cycles.Millis(uint64(stats.Percentile(a.queues, 50))),
			P99QueueMs:    cycles.Millis(uint64(stats.Percentile(a.queues, 99))),
			Share:         share,
		})
	}
	rep.Jain = stats.Jain(shares)
	return rep, nil
}
