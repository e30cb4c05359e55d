package serverless

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/sched"
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
