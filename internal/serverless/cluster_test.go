package serverless

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cycles"
	"repro/internal/sched"
	"repro/internal/wasp"
)

// TestClusterRunDeterministic is the simulation-level determinism gate:
// one config, two fresh fleets, bit-identical reports — including the
// fleet trajectory an autoscaling policy produces.
func TestClusterRunDeterministic(t *testing.T) {
	const F = uint64(cycles.Frequency)
	run := func() *ClusterReport {
		cfg := ClusterConfig{
			Seed:           11,
			InitialWorkers: 2,
			Trace:          ClusterMix(11, 0.25, F),
		}
		rep, err := RunCluster(wasp.New(), sched.QueueScale{TargetP99: F / 20, Min: 1, Max: 64}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("cluster run not reproducible:\n a: %+v\n b: %+v", a, b)
	}
	if a.Tickets == 0 || a.Epochs == 0 || a.CostWorkerSec == 0 {
		t.Fatalf("degenerate report: %+v", a)
	}
}

// TestClusterLinearMatchesHeap pins the seed-7 cluster simulation to
// the report both dispatch cores produced at the commit that moved the
// linear reference into internal/sched's tests: virtual time end to
// end, so the report must agree bit for bit. (The live heap-vs-linear
// differential is sched's TestHeapDispatchMatchesLinearReference.)
func TestClusterLinearMatchesHeap(t *testing.T) {
	const F = uint64(cycles.Frequency)
	cfg := ClusterConfig{Seed: 7, InitialWorkers: 3, Trace: ClusterMix(7, 0.2, F)}
	got, err := RunCluster(wasp.New(), sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 64}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := &ClusterReport{
		Policy: "queue-p99", InitialWorkers: 3, PeakWorkers: 3, FinalWorkers: 3,
		Epochs: 4, Tickets: 131, SLOAttained: 1,
		P50Latency: 0x1260a0d, P99Latency: 0x25eb142, Makespan: 0xa10705a6,
		CostWorkerSec: 3.75,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster report drifted from the frozen verdict:\n got:  %+v\n want: %+v", got, want)
	}
}

// TestClusterFrontier regenerates the autoscaling frontier: the
// standard mix (seed 1, scale 1, two virtual seconds) through three
// fixed fleets and the elastic queue policy. A row is the policy's
// initial and peak workers, tickets, rejections, SLO attainment, p50
// and p99 latency and makespan ms, provisioned worker-seconds and scale
// events. The queue policy must grow past its initial fleet and still
// undercut the fixed-64 fleet's cost.
func TestClusterFrontier(t *testing.T) {
	const F = uint64(cycles.Frequency)
	mix := ClusterMix(1, 1, 2*F)
	ms := cycles.Millis
	var got []string
	reps := map[string]*ClusterReport{}
	for _, c := range []struct {
		w0  int
		pol sched.AutoPolicy
	}{
		{4, fixedScale(4)},
		{16, fixedScale(16)},
		{64, fixedScale(64)},
		{4, sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 256}},
	} {
		rep, err := RunCluster(wasp.New(), c.pol, ClusterConfig{Seed: 1, InitialWorkers: c.w0, Trace: mix})
		if err != nil {
			t.Fatal(err)
		}
		reps[rep.Policy] = rep
		got = append(got, fmt.Sprintf("%s %d %d %d %d %.2f %.2f %.2f %.1f %.1f %d", rep.Policy,
			rep.InitialWorkers, rep.PeakWorkers, rep.Tickets, rep.Rejected, rep.SLOAttained,
			ms(rep.P50Latency), ms(rep.P99Latency), ms(rep.Makespan), rep.CostWorkerSec, rep.ScaleEvents))
	}
	pinRows(t, got, []string{
		"fixed-4 4 4 903 0 0.73 11.99 116.02 1996.4 8.0 0",
		"fixed-16 16 16 903 0 1.00 2.89 15.07 1996.4 32.0 0",
		"fixed-64 64 64 903 0 1.00 2.87 15.07 1996.4 128.0 0",
		"queue-p99 4 7 903 0 0.78 10.38 149.36 1996.4 12.2 6",
	})
	if q := reps["queue-p99"]; q.PeakWorkers <= q.InitialWorkers || q.CostWorkerSec >= reps["fixed-64"].CostWorkerSec {
		t.Errorf("queue-p99 peaked at %d workers from %d at %.1f ws; fixed-64 cost %.1f ws",
			q.PeakWorkers, q.InitialWorkers, q.CostWorkerSec, reps["fixed-64"].CostWorkerSec)
	}
}

// TestClusterAutoscalerReacts pins that an elastic policy actually
// moves the fleet: an overloaded trace must force growth past the
// initial width, and the SLO must beat what the frozen initial fleet
// achieves.
func TestClusterAutoscalerReacts(t *testing.T) {
	const F = uint64(cycles.Frequency)
	trace := UniformTrace(3, "api", 4000, F/8000, ServiceProfile{Base: F / 100, Spread: 0.5})
	base := ClusterConfig{InitialWorkers: 2, Trace: trace}

	frozen, err := RunCluster(wasp.New(), fixedScale(2), base)
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := RunCluster(wasp.New(), sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 256}, base)
	if err != nil {
		t.Fatal(err)
	}
	if elastic.PeakWorkers <= frozen.PeakWorkers {
		t.Fatalf("queue policy never grew the fleet: peak %d", elastic.PeakWorkers)
	}
	if elastic.ScaleEvents == 0 {
		t.Fatal("elastic run recorded no scale events")
	}
	if elastic.SLOAttained <= frozen.SLOAttained {
		t.Fatalf("elastic fleet should beat the frozen 2-worker SLO: %.3f vs %.3f",
			elastic.SLOAttained, frozen.SLOAttained)
	}
	if elastic.Makespan >= frozen.Makespan {
		t.Fatalf("elastic fleet should finish sooner: %d vs %d", elastic.Makespan, frozen.Makespan)
	}
}

// TestSelectMatchesSort: selectU64 returns exactly the sorted slice's
// k-th element for every k, on seeded slices of 1–300 values drawn from
// few distinct values (heavy duplicates) and from many; percentileU64
// of an empty sample is 0.
func TestSelectMatchesSort(t *testing.T) {
	if got := percentileU64(nil, 0.99); got != 0 {
		t.Fatalf("percentileU64(nil) = %d, want 0", got)
	}
	rng := NewTraceRNG(5)
	for n := 1; n <= 300; n++ {
		for _, distinct := range []uint64{1, 3, 1 << 62} {
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = rng.Uint64() % distinct
			}
			sorted := slices.Clone(xs)
			slices.Sort(sorted)
			for k := range xs {
				if got := selectU64(slices.Clone(xs), k); got != sorted[k] {
					t.Fatalf("n=%d distinct=%d: selectU64(k=%d) = %d, sorted %d", n, distinct, k, got, sorted[k])
				}
			}
			if got, want := percentileU64(slices.Clone(xs), 0.99), sorted[int(float64(n-1)*0.99)]; got != want {
				t.Fatalf("n=%d distinct=%d: percentileU64 = %d, want %d", n, distinct, got, want)
			}
		}
	}
}

// BenchmarkRunCluster runs TestClusterFrontier's mix (seed 1, scale 1,
// two virtual seconds) through the queue-p99 autoscaler on a fresh fleet
// per op and reports simulated tickets per host second.
func BenchmarkRunCluster(b *testing.B) {
	const F = uint64(cycles.Frequency)
	mix := ClusterMix(1, 1, 2*F)
	b.ReportAllocs()
	runs := 0
	for b.Loop() {
		if _, err := RunCluster(wasp.New(), sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 256},
			ClusterConfig{Seed: 1, InitialWorkers: 4, Trace: mix}); err != nil {
			b.Fatal(err)
		}
		runs++
	}
	b.ReportMetric(float64(runs*len(mix))/b.Elapsed().Seconds(), "tickets/s")
}

// BenchmarkClusterMix builds the cluster_sim workload's trace: seed 1,
// scale 60, 24 virtual seconds (~324k requests).
func BenchmarkClusterMix(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		ClusterMix(1, 60, 24*cycles.Frequency)
	}
}

// fixedScale is the no-op autoscaling policy: a constant width and no
// standby, the baseline every frontier sweep compares against.
type fixedScale int

func (n fixedScale) Name() string { return fmt.Sprintf("fixed-%d", n) }
func (n fixedScale) Scale(sched.AutoSignal) sched.AutoDecision {
	return sched.AutoDecision{Workers: int(n)}
}

// UniformTrace generates exactly n tickets at a fixed arrival cadence
// with one service draw each — the dense, regular load the dispatch
// tests use, where the variable under test is the dispatch core, not
// the workload shape.
func UniformTrace(seed uint64, image string, n int, gap uint64, svc ServiceProfile) []sched.Request {
	rng := NewTraceRNG(seed)
	reqs := make([]sched.Request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, sched.Request{Arrival: uint64(i) * gap, Image: image, Cost: svc.Draw(rng)})
	}
	return reqs
}
