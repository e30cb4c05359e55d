package serverless

import (
	"reflect"
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
		rep, err := RunCluster(wasp.New(), &sched.UtilScale{Target: 0.5, Min: 1, Max: 64, Patience: 2}, cfg)
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

// TestClusterAutoscalerReacts pins that an elastic policy actually
// moves the fleet: an overloaded trace must force growth past the
// initial width, and the SLO must beat what the frozen initial fleet
// achieves.
func TestClusterAutoscalerReacts(t *testing.T) {
	const F = uint64(cycles.Frequency)
	trace := UniformTrace(3, "api", 4000, F/8000, ServiceProfile{Base: F / 100, Spread: 0.5})
	base := ClusterConfig{InitialWorkers: 2, Trace: trace}

	frozen, err := RunCluster(wasp.New(), sched.FixedScale{N: 2}, base)
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
