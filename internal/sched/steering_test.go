package sched

import (
	"fmt"
	"testing"

	"repro/internal/guest"
	"repro/internal/placement"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

func TestImgStatsLRUBoundAndEWMA(t *testing.T) {
	st := newImgStats(4)
	st.note("a", 100, 2)
	st.note("a", 200, 2)
	svc, entries := st.get("a")
	if svc != (7*100+200)/8 || entries != 2 {
		t.Fatalf("EWMA fold: svc=%d entries=%d", svc, entries)
	}
	for i := 0; i < 20; i++ {
		st.note(fmt.Sprintf("churn-%d", i), 10, 1)
	}
	if trackedImages(st) > 4 {
		t.Fatalf("tracked %d images, cap is 4", trackedImages(st))
	}
	if svc, _ := st.get("churn-19"); svc == 0 {
		t.Fatal("hottest image must survive eviction")
	}
	if svc, _ := st.get("a"); svc != 0 {
		t.Fatal("coldest image must have been evicted")
	}
	if newImgStats(0).limit != maxTrackedImages {
		t.Fatal("limit 0 must fall back to the default cap")
	}
}

// Regression for the telemetry leak: with a placer attached, the
// scheduler used to keep one per-image EWMA entry forever, so tenant
// churn (every WithName clone is a new image name) grew the map without
// bound. The store is LRU-capped now.
func TestSchedulerImageTelemetryBounded(t *testing.T) {
	w := splitWasp()
	s := NewVirtual(w, 2,
		WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}),
		WithPlacer(placement.CostModel{}))
	defer s.Close()
	s.imgStats = newImgStats(16) // shrink the cap so the test stays cheap
	base := guest.RealModeHalt()
	for i := 0; i < 64; i++ {
		tk := s.Submit(base.WithName(fmt.Sprintf("tenant-%d", i)), wasp.RunConfig{})
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if n := trackedImages(s.imgStats); n > 16 {
		t.Fatalf("per-image telemetry grew to %d entries under churn, cap is 16", n)
	}
	if svc, _ := s.imgStats.get("tenant-63"); svc == 0 {
		t.Fatal("most recent tenant's telemetry must be retained")
	}
	if svc, _ := s.imgStats.get("tenant-0"); svc != 0 {
		t.Fatal("oldest tenant's telemetry must have been evicted")
	}
}

// trackedImages is the images st tracks: the leak tests' bound.
func trackedImages(st *imgStats) int { return st.lru.Len() }
