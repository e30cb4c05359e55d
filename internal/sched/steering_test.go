package sched

import (
	"fmt"
	"testing"

	"repro/internal/cycles"
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
	if st.size() > 4 {
		t.Fatalf("tracked %d images, cap is 4", st.size())
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
	if n := s.imgStats.size(); n > 16 {
		t.Fatalf("per-image telemetry grew to %d entries under churn, cap is 16", n)
	}
	if svc, _ := s.imgStats.get("tenant-63"); svc == 0 {
		t.Fatal("most recent tenant's telemetry must be retained")
	}
	if svc, _ := s.imgStats.get("tenant-0"); svc != 0 {
		t.Fatal("oldest tenant's telemetry must have been evicted")
	}
}

// Stats-based steering: on a 2+2 KVM/Paravirt fleet under the cost
// model, a short-lived quiet image must land predominantly on the
// cheap-create backend in REAL mode — the weights now steer racing
// workers, not just gate eligibility. Submissions are sequential, so the
// preferred backend always has an idle worker and steering never has to
// yield to work conservation.
func TestRealModeSteeringPrefersCheapCreate(t *testing.T) {
	w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.Paravirt{}))
	s := New(w, 4,
		WithWorkerPlatforms(vmm.KVM{}, vmm.Paravirt{}),
		WithPlacer(placement.CostModel{}))
	defer s.Close()
	img := guest.RealModeHalt().WithName("steer-short")
	onKVM := 0
	const runs = 30
	for i := 0; i < runs; i++ {
		tk := s.Submit(img, wasp.RunConfig{})
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		if tk.Platform == "kvm" {
			onKVM++
		}
	}
	t.Logf("short image: %d/%d runs on kvm", onKVM, runs)
	if onKVM < runs*6/10 {
		t.Fatalf("short image served on kvm only %d/%d times; the cost model's weights must steer real-mode dispatch", onKVM, runs)
	}
}

// steerPlacer sends "hog" tickets to KVM only and decisively prefers
// KVM for everything else (paravirt stays eligible at a large bias).
type steerPlacer struct{}

func (steerPlacer) Place(img placement.ImageInfo, backends []placement.BackendInfo) []float64 {
	out := make([]float64, len(backends))
	for i, b := range backends {
		switch {
		case img.Name == "hog":
			if b.Platform.Name() == "kvm" {
				out[i] = 1
			}
		case b.Platform.Name() == "kvm":
			out[i] = 1
		default:
			out[i] = 1.0 / 1_000_000
		}
	}
	return out
}

// Steering is a preference, not a pin: once the preferred backend is
// saturated, another eligible backend's idle workers take the ticket
// over. Both KVM workers are parked inside blocking tickets, so every
// steered short must complete on paravirt — deterministically, while the
// hogs are still mid-flight.
func TestRealModeSteeringYieldsWhenPreferredSaturated(t *testing.T) {
	w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.Paravirt{}))
	s := New(w, 4,
		WithWorkerPlatforms(vmm.KVM{}, vmm.Paravirt{}),
		WithPlacer(steerPlacer{}))
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	hog := func(clk *cycles.Clock) (*wasp.Result, error) {
		started <- struct{}{}
		<-release
		return &wasp.Result{}, nil
	}
	hogs := s.SubmitBatch([]Request{
		{Fn: hog, Image: "hog"},
		{Fn: hog, Image: "hog"},
	})
	<-started
	<-started // both KVM workers now occupied mid-ticket

	img := guest.RealModeHalt().WithName("steer-takeover")
	var shorts []*Ticket
	for i := 0; i < 8; i++ {
		shorts = append(shorts, s.Submit(img, wasp.RunConfig{}))
	}
	if err := WaitAll(shorts...); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := WaitAll(hogs...); err != nil {
		t.Fatal(err)
	}
	for _, tk := range shorts {
		if tk.Platform != "paravirt" {
			t.Fatalf("steered short ran on %s while its preferred backend was saturated; want paravirt takeover", tk.Platform)
		}
	}
	for _, tk := range hogs {
		if tk.Platform != "kvm" {
			t.Fatalf("hog ran on %s, placed kvm-only", tk.Platform)
		}
	}
}
