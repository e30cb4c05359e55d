package sched

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/placement"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

func splitWasp() *wasp.Wasp {
	return wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
}

// An image pinned to a platform outside the fleet is rejected with
// ErrPlacement in both modes and on both submit paths.
func TestUnplaceableImageRejected(t *testing.T) {
	img := guest.RealModeHalt().WithName("nowhere")
	pl := placement.Static{Pins: map[string]string{img.Name: "xen"}}
	for _, virtual := range []bool{false, true} {
		w := splitWasp()
		var s *Scheduler
		opts := []Option{WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}), WithPlacer(pl)}
		if virtual {
			s = NewVirtual(w, 2, opts...)
		} else {
			s = New(w, 2, opts...)
		}
		tk := s.Submit(img, wasp.RunConfig{})
		if _, err := tk.Wait(); !errors.Is(err, ErrPlacement) {
			t.Fatalf("virtual=%v: err = %v, want ErrPlacement", virtual, err)
		}
		batch := s.SubmitBatch([]Request{{Img: img, Cfg: wasp.RunConfig{}}})
		if _, err := batch[0].Wait(); !errors.Is(err, ErrPlacement) {
			t.Fatalf("virtual=%v batch: err = %v, want ErrPlacement", virtual, err)
		}
		if got := s.Rejected(); got != 2 {
			t.Fatalf("virtual=%v: Rejected = %d, want 2", virtual, got)
		}
		if s.Submitted() != s.Completed()+s.Rejected() {
			t.Fatalf("virtual=%v: submitted != completed+rejected", virtual)
		}
		s.Close()
	}
}

// Placement is a virtual-mode policy: a real-mode scheduler built with
// a placer serves nothing, and every ticket, placeable or not, on the
// single and the batch submit path, fails with ErrPlacement.
func TestRealModePlacerFailsClosed(t *testing.T) {
	s := New(splitWasp(), 2, WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}),
		WithPlacer(placement.LeastLoaded{}), WithAdmission(Admission{}))
	defer s.Close()
	img := guest.RealModeHalt()
	tickets := []*Ticket{s.Submit(img, wasp.RunConfig{}), s.SubmitFn(costTask(1))}
	tickets = append(tickets, s.SubmitBatch([]Request{
		{Img: img}, {Fn: costTask(1), Image: "tagged"}, {Cost: 5},
	})...)
	for i, tk := range tickets {
		if _, err := tk.Wait(); !errors.Is(err, ErrPlacement) {
			t.Fatalf("ticket %d: err = %v, want ErrPlacement", i, err)
		}
	}
	if s.Completed() != 0 || s.Rejected() != uint64(len(tickets)) {
		t.Fatalf("completed %d, rejected %d of %d", s.Completed(), s.Rejected(), len(tickets))
	}
	if s.Submitted() != s.Completed()+s.Rejected() {
		t.Fatalf("Submitted %d != Completed %d + Rejected %d", s.Submitted(), s.Completed(), s.Rejected())
	}
}

// WithWorkerPlatforms on a platform the Wasp does not own is a
// misconfigured fleet: construction must panic loudly.
func TestWorkerPlatformValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for a worker platform outside the runtime's backends")
		}
	}()
	New(wasp.New(), 2, WithWorkerPlatforms(vmm.HyperV{}))
}

// String and WorkerInfo must expose the per-backend fleet shape.
func TestStringAndWorkerInfoReportBackends(t *testing.T) {
	w := splitWasp()
	s := New(w, 4, WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}))
	defer s.Close()
	tk := s.Submit(guest.RealModeHalt(), wasp.RunConfig{})
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	if str := s.String(); !strings.Contains(str, "kvm:2w") || !strings.Contains(str, "hyper-v:2w") {
		t.Fatalf("String() = %q, want per-backend worker counts", str)
	}
	plats := map[string]int{}
	for _, wl := range s.WorkerInfo() {
		plats[wl.Platform]++
	}
	if plats["kvm"] != 2 || plats["hyper-v"] != 2 {
		t.Fatalf("WorkerInfo platforms = %v, want 2+2", plats)
	}
}

// Virtual-mode determinism at the scheduler level: the same mixed-fleet
// batch under each policy must produce bit-identical makespans and
// per-ticket (worker, platform, start, done) assignments run over run.
func TestVirtualPlacementDeterministic(t *testing.T) {
	imgS := guest.RealModeHalt().WithName("det-short")
	imgL := guest.MinimalHalt().WithName("det-long")
	build := func() []Request {
		var reqs []Request
		for i := 0; i < 40; i++ {
			img := imgS
			if i%5 == 0 {
				img = imgL
			}
			reqs = append(reqs, Request{Arrival: uint64(i) * 3_000, Img: img})
		}
		return reqs
	}
	type key struct {
		worker      int
		platform    string
		start, done uint64
	}
	for _, pl := range []placement.Placer{
		placement.Static{Default: "kvm"},
		placement.LeastLoaded{},
		placement.CostModel{},
	} {
		run := func() ([]key, uint64) {
			w := splitWasp()
			s := NewVirtual(w, 4, WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}), WithPlacer(pl))
			defer s.Close()
			tickets := s.SubmitBatchAt(build())
			if err := WaitAll(tickets...); err != nil {
				t.Fatal(err)
			}
			out := make([]key, len(tickets))
			for i, tk := range tickets {
				out[i] = key{tk.Worker, tk.Platform, tk.Start, tk.Done}
			}
			return out, s.Makespan()
		}
		a, ma := run()
		b, mb := run()
		if ma != mb {
			t.Fatalf("%T: makespan diverged: %d vs %d", pl, ma, mb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%T: ticket %d assignment diverged: %+v vs %+v", pl, i, a[i], b[i])
			}
		}
	}
}

// 16 goroutines hammer a virtual-mode mixed two-backend fleet — single
// submits, batches, pinned and free images — while another goroutine
// closes the scheduler mid-flight. Run under -race. Every ticket must
// either complete on an allowed backend or fail with ErrClosed, and the
// accounting identity must hold; the wasp-level cross-platform panic
// guards shell integrity throughout.
func TestPlacementStressMixedBackendsWithClose(t *testing.T) {
	w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}), wasp.WithAsyncClean(true))
	imgK := guest.RealModeHalt().WithName("stress-kvm")
	imgH := guest.RealModeHalt().WithName("stress-hv")
	imgAny := guest.RealModeHalt().WithName("stress-any")
	pl := placement.Static{Pins: map[string]string{imgK.Name: "kvm", imgH.Name: "hyper-v"}}
	s := NewVirtual(w, 4, WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}), WithPlacer(pl))

	const goroutines = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var all []*Ticket
	closeGate := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			imgs := []*guest.Image{imgK, imgH, imgAny}
			var local []*Ticket
			for i := 0; i < 30; i++ {
				img := imgs[(g+i)%len(imgs)]
				if i%7 == 0 {
					local = append(local, s.SubmitBatch([]Request{
						{Img: img, Cfg: wasp.RunConfig{}},
						{Img: imgs[(g+i+1)%len(imgs)], Cfg: wasp.RunConfig{}},
					})...)
				} else {
					local = append(local, s.Submit(img, wasp.RunConfig{}))
				}
				if g == 0 && i == 15 {
					close(closeGate)
				}
			}
			mu.Lock()
			all = append(all, local...)
			mu.Unlock()
		}(g)
	}
	go func() {
		<-closeGate
		s.Close()
	}()
	wg.Wait()
	s.Close()

	var completed, rejected uint64
	for _, tk := range all {
		_, err := tk.Wait()
		switch {
		case err == nil:
			completed++
			switch tk.Image {
			case imgK.Name:
				if tk.Platform != "kvm" {
					t.Fatalf("pinned image ran on %s", tk.Platform)
				}
			case imgH.Name:
				if tk.Platform != "hyper-v" {
					t.Fatalf("pinned image ran on %s", tk.Platform)
				}
			}
		case errors.Is(err, ErrClosed):
			rejected++
		default:
			t.Fatalf("unexpected ticket error: %v", err)
		}
	}
	if completed != s.Completed() || rejected != s.Rejected() {
		t.Fatalf("ticket counts (%d done, %d rejected) disagree with scheduler (%d, %d)",
			completed, rejected, s.Completed(), s.Rejected())
	}
	if s.Submitted() != s.Completed()+s.Rejected() {
		t.Fatalf("Submitted %d != Completed %d + Rejected %d", s.Submitted(), s.Completed(), s.Rejected())
	}
}
