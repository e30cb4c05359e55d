package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/placement"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// Differential property suite for the O(log n) dispatch core: random
// trace corpora — mixed images, colliding arrivals, hard caps in both
// flavors, per-backend quotas, placers, mid-run autoscaling — run
// through the heap core and the linear reference (linearCore, the
// test-only core in linear_core_test.go), asserting bit-identical per-ticket outcomes, makespans, rejection
// sets, and admission telemetry. The heap structures are pure
// bookkeeping; any divergence here is a correctness bug, not a tuning
// difference.

// dispatchKey is the comparable projection of one ticket's outcome.
type dispatchKey struct {
	Worker   int
	Platform string
	Arrival  uint64
	Start    uint64
	Done     uint64
	Depth    int
	Image    string
	Rejected bool
}

// corpusConfig is one randomized scenario, drawn from a seed.
type corpusConfig struct {
	workers   int
	twoBE     bool
	placer    int // 0 none, 1 least-loaded, 2 cost-model
	adm       Admission
	batch     []Request
	singles   []Request
	rescaleTo int // 0 = no mid-run rescale
	batch2    []Request
}

func drawCorpus(seed int64) corpusConfig {
	rng := rand.New(rand.NewSource(seed))
	images := []string{"img-a", "img-b", "img-c", "img-d"}
	cfg := corpusConfig{
		workers: 1 + rng.Intn(12),
		twoBE:   rng.Intn(2) == 0,
		placer:  rng.Intn(3),
	}
	cfg.adm = Admission{
		MaxInFlight:    rng.Intn(4), // 0 disables
		RejectOverflow: rng.Intn(2) == 0,
		MaxPerBackend:  rng.Intn(3), // 0 disables
		Weights:        map[string]int{"img-a": 1 + rng.Intn(4), "img-b": 1 + rng.Intn(4)},
	}
	// Arrivals from a small lattice so clock/arrival ties are common —
	// the tie-break rules are the property under test.
	draw := func(n int) []Request {
		reqs := make([]Request, 0, n)
		for i := 0; i < n; i++ {
			img := images[rng.Intn(len(images))]
			arrival := uint64(rng.Intn(20)) * 5_000_000
			svc := uint64(1+rng.Intn(40)) * 1_000_000
			reqs = append(reqs, Request{Arrival: arrival, Image: img, Fn: costTask(svc)})
		}
		return reqs
	}
	cfg.batch = draw(40 + rng.Intn(160))
	cfg.singles = draw(rng.Intn(6))
	if rng.Intn(2) == 0 {
		cfg.rescaleTo = 1 + rng.Intn(16)
		cfg.batch2 = draw(20 + rng.Intn(40))
	}
	return cfg
}

// virtualOn selects the virtual-mode constructor: the production heap
// core or the linear reference.
func virtualOn(linear bool) func(*wasp.Wasp, int, ...Option) *Scheduler {
	if linear {
		return newLinear
	}
	return NewVirtual
}

// runCorpus executes one scenario on a fresh runtime with the selected
// dispatch core and projects every outcome.
func runCorpus(t *testing.T, cfg corpusConfig, linear bool) ([]dispatchKey, uint64, map[string]AdmissionStats) {
	t.Helper()
	var wopts []wasp.Option
	sopts := []Option{WithAdmission(cfg.adm)}
	if cfg.twoBE {
		wopts = append(wopts, wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
		sopts = append(sopts, WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}))
	}
	switch cfg.placer {
	case 1:
		sopts = append(sopts, WithPlacer(placement.LeastLoaded{}))
	case 2:
		sopts = append(sopts, WithPlacer(placement.CostModel{}))
	}
	s := virtualOn(linear)(wasp.New(wopts...), cfg.workers, sopts...)
	defer s.Close()
	var tickets []*Ticket
	tickets = append(tickets, s.SubmitBatchAt(cfg.batch)...)
	for _, r := range cfg.singles {
		tickets = append(tickets, s.SubmitFnAt(r.Arrival, r.Fn))
	}
	if cfg.rescaleTo > 0 {
		s.SetVirtualWorkers(cfg.rescaleTo, s.Makespan())
		tickets = append(tickets, s.SubmitBatchAt(cfg.batch2)...)
	}
	keys := make([]dispatchKey, len(tickets))
	for i, tk := range tickets {
		_, err := tk.Wait()
		keys[i] = dispatchKey{
			Worker: tk.Worker, Platform: tk.Platform,
			Arrival: tk.Arrival, Start: tk.Start, Done: tk.Done,
			Depth: tk.DepthAtSubmit, Image: tk.Image, Rejected: err != nil,
		}
	}
	stats := make(map[string]AdmissionStats)
	for _, img := range s.AdmissionImages() {
		st, _ := s.AdmissionStats(img)
		stats[img] = st
	}
	return keys, s.Makespan(), stats
}

// TestHeapDispatchMatchesLinearReference is the core differential
// property: for every random scenario, the heap core and the linear
// reference produce the same schedule, bit for bit.
func TestHeapDispatchMatchesLinearReference(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := drawCorpus(seed)
			lin, linMk, linSt := runCorpus(t, cfg, true)
			hp, hpMk, hpSt := runCorpus(t, cfg, false)
			if linMk != hpMk {
				t.Fatalf("makespan diverged: linear %d, heap %d (cfg %+v)", linMk, hpMk, cfg.adm)
			}
			for i := range lin {
				if lin[i] != hp[i] {
					t.Fatalf("ticket %d diverged (cfg %+v):\n linear: %+v\n heap:   %+v",
						i, cfg.adm, lin[i], hp[i])
				}
			}
			for img, st := range linSt {
				if hpSt[img] != st {
					t.Fatalf("admission stats for %s diverged:\n linear: %+v\n heap:   %+v",
						img, st, hpSt[img])
				}
			}
		})
	}
}

// TestHeapDispatchTieBreaks pins the deterministic tie-break rules the
// heap structures must preserve, one axis at a time.
func TestHeapDispatchTieBreaks(t *testing.T) {
	for _, mode := range []struct {
		name   string
		linear bool
	}{{"heap", false}, {"linear", true}} {
		t.Run(mode.name, func(t *testing.T) {
			// Equal clocks: idle workers all at clock 0 fill in id order.
			newSched := virtualOn(mode.linear)
			s := newSched(wasp.New(), 3)
			var got []int
			for i := 0; i < 3; i++ {
				tk := s.SubmitFnAt(0, costTask(1000))
				tk.Wait()
				got = append(got, tk.Worker)
			}
			s.Close()
			if got[0] != 0 || got[1] != 1 || got[2] != 2 {
				t.Fatalf("equal-clock ties must fill workers in id order, got %v", got)
			}

			// Equal passes: two never-run images tie at pass 0; the
			// weighted pick must break toward the lexicographically
			// smaller name even when the larger one was submitted first.
			s = newSched(wasp.New(), 1, WithAdmission(Admission{}))
			tks := s.SubmitBatchAt([]Request{
				{Arrival: 0, Image: "zeta", Fn: costTask(1000)},
				{Arrival: 0, Image: "alpha", Fn: costTask(1000)},
			})
			WaitAll(tks...)
			if !(tks[1].Start < tks[0].Start) {
				t.Fatalf("equal-pass tie must dispatch the smaller image name first: alpha start %d, zeta start %d",
					tks[1].Start, tks[0].Start)
			}
			s.Close()

			// Equal arrivals within one image: submission order (the
			// per-image backlog is a min-heap of submission indices, not
			// an arrival FIFO).
			s = newSched(wasp.New(), 1, WithAdmission(Admission{}))
			tks = s.SubmitBatchAt([]Request{
				{Arrival: 0, Image: "img", Fn: costTask(1000)},
				{Arrival: 0, Image: "img", Fn: costTask(2000)},
				{Arrival: 0, Image: "img", Fn: costTask(3000)},
			})
			WaitAll(tks...)
			if !(tks[0].Start < tks[1].Start && tks[1].Start < tks[2].Start) {
				t.Fatalf("equal-arrival same-image ties must dispatch in submission order: starts %d, %d, %d",
					tks[0].Start, tks[1].Start, tks[2].Start)
			}
			s.Close()
		})
	}
}

// TestSetVirtualWorkersDeterministic pins the autoscaling primitive's
// semantics: growth cannot serve before the scale time, shrink parks
// the highest ids, and a shrink/regrow cycle is reproducible.
func TestSetVirtualWorkersDeterministic(t *testing.T) {
	run := func() []dispatchKey {
		s := NewVirtual(wasp.New(), 2)
		defer s.Close()
		var keys []dispatchKey
		note := func(tk *Ticket) {
			tk.Wait()
			keys = append(keys, dispatchKey{Worker: tk.Worker, Start: tk.Start, Done: tk.Done})
		}
		note(s.SubmitFnAt(0, costTask(1000)))
		if n := s.SetVirtualWorkers(4, 5000); n != 4 {
			t.Fatalf("grow to 4, got %d", n)
		}
		// The new workers' clocks start at the scale time: an arrival
		// before it lands on them no earlier than 5000.
		tk := s.SubmitFnAt(0, costTask(1000))
		note(tk)
		if tk.Worker != 1 {
			// worker 1 is idle at clock 0 — still the earliest-free.
			t.Fatalf("idle original worker should win, got worker %d", tk.Worker)
		}
		for i := 0; i < 6; i++ {
			note(s.SubmitFnAt(0, costTask(1000)))
		}
		if n := s.SetVirtualWorkers(1, 0); n != 1 {
			t.Fatalf("shrink to 1, got %d", n)
		}
		tk = s.SubmitFnAt(0, costTask(1000))
		note(tk)
		if tk.Worker != 0 {
			t.Fatalf("after shrink to 1 only worker 0 serves, got %d", tk.Worker)
		}
		return keys
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rescale schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSetVirtualWorkersRealModePanics pins the real core's refusal:
// real-mode fleets are goroutines, not clocks.
func TestSetVirtualWorkersRealModePanics(t *testing.T) {
	s := New(wasp.New(), 1)
	defer s.Close()
	defer func() {
		if r := recover(); r != "sched: SetVirtualWorkers is a virtual-mode primitive" {
			t.Fatalf("SetVirtualWorkers on a real-mode scheduler: recovered %v", r)
		}
	}()
	s.SetVirtualWorkers(2, 0)
}
