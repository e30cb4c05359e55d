// Placement determinism: virtual-mode multi-backend scheduling must be
// fully reproducible — same trace, fleet, and policy give bit-identical
// per-ticket cycle counts, worker/platform assignments, and makespans —
// and, like every other subsystem, identical virtual results under the
// cached and legacy interpreters. The split-fleet experiment's rows are
// pinned.
package virtines_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cycles"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/stats"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// placementPolicies are the three shipped policies, exercised on a 2+2
// KVM/Hyper-V split fleet.
func placementPolicies() map[string]placement.Placer {
	return map[string]placement.Placer{
		"static": placement.Static{Pins: map[string]string{
			serverless.PlacementShortImage().Name: "kvm",
			serverless.PlacementLongImage().Name:  "hyper-v",
		}},
		"least-loaded": placement.LeastLoaded{},
		"cost-model":   placement.CostModel{},
	}
}

// ticketKey is the comparable projection of one placed ticket.
type ticketKey struct {
	Worker      int
	Platform    string
	Start, Done uint64
	Cycles      uint64
	Image       string
}

// runPlacementOnce drives the mixed trace through a fresh split-fleet
// scheduler and projects every ticket.
func runPlacementOnce(t *testing.T, pl placement.Placer, legacy bool) ([]ticketKey, uint64) {
	t.Helper()
	opts := []wasp.Option{wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{})}
	if legacy {
		opts = append(opts, wasp.WithLegacyInterp(true))
	}
	w := wasp.New(opts...)
	s := sched.NewVirtual(w, 4,
		sched.WithWorkerPlatforms(vmm.KVM{}, vmm.HyperV{}),
		sched.WithPlacer(pl))
	defer s.Close()
	tickets := s.SubmitBatchAt(serverless.PlacementTrace(48, 8))
	out := make([]ticketKey, len(tickets))
	for i, tk := range tickets {
		res, err := tk.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		out[i] = ticketKey{
			Worker: tk.Worker, Platform: tk.Platform,
			Start: tk.Start, Done: tk.Done,
			Cycles: res.Cycles, Image: tk.Image,
		}
	}
	return out, s.Makespan()
}

// Same seed trace, same policy, fresh runtimes: bit-identical Cycles,
// Makespan, and per-worker assignment, twice over.
func TestPlacementPoliciesDeterministic(t *testing.T) {
	for name, pl := range placementPolicies() {
		a, ma := runPlacementOnce(t, pl, false)
		b, mb := runPlacementOnce(t, pl, false)
		if ma != mb {
			t.Fatalf("%s: makespan diverged across runs: %d vs %d", name, ma, mb)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ticket %d diverged:\n run1: %+v\n run2: %+v", name, i, a[i], b[i])
			}
		}
	}
}

// The full RunPlacementMix reports — latencies, per-backend slices,
// Jain — must also reproduce exactly.
func TestPlacementReportDeterministic(t *testing.T) {
	for name, pl := range placementPolicies() {
		run := func() *PlacementReport {
			w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
			rep, err := RunPlacementMix(w, name,
				[]vmm.Platform{vmm.KVM{}, vmm.HyperV{}, vmm.KVM{}, vmm.HyperV{}}, pl, 60, 10)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		if a, b := run(), run(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: placement report diverged:\n run1: %+v\n run2: %+v", name, a, b)
		}
	}
}

// The cached and legacy interpreters must agree on every placed
// ticket's virtual outcome — the placement layer inherits the
// differential guarantee of the rest of the stack.
func TestPlacementDifferentialLegacyInterp(t *testing.T) {
	for name, pl := range placementPolicies() {
		fast, mf := runPlacementOnce(t, pl, false)
		slow, ms := runPlacementOnce(t, pl, true)
		if mf != ms {
			t.Fatalf("%s: makespan divergence: cached %d, legacy %d", name, mf, ms)
		}
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("%s: ticket %d divergence:\n cached: %+v\n legacy: %+v", name, i, fast[i], slow[i])
			}
		}
	}
}

// The Migrating wrapper is stateful (pins, streaks, an LRU), so it does
// not live in the shared placementPolicies map — each run gets a fresh
// instance over a fresh fleet, and the sequential decision stream must
// still reproduce bit-identically, including the committed homes and
// migration count.
func TestMigratingPlacementDeterministic(t *testing.T) {
	run := func(legacy bool) ([]ticketKey, uint64, uint64) {
		pl := placement.NewMigrating(placement.CostModel{}, 3)
		keys, makespan := runPlacementOnce(t, pl, legacy)
		return keys, makespan, pl.Migrations()
	}
	a, ma, fa := run(false)
	b, mb, fb := run(false)
	if ma != mb || fa != fb {
		t.Fatalf("makespan/flips diverged across runs: %d/%d vs %d/%d", ma, fa, mb, fb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ticket %d diverged:\n run1: %+v\n run2: %+v", i, a[i], b[i])
		}
	}
	l, ml, fl := run(true)
	if ma != ml || fa != fl {
		t.Fatalf("cached/legacy divergence: makespan %d/%d, flips %d/%d", ma, ml, fa, fl)
	}
	for i := range a {
		if a[i] != l[i] {
			t.Fatalf("ticket %d cached/legacy divergence:\n cached: %+v\n legacy: %+v", i, a[i], l[i])
		}
	}
}

// placementMix pins TestPlacementSplitFleet's rows: workers, makespan
// ms, short and long p50 ms, runs on kvm and on hyper-v, shorts on kvm,
// Jain's index over the backends' capacity-normalized shares, and the
// makespan in cycles. The split rows moved when the pools stopped
// prewarming under bursts: those prewarms created clean shells on no
// clock, so the runs that took them skipped their zeroing for free.
var placementMix = map[string]string{
	"placement/kvm-only":           "2 0.79 0.43 0.36 138 0 120 1.00 2125179",
	"placement/hyperv-only":        "2 0.81 0.44 0.37 0 138 0 1.00 2191659",
	"placement/split static":       "4 0.43 0.18 0.22 120 18 120 1.00 1162780",
	"placement/split least-loaded": "4 0.42 0.21 0.19 72 66 63 1.00 1132964",
	"placement/split cost-model":   "4 0.42 0.21 0.20 83 55 76 1.00 1126512",
}

// TestPlacementSplitFleet: 120 short virtines, which feel the Fig 5
// create/entry/exit gap between backends, and 18 long ones, which
// amortize it, served by each homogeneous half-fleet and by the split
// KVM/Hyper-V fleet under each placement policy. One scheduler spanning
// both backends must beat either half-fleet, and the cost model must
// keep more shorts on the cheap-create backend than least-loaded does.
func TestPlacementSplitFleet(t *testing.T) {
	kvm, hv := vmm.KVM{}, vmm.HyperV{}
	split := []vmm.Platform{kvm, hv, kvm, hv}
	tb := &table{id: "placement", header: []string{"config", "workers", "makespan-ms",
		"short-p50-ms", "long-p50-ms", "kvm-runs", "hv-runs", "shorts-on-kvm", "jain", "makespan"}}
	makespan := map[string]uint64{}
	shortsOnKVM := map[string]uint64{}
	for _, cfg := range []struct {
		name  string
		fleet []vmm.Platform
		pl    placement.Placer
	}{
		{"kvm-only", []vmm.Platform{kvm, kvm}, nil},
		{"hyperv-only", []vmm.Platform{hv, hv}, nil},
		{"split static", split, placementPolicies()["static"]},
		{"split least-loaded", split, placement.LeastLoaded{}},
		{"split cost-model", split, placement.CostModel{}},
	} {
		rep, err := RunPlacementMix(wasp.New(wasp.WithPlatforms(kvm, hv)), cfg.name, cfg.fleet, cfg.pl, 120, 18)
		if err != nil {
			t.Fatal(err)
		}
		runsOn := map[string]uint64{}
		for _, sl := range rep.Backends {
			runsOn[sl.Platform] = sl.Runs
			if sl.Platform == kvm.Name() {
				shortsOnKVM[cfg.name] = sl.ShortRuns
			}
		}
		makespan[cfg.name] = rep.Makespan
		tb.add(cfg.name, fmt.Sprint(rep.Workers), f2(cycles.Millis(rep.Makespan)),
			f2(rep.ShortP50Ms), f2(rep.LongP50Ms), fmt.Sprint(runsOn[kvm.Name()]),
			fmt.Sprint(runsOn[hv.Name()]), fmt.Sprint(shortsOnKVM[cfg.name]), f2(rep.Jain),
			fmt.Sprint(rep.Makespan))
	}
	tb.check(t, placementMix)

	if cm := makespan["split cost-model"]; cm >= makespan["kvm-only"] || cm >= makespan["hyperv-only"] {
		t.Errorf("cost-model makespan %d does not beat the half-fleets (%d, %d)",
			cm, makespan["kvm-only"], makespan["hyperv-only"])
	}
	if shortsOnKVM["split cost-model"] <= shortsOnKVM["split least-loaded"] {
		t.Errorf("cost-model kept %d shorts on kvm, least-loaded %d",
			shortsOnKVM["split cost-model"], shortsOnKVM["split least-loaded"])
	}
}

// Static pinning is an invariant, not a preference: every short ran on
// KVM, every long on Hyper-V, across the whole trace.
func TestPlacementStaticPinInvariant(t *testing.T) {
	keys, _ := runPlacementOnce(t, placementPolicies()["static"], false)
	shortName := serverless.PlacementShortImage().Name
	for i, k := range keys {
		want := "hyper-v"
		if k.Image == shortName {
			want = "kvm"
		}
		if k.Platform != want {
			t.Fatalf("ticket %d (%s) ran on %s, pinned to %s", i, k.Image, k.Platform, want)
		}
	}
}

// BackendSlice is one hypervisor backend's slice of a placement run.
type BackendSlice struct {
	Platform string
	Workers  int
	Runs     uint64
	// ShortRuns counts the short-lived class's runs that landed here —
	// the class a cost-aware policy should steer to the cheap backend.
	ShortRuns uint64
	// SvcCycles is the total service time the backend's workers
	// delivered; Share normalizes it by the backend's capacity share of
	// the fleet (1.0 = exactly its proportional load).
	SvcCycles uint64
	Share     float64
}

// PlacementReport is one fleet configuration's run of the mixed trace.
type PlacementReport struct {
	Config  string
	Workers int
	// Makespan is the virtual time the last worker went idle.
	Makespan uint64
	// ShortP50Ms and LongP50Ms are median arrival→completion latencies
	// per workload class.
	ShortP50Ms, LongP50Ms float64
	Backends              []BackendSlice
	// Jain is Jain's fairness index over the backends' capacity-
	// normalized service shares: 1.0 when every backend carries exactly
	// its proportional load.
	Jain                float64
	Completed, Rejected uint64
}

// RunPlacementMix drives the mixed short/long trace through a
// virtual-mode scheduler whose workers are pinned round-robin to the
// given fleet platforms, under the given placement policy (nil for
// plain earliest-free dispatch). w must own every fleet platform
// (wasp.WithPlatforms). Fully deterministic: same trace, fleet, and
// policy produce bit-identical schedules.
func RunPlacementMix(w *wasp.Wasp, config string, fleet []vmm.Platform, pl placement.Placer, shorts, longs int) (*PlacementReport, error) {
	if len(fleet) == 0 {
		fleet = w.Platforms()
	}
	opts := []sched.Option{sched.WithWorkerPlatforms(fleet...)}
	if pl != nil {
		opts = append(opts, sched.WithPlacer(pl))
	}
	s := sched.NewVirtual(w, len(fleet), opts...)
	defer s.Close()

	shortName := serverless.PlacementShortImage().Name
	tickets := s.SubmitBatchAt(serverless.PlacementTrace(shorts, longs))

	rep := &PlacementReport{Config: config, Workers: len(fleet)}
	byPlat := make(map[string]*BackendSlice)
	for _, bl := range s.BackendLoads() {
		sl := &BackendSlice{Platform: bl.Platform, Workers: bl.Workers}
		byPlat[bl.Platform] = sl
	}
	var shortLat, longLat []float64
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			if errors.Is(err, sched.ErrPlacement) {
				rep.Rejected++
				continue
			}
			return nil, err
		}
		rep.Completed++
		sl := byPlat[tk.Platform]
		sl.Runs++
		sl.SvcCycles += tk.ServiceCycles()
		if tk.Image == shortName {
			sl.ShortRuns++
			shortLat = append(shortLat, float64(tk.Done-tk.Arrival))
		} else {
			longLat = append(longLat, float64(tk.Done-tk.Arrival))
		}
	}
	rep.Makespan = s.Makespan()
	rep.ShortP50Ms = cycles.Millis(uint64(stats.Percentile(shortLat, 50)))
	rep.LongP50Ms = cycles.Millis(uint64(stats.Percentile(longLat, 50)))

	var totalSvc uint64
	for _, sl := range byPlat {
		totalSvc += sl.SvcCycles
	}
	names := make([]string, 0, len(byPlat))
	for name := range byPlat {
		names = append(names, name)
	}
	sort.Strings(names)
	var shares []float64
	for _, name := range names {
		sl := byPlat[name]
		if totalSvc > 0 && sl.Workers > 0 {
			capShare := float64(sl.Workers) / float64(len(fleet))
			sl.Share = (float64(sl.SvcCycles) / float64(totalSvc)) / capShare
		}
		shares = append(shares, sl.Share)
		rep.Backends = append(rep.Backends, *sl)
	}
	rep.Jain = stats.Jain(shares)
	return rep, nil
}
