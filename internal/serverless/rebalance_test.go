package serverless

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cycles"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// The drift guest's hypercall count must actually follow its argument —
// that is the dial the whole rebalance experiment turns.
func TestDriftImageFollowsItsArgument(t *testing.T) {
	w := wasp.New()
	img := DriftImage()
	var lastEntries uint64
	for _, calls := range []uint64{1, 8, 40} {
		res, err := w.Run(img, wasp.RunConfig{Snapshot: true, RetBytes: 8, Args: driftArgs(calls)}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint64(res.Ret); got != calls {
			t.Fatalf("drift guest returned %d marks, args said %d", got, calls)
		}
		if res.Entries <= lastEntries {
			t.Fatalf("entries did not grow with the hypercall count: %d after %d", res.Entries, lastEntries)
		}
		lastEntries = res.Entries
	}
}

func rebalanceFleet() []vmm.Platform {
	return []vmm.Platform{vmm.KVM{}, vmm.Paravirt{}, vmm.KVM{}, vmm.Paravirt{}}
}

func runRebalance(t *testing.T, hysteresis int) *RebalanceReport {
	t.Helper()
	w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.Paravirt{}))
	rep, err := RunRebalanceMix(w, "test", rebalanceFleet(), hysteresis, 16)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The headline acceptance: under the drifting trace, the Migrating
// placer must flip the tenant to paravirt exactly once (shipping its
// snapshot as a 4,374-byte base-grafted delta) and beat the sticky
// baseline on BOTH makespan and drift-class p99. The pinned rows are
// workers, makespan ms, drift p50 and p99 ms, steady p50 ms, flips,
// bytes migrated, delta migrations, drift runs on paravirt, the
// tenant's final home and the makespan in cycles.
func TestRebalanceMigratingBeatsSticky(t *testing.T) {
	sticky := runRebalance(t, -1)
	mig := runRebalance(t, 3)
	row := func(name string, r *RebalanceReport) string {
		var onPV uint64
		for _, sl := range r.Backends {
			if sl.Platform == "paravirt" {
				onPV = sl.DriftRuns
			}
		}
		return fmt.Sprintf("%s %d %.2f %.2f %.2f %.2f %d %d %d %d %s %d", name, r.Workers,
			cycles.Millis(r.Makespan), r.DriftP50Ms, r.DriftP99Ms, r.SteadyP50Ms,
			r.Migrations, r.MigratedBytes, r.DeltaMigrations, onPV, r.FinalHome, r.Makespan)
	}
	pinRows(t, []string{row("sticky", sticky), row("migrating", mig)}, []string{
		"sticky 4 3.57 0.28 3.23 0.05 0 0 0 0 kvm 9596174",
		"migrating 4 1.08 0.09 0.87 0.05 1 4374 1 12 paravirt 2910650",
	})

	if sticky.Migrations != 0 || sticky.FinalHome != "kvm" {
		t.Fatalf("sticky baseline migrated (%d flips, home %s); negative hysteresis must pin the first preference",
			sticky.Migrations, sticky.FinalHome)
	}
	if mig.Migrations != 1 || mig.FinalHome != "paravirt" {
		t.Fatalf("migrating run: %d flips, final home %s; want exactly one flip to paravirt",
			mig.Migrations, mig.FinalHome)
	}
	if mig.DeltaMigrations != 1 || mig.MigratedBytes == 0 {
		t.Fatalf("flip shipped %d bytes, %d as delta; the pre-warmed base must make the migration delta-only",
			mig.MigratedBytes, mig.DeltaMigrations)
	}
	if mig.Makespan >= sticky.Makespan {
		t.Fatalf("makespan: migrating %d >= sticky %d", mig.Makespan, sticky.Makespan)
	}
	if mig.DriftP99Ms >= sticky.DriftP99Ms {
		t.Fatalf("drift p99: migrating %.3f ms >= sticky %.3f ms", mig.DriftP99Ms, sticky.DriftP99Ms)
	}
	var stickyPV, migPV uint64
	for _, sl := range sticky.Backends {
		if sl.Platform == "paravirt" {
			stickyPV = sl.DriftRuns
		}
	}
	for _, sl := range mig.Backends {
		if sl.Platform == "paravirt" {
			migPV = sl.DriftRuns
		}
	}
	if stickyPV != 0 {
		t.Fatalf("sticky baseline ran %d drift tickets on paravirt; the pin must strand them on kvm", stickyPV)
	}
	if migPV == 0 {
		t.Fatal("migrating run placed no drift tickets on paravirt after the flip")
	}
}

// Bit-identical reproducibility of the whole report, for both the
// sticky and the flipping configuration — the Migrating placer is
// stateful but sequential, and each run gets a fresh instance.
func TestRebalanceMixDeterministic(t *testing.T) {
	for _, h := range []int{-1, 3} {
		a := runRebalance(t, h)
		b := runRebalance(t, h)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("hysteresis %d: rebalance report diverged:\n run1: %+v\n run2: %+v", h, a, b)
		}
	}
}
