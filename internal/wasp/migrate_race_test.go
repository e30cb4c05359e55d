package wasp

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/vmm"
)

// TestMigrateSnapshotRaceWithDropAndRecapture is the regression test for
// the MigrateSnapshot TOCTOU: the pre-fix code released its snapshot
// retain after the deltaOnly decision and let the export path re-fetch
// the snapshot by name, so a DropSnapshot landing in that window made
// the export fail on a snapshot the migration had already validated
// (the platform-less "no snapshot" error), and a re-capture landing
// there made it export a snapshot other than the one it decided about.
// The fix holds one retain across decision + export; afterwards the
// only tolerated failure is the *initial* lookup losing the race to a
// drop, whose error names the source platform.
//
// The hammer aims a drop at every single migration: each migrator
// re-imports a pre-serialized snapshot blob (cheap re-capture, no guest
// run), then kicks a paired dropper so DropSnapshot runs concurrently
// with MigrateSnapshot. Over thousands of attempts the drop lands at
// every point of the migration, including the decision→export window.
//
// Run under -race: beyond the semantic check, the hammering also guards
// the registry/forest locking on the migration path.
func TestMigrateSnapshotRaceWithDropAndRecapture(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	kvm, hyperv := vmm.KVM{}.Name(), vmm.HyperV{}.Name()

	base := tenantImg("migrace-base")
	cfg := func(arg uint64) RunConfig {
		return RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}
	}
	// Both backends capture the shared base layer so tenant deltas can
	// graft in either direction.
	if _, err := w.RunOn(kvm, base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOn(hyperv, base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	tenant := base.WithName("migrace-tenant")
	if _, err := w.RunOn(kvm, tenant, cfg(2), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	// Serialize the tenant snapshot once; the hammer re-imports this
	// blob as its cheap re-capture path.
	blob, err := w.ExportSnapshotOn(kvm, tenant.Name, false)
	if err != nil {
		t.Fatal(err)
	}

	const (
		migrators  = 4
		iterations = 1000
	)
	errs := make(chan error, migrators)

	var wg sync.WaitGroup
	for g := 0; g < migrators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			kick := make(chan struct{})
			dropped := make(chan struct{})
			go func() {
				for range kick {
					w.DropSnapshot(tenant.Name)
					dropped <- struct{}{}
				}
			}()
			defer close(kick)
			for i := 0; i < iterations; i++ {
				if err := w.ImportSnapshotOn(kvm, tenant.Name, blob); err != nil {
					errs <- err
					return
				}
				kick <- struct{}{}
				_, _, err := w.MigrateSnapshot(tenant.Name, kvm, hyperv)
				<-dropped
				if err == nil {
					continue
				}
				// The initial lookup losing to a concurrent drop is the
				// one benign race; its error names the source platform.
				// The pre-fix TOCTOU instead failed inside the export
				// (platform-less "no snapshot" error) or the graft.
				if strings.Contains(err.Error(), "on "+kvm) {
					continue
				}
				errs <- err
				return
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatalf("migration raced with drop/re-capture: %v", err)
	default:
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatalf("forest corrupted by migration hammering: %v", err)
	}
}

// TestMigrateSnapshotSurvivesDropInExportWindow pins the TOCTOU
// deterministically: migrateExportGate parks a DropSnapshot exactly
// between MigrateSnapshot's wire-form decision and its export. Pre-fix
// the export re-fetched the snapshot by name, so the drop made it fail
// with the platform-less "no snapshot" error on a snapshot the
// migration had already validated; post-fix the migration holds one
// retain across the whole window, so it must succeed and ship the
// snapshot it decided about.
func TestMigrateSnapshotSurvivesDropInExportWindow(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	kvm, hyperv := vmm.KVM{}.Name(), vmm.HyperV{}.Name()

	base := tenantImg("miggate-base")
	cfg := func(arg uint64) RunConfig {
		return RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}
	}
	if _, err := w.RunOn(kvm, base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOn(hyperv, base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	tenant := base.WithName("miggate-tenant")
	if res, err := w.RunOn(kvm, tenant, cfg(21), cycles.NewClock()); err != nil {
		t.Fatal(err)
	} else if got := fromLE64(res.Ret); got != 42 {
		t.Fatalf("tenant run returned %d, want 42", got)
	}

	gateFired := false
	migrateExportGate = func() {
		gateFired = true
		w.DropSnapshot(tenant.Name)
	}
	defer func() { migrateExportGate = nil }()

	shipped, deltaOnly, err := w.MigrateSnapshot(tenant.Name, kvm, hyperv)
	migrateExportGate = nil
	if !gateFired {
		t.Fatal("migrateExportGate never fired")
	}
	if err != nil {
		t.Fatalf("MigrateSnapshot lost its snapshot to a drop it had already validated against: %v", err)
	}
	if !deltaOnly {
		t.Fatal("expected a delta-only ship: both backends hold the base layer")
	}
	if shipped == 0 {
		t.Fatal("migration shipped zero bytes")
	}
	// The drop really landed inside the window: the source registry no
	// longer holds the snapshot the migration nonetheless shipped.
	if hasSnapshot(w.byPlat[kvm], tenant.Name) {
		t.Fatal("gate's DropSnapshot did not take effect on the source registry")
	}
	if !hasSnapshot(w.byPlat[hyperv], tenant.Name) {
		t.Fatal("target backend has no snapshot after migration")
	}
	res, err := w.RunOn(hyperv, tenant, cfg(30), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotUsed || fromLE64(res.Ret) != 60 {
		t.Fatalf("migrated tenant on %s: used=%v ret=%d, want used=true ret=60",
			hyperv, res.SnapshotUsed, fromLE64(res.Ret))
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatalf("forest inconsistent after gated migration: %v", err)
	}
}
