package wasp

import (
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/vmm"
)

// WithPlatforms must partition the shell pools per backend: a run on
// KVM parks its shell in the KVM pool only, and a subsequent Hyper-V
// run pays a cold create on its own platform rather than stealing the
// KVM shell.
func TestPerPlatformPoolsArePartitioned(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	img := guest.RealModeHalt()
	mem := img.MemBytes()

	if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if got := w.PoolSizeOn("kvm", mem); got != 1 {
		t.Fatalf("kvm pool = %d shells after a kvm run, want 1", got)
	}
	if got := w.PoolSizeOn("hyper-v", mem); got != 0 {
		t.Fatalf("hyper-v pool = %d shells after a kvm run, want 0", got)
	}

	// The Hyper-V run must cold-create (charging HVCreatePartition),
	// not reuse the parked KVM shell.
	clk := cycles.NewClock()
	if _, err := w.RunOn("hyper-v", img, RunConfig{}, clk); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < cycles.HVCreatePartition {
		t.Fatalf("hyper-v run cost %d cycles, below its create cost — it stole a warm shell", clk.Now())
	}
	if got := w.PoolSizeOn("kvm", mem); got != 1 {
		t.Fatalf("kvm pool = %d after the hyper-v run, want its shell untouched", got)
	}
	if got := w.PoolSizeOn("hyper-v", mem); got != 1 {
		t.Fatalf("hyper-v pool = %d after its run, want 1", got)
	}
	if got := w.PoolTotal(); got != 2 {
		t.Fatalf("PoolTotal = %d, want 2 (one shell per backend)", got)
	}

	// Warm on the right backend now: a second Hyper-V run must cost far
	// less than a create.
	clk = cycles.NewClock()
	if _, err := w.RunOn("hyper-v", img, RunConfig{}, clk); err != nil {
		t.Fatal(err)
	}
	if clk.Now() >= cycles.HVCreatePartition {
		t.Fatalf("warm hyper-v run cost %d cycles, want a pooled acquire", clk.Now())
	}
}

// Snapshots are captured per backend: the first run of an image on each
// platform pays its own capture; neither sees the other's registry.
func TestPerPlatformSnapshotsArePartitioned(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	// The guest snapshots (out 0x08) and exits, so the first run on a
	// backend captures and later runs on that backend restore.
	img := guest.MustFromAsm("plat-snap", guest.WrapLongMode(`
	out 0x08, rax
	movi rdi, 7
	out 0x00, rdi
	hlt
`))
	cfg := RunConfig{Snapshot: true}

	if _, err := w.RunOn("kvm", img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if !w.HasSnapshotOn("kvm", img.Name) {
		t.Fatal("kvm registry missing the captured snapshot")
	}
	if w.HasSnapshotOn("hyper-v", img.Name) {
		t.Fatal("hyper-v registry saw the kvm-side snapshot")
	}

	// First Hyper-V run must boot cold (no snapshot restore), then
	// capture into its own registry.
	res, err := w.RunOn("hyper-v", img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotUsed {
		t.Fatal("first hyper-v run restored a snapshot it never captured")
	}
	if !w.HasSnapshotOn("hyper-v", img.Name) {
		t.Fatal("hyper-v registry missing its own capture")
	}
	res, err = w.RunOn("hyper-v", img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotUsed {
		t.Fatal("second hyper-v run should restore its backend's snapshot")
	}
}

// PrewarmOn and ObserveLoadOn act on the named backend only.
func TestPrewarmOnIsPerBackend(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	const mem = 64 << 10
	if added := w.PrewarmOn("hyper-v", mem, 3); added != 3 {
		t.Fatalf("PrewarmOn added %d shells, want 3", added)
	}
	if got := w.PoolSizeOn("hyper-v", mem); got != 3 {
		t.Fatalf("hyper-v pool = %d, want 3", got)
	}
	if got := w.PoolSizeOn("kvm", mem); got != 0 {
		t.Fatalf("kvm pool = %d, want 0 (prewarm must not leak across backends)", got)
	}
	if added := w.PrewarmOn("xen", mem, 3); added != 0 {
		t.Fatal("prewarming an unknown platform must be a no-op")
	}
}

// RunOn with an unknown platform fails fast with a useful error.
func TestRunOnUnknownPlatform(t *testing.T) {
	w := New()
	_, err := w.RunOn("xen", guest.RealModeHalt(), RunConfig{}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "xen") {
		t.Fatalf("err = %v, want unknown-platform error naming xen", err)
	}
}

// Each backend gets its own Wasp+CA cleaner, and a released shell goes
// back to the pool of the platform it ran on, booked by that platform's
// cleaner only.
func TestPerPlatformCleaners(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}), WithAsyncClean(true))
	if got := len(w.Cleaners()); got != 2 {
		t.Fatalf("Cleaners() = %d, want one per backend", got)
	}
	if w.CleanerOn("kvm") == w.CleanerOn("hyper-v") {
		t.Fatal("backends must not share a cleaner")
	}
	img := guest.RealModeHalt()
	if _, err := w.RunOn("hyper-v", img, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if got := w.PoolSizeOn("hyper-v", img.MemBytes()); got != 1 {
		t.Fatalf("hyper-v pool = %d after the run, want its shell back", got)
	}
	if got := w.PoolSizeOn("kvm", img.MemBytes()); got != 0 {
		t.Fatalf("kvm pool = %d, want 0 (shell crossed platforms)", got)
	}
	if hv, kvm := w.CleanerOn("hyper-v").Enqueued(), w.CleanerOn("kvm").Enqueued(); hv != 1 || kvm != 0 {
		t.Fatalf("releases booked: hyper-v %d, kvm %d; want 1, 0", hv, kvm)
	}
}

// TestCrossBackendShellFailsRun plants a Hyper-V shell in the KVM pool,
// which release never does: the run that finds it fails with an error
// instead of a panic, the shell is dropped, and the next run on the
// backend cold-creates its own.
func TestCrossBackendShellFailsRun(t *testing.T) {
	for _, async := range []bool{false, true} {
		w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}), WithAsyncClean(async))
		img := guest.RealModeHalt()
		mem := img.MemBytes()
		w.byPlat["kvm"].pools.put(mem, &shell{ctx: vmm.CreateOn(vmm.HyperV{}, mem, cycles.NewClock()), dirty: true})
		_, err := w.RunOn("kvm", img, RunConfig{}, cycles.NewClock())
		if err == nil || !strings.Contains(err.Error(), "hyper-v shell crossed into the kvm pool") {
			t.Fatalf("async=%v: err = %v, want the crossed-shell error", async, err)
		}
		if n := w.PoolTotal(); n != 0 {
			t.Fatalf("async=%v: %d shells pooled after the failed run, want the foreign one dropped", async, n)
		}
		if _, err := w.RunOn("kvm", img, RunConfig{}, cycles.NewClock()); err != nil {
			t.Fatalf("async=%v: run after the drop: %v", async, err)
		}
		if kvm, hv := w.PoolSizeOn("kvm", mem), w.PoolSizeOn("hyper-v", mem); kvm != 1 || hv != 0 {
			t.Fatalf("async=%v: pools kvm %d, hyper-v %d; want 1, 0", async, kvm, hv)
		}
	}
}

// Content-hash keyed decoded-code sharing: tenant clones made with
// WithName must decode once per content, not once per name. The merge
// counter is the decode-harvest count — a second name over the same
// bytes must not add an entry or a merge.
func TestCodeCacheSharedAcrossTenantClones(t *testing.T) {
	w := New()
	img := guest.MinimalHalt()
	if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	cs := w.CodeCacheStats()
	if cs.Entries != 1 || cs.Merges != 1 {
		t.Fatalf("after first run: entries=%d merges=%d, want 1/1", cs.Entries, cs.Merges)
	}

	clone := img.WithName(img.Name + "@tenant-b")
	res, err := w.Run(clone, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("clone run exit = %d", res.ExitCode)
	}
	cs = w.CodeCacheStats()
	if cs.Entries != 1 || cs.Merges != 1 {
		t.Fatalf("after clone run: entries=%d merges=%d, want 1/1 (clone re-decoded)", cs.Entries, cs.Merges)
	}

	// A genuinely different image must get its own entry.
	other := guest.MinimalHaltProtected()
	if _, err := w.Run(other, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if cs = w.CodeCacheStats(); cs.Entries != 2 {
		t.Fatalf("after a distinct image: entries=%d, want 2", cs.Entries)
	}
}

// ContentKey must ignore names and padding but track content.
func TestContentKeySemantics(t *testing.T) {
	a := guest.MinimalHalt()
	if a.ContentKey() != a.WithName("renamed").ContentKey() {
		t.Fatal("renamed clone must share its source's content key")
	}
	if a.ContentKey() != a.WithPad(1<<20).ContentKey() {
		t.Fatal("padding must not change the content key (pad pages hold no code)")
	}
	if a.ContentKey() == guest.MinimalHaltProtected().ContentKey() {
		t.Fatal("different binaries must not share a content key")
	}
}
