package wasp

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// refCapture is the capture vmm.Context.Capture replaced, kept as the
// reference its shortcuts must match: every page's captured bytes are
// hashed, and the page is owned when its key differs from the parent's.
// It returns every page's resolved key and the owned keys, and touches
// no store.
func refCapture(parent *vmm.Layer, mem []byte, windows []vmm.Window) ([]vmm.PageKey, map[int]vmm.PageKey) {
	snap := make([]byte, len(mem))
	for _, w := range windows {
		copy(snap[w.Lo:w.Hi], mem[w.Lo:w.Hi])
	}
	inParent := map[int]vmm.PageKey{}
	if parent != nil {
		for _, e := range parent.ResolvedTable() {
			inParent[e.Idx] = e.Page.Key()
		}
	}
	keys := make([]vmm.PageKey, (len(mem)+vmm.PageSize-1)/vmm.PageSize)
	own := map[int]vmm.PageKey{}
	for p := range keys {
		keys[p] = vmm.ZeroKey
		if view := snap[p*vmm.PageSize : min(p*vmm.PageSize+vmm.PageSize, len(snap))]; !bytes.Equal(view, make([]byte, len(view))) {
			keys[p] = vmm.HashPage(view)
		}
		pk, ok := inParent[p]
		if !ok {
			pk = vmm.ZeroKey
		}
		if keys[p] != pk {
			own[p] = keys[p]
		}
	}
	return keys, own
}

// matchesRefCapture checks a captured layer against refCapture over the
// memory the capture read.
func matchesRefCapture(l *vmm.Layer, mem []byte, windows []vmm.Window) error {
	keys, own := refCapture(l.Parent(), mem, windows)
	got := make([]vmm.PageKey, len(keys))
	for p := range got {
		got[p] = vmm.ZeroKey
	}
	for _, e := range l.ResolvedTable() {
		got[e.Idx] = e.Page.Key()
	}
	for p := range keys {
		if got[p] != keys[p] {
			return fmt.Errorf("captured page %d resolves to %x, the reference capture to %x", p, got[p][:4], keys[p][:4])
		}
	}
	table := l.OwnTable()
	if len(table) != len(own) {
		return fmt.Errorf("captured layer owns %d pages, the reference capture %d", len(table), len(own))
	}
	for _, e := range table {
		if key, ok := own[e.Idx]; !ok || key != e.Page.Key() {
			return fmt.Errorf("captured layer owns page %d, the reference capture does not own it as such", e.Idx)
		}
	}
	return nil
}

// checkBeforeCapture makes every capture for the rest of the test first
// check the capturing shell against its content record, which capture
// trusts. It returns the first mismatch seen so far.
func checkBeforeCapture(t *testing.T) func() error {
	var mu sync.Mutex
	var first error
	captureGate = func(ctx *vmm.Context) {
		if err := ctx.CheckContent(); err != nil {
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("capturing shell: %w", err)
			}
			mu.Unlock()
		}
	}
	t.Cleanup(func() { captureGate = nil })
	return func() error {
		mu.Lock()
		defer mu.Unlock()
		return first
	}
}

// readoptImg snapshots twice in a row, then returns its argument.
func readoptImg() *guest.Image {
	return guest.MustFromAsm("readopt", guest.WrapLongMode(`
	out 0x08, rdi        ; snapshot()
	out 0x08, rdi        ; snapshot() again, memory untouched
	movi rbx, 0x0
	load rax, [rbx]
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
}

// TestCaptureReadoptsDroppedSnapshotPage: a tenant's first snapshot is
// dropped between its two snapshot calls, so the second capture finds
// its shell recording store pages the store has freed. It must store the
// very same pages again without hashing anything, leave the forest
// verifiable and the tenant restorable, and dropping the tenant must
// return the forest to its baseline.
func TestCaptureReadoptsDroppedSnapshotPage(t *testing.T) {
	w := New()
	be := w.backends[0]
	img := readoptImg()
	if _, err := w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(1)}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	baseline := w.ForestStats()

	tenant := img.WithName("readopt-tenant")
	env := hypercall.NewEnv()
	var dropped []*vmm.Page
	var hashedBefore uint64
	handler := hypercall.HandlerFunc(func(call hypercall.Args, mem hypercall.GuestMem) (uint64, error) {
		if call.Nr == hypercall.NrSnapshot && dropped == nil {
			snap := be.snapshots.get(tenant.Name)
			for _, e := range snap.layer.OwnTable() {
				dropped = append(dropped, e.Page)
			}
			snap.release()
			w.DropSnapshot(tenant.Name)
			hashedBefore = be.pages.hashed.Load()
		}
		return env.Handle(call, mem)
	})
	if _, err := w.Run(tenant, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(7), Env: env, Handler: handler}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if len(dropped) == 0 || dropped[0] == nil {
		t.Fatalf("the first capture owns %v: want the tenant's argument page", dropped)
	}
	if n := be.pages.hashed.Load() - hashedBefore; n != 0 {
		t.Fatalf("the second capture hashed %d pages of untouched memory", n)
	}
	snap := be.snapshots.get(tenant.Name)
	table := snap.layer.OwnTable()
	snap.release()
	if len(table) != len(dropped) {
		t.Fatalf("second capture owns %d pages, the first %d", len(table), len(dropped))
	}
	for i, e := range table {
		if e.Page != dropped[i] {
			t.Fatalf("owned page %d is not the dropped snapshot's page re-adopted", e.Idx)
		}
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(tenant, RunConfig{Snapshot: true, RetBytes: 8}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotUsed || fromLE64(res.Ret) != 7 {
		t.Fatalf("restored tenant: used %v, ret %d", res.SnapshotUsed, fromLE64(res.Ret))
	}
	w.DropSnapshot(tenant.Name)
	if got := w.ForestStats(); got.StorePages != baseline.StorePages || got.Snapshots != baseline.Snapshots {
		t.Fatalf("forest at %+v after the tenant was dropped, baseline %+v", got, baseline)
	}
}

// TestCaptureCountsPagesHashed: the snap-capture instants carry, as
// their second argument, the pages each capture hashed, and the
// registry's wasp_capture_pages_hashed/_reused add up every capture. A
// tenant clone of a captured binary hashes only its delta.
func TestCaptureCountsPagesHashed(t *testing.T) {
	tr := obs.NewTracer(obs.Deterministic(true))
	tr.SetEnabled(true)
	w := New(WithTracer(tr))
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	img := tenantImg("hash-count")
	const tenants = 4
	for i := 0; i < tenants; i++ {
		if _, err := w.Run(img.WithName(fmt.Sprintf("hash-count-%d", i)), RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(i + 1))}, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
	}
	var perCapture []uint64
	var sum uint64
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			if tr.NameOf(e.Name) == "snap-capture" {
				perCapture = append(perCapture, e.Arg1)
				sum += e.Arg1
			}
		}
	}
	got := map[string]float64{}
	for _, m := range reg.Snapshot() {
		got[m.Name] = m.Value
	}
	if len(perCapture) != tenants || got["wasp_capture_pages_hashed{platform=kvm}"] != float64(sum) {
		t.Fatalf("%d snap-capture instants hashing %v pages; registry hashed %v", len(perCapture), perCapture, got["wasp_capture_pages_hashed{platform=kvm}"])
	}
	if got["wasp_capture_pages_reused{platform=kvm}"] == 0 {
		t.Fatal("no capture took a page from its shell's content record")
	}
	for i, n := range perCapture[1:] {
		if n > 2 {
			t.Fatalf("tenant clone %d hashed %d pages; its delta is its argument page and stack", i+1, n)
		}
	}
}

// forkAsm is BenchmarkForkLifecycle's tenant: its first run writes its
// id into two heap pages and snapshots; every run then dirties a third
// and returns the id.
const forkAsm = `
	movi rbx, 0x0
	load rax, [rbx]      ; the tenant id, the first run's argument
	movi rbx, 0x6000
	store [rbx], rax
	movi rbx, 0x7000
	store [rbx], rax
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6000
	load rax, [rbx]
	movi rbx, 0x8000
	store [rbx], rax
	movi rbx, 0x4000
	store [rbx], rax     ; ret = the tenant id the snapshot holds
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// forkLifecycle is fork_storm's request in miniature on a fresh
// two-backend COW runtime whose base layer is warm on both backends:
// lifecycle(id) boots and captures a new tenant on kvm, runs it again as
// a COW reset, migrates it to hyper-v as a delta, restores it there and
// drops it, returning the blob bytes shipped. ids start at 2; hashes
// reads the pages hashed so far (captures plus the importer's
// re-hashes).
func forkLifecycle(tb testing.TB) (lifecycle func(id uint64) int, hashes func() uint64) {
	kvm, hv := vmm.KVM{}.Name(), vmm.HyperV{}.Name()
	w := New(WithCOW(true), WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	base := guest.MustFromAsm("fork", guest.WrapLongMode(forkAsm))
	run := func(platform string, img *guest.Image, id uint64, restored bool) {
		res, err := w.RunOn(platform, img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(id)}, cycles.NewClock())
		if err != nil {
			tb.Fatal(err)
		}
		if fromLE64(res.Ret) != id || res.SnapshotUsed != restored {
			tb.Fatalf("%s on %s: ret %d, restored %v", img.Name, platform, fromLE64(res.Ret), res.SnapshotUsed)
		}
	}
	run(kvm, base, 1, false)
	run(hv, base, 1, false)
	src, dst := w.byPlat[kvm], w.byPlat[hv]
	hashes = func() uint64 {
		return src.pages.hashed.Load() + dst.pages.hashed.Load() + dst.forest.Inserted() + dst.forest.DedupHits()
	}
	lifecycle = func(id uint64) int {
		tn := base.WithName("fork-" + strconv.FormatUint(id, 10))
		run(kvm, tn, id, false)
		run(kvm, tn, id, true)
		n, delta, err := w.MigrateSnapshot(tn.Name, kvm, hv)
		if err != nil || !delta {
			tb.Fatalf("migrating %s: delta %v, err %v", tn.Name, delta, err)
		}
		run(hv, tn, id, true)
		w.DropSnapshot(tn.Name)
		return n
	}
	return lifecycle, hashes
}

// BenchmarkForkLifecycle times forkLifecycle's tenant lifecycle and
// reports the pages hashed per lifecycle and the blob bytes shipped
// beside ns/op.
func BenchmarkForkLifecycle(b *testing.B) {
	lifecycle, hashes := forkLifecycle(b)
	hashed0 := hashes()
	var shipped int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shipped += lifecycle(uint64(i + 2))
	}
	b.ReportMetric(float64(hashes()-hashed0)/float64(b.N), "hashes/op")
	b.ReportMetric(float64(shipped)/float64(b.N), "blob-B/op")
}

// TestForkLifecycleAllocs gates forkLifecycle's tenant lifecycle (four
// runs, a delta migration and a drop) at the allocations it makes now,
// tenant name included: a per-run or per-page allocation added anywhere
// on fork_storm's path shows up here. Under the race detector the count
// varies by a few from run to run, so the gate holds only without it.
func TestForkLifecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	lifecycle, _ := forkLifecycle(t)
	id := uint64(1)
	n := testing.AllocsPerRun(20, func() {
		id++
		lifecycle(id)
	})
	t.Logf("%v allocations per lifecycle", n)
	if n > 88 {
		t.Fatalf("a tenant lifecycle makes %v allocations, want at most 88", n)
	}
}
