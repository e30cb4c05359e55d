package wasp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// The default backend's Wasp+CA ledger series in the registry.
const (
	pendingKVM = "wasp_clean_pending{platform=kvm}"
	cleanedKVM = "wasp_clean_cleaned{platform=kvm}"
)

// metric reads one instrument of w's registry (-1 when absent).
func metric(w *Wasp, name string) float64 {
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// argSnapshotAsm copies its argument word to 0x6000 before snapshot()
// and returns [0x6000] after it, so a restored run reports the argument
// of whichever run captured the snapshot it resumed from.
const argSnapshotAsm = `
	movi rbx, 0x0
	load rax, [rbx]
	movi rbx, 0x6000
	store [rbx], rax
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6000
	load rax, [rbx]
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// A snapshot that leaves its registry — imported over, migrated onto,
// re-captured or dropped — sends the COW shell parked on it to the pool
// at once, and a run that parks on a snapshot its registry has just let
// go pools its shell instead. Either way the next run resumes from the
// replacing snapshot.
func TestReplacedSnapshotReleasesParkedShell(t *testing.T) {
	img := guest.MustFromAsm("parked-tenant", guest.WrapLongMode(argSnapshotAsm))
	kvm, hyperv := vmm.KVM{}.Name(), vmm.HyperV{}.Name()
	src := New()
	if _, err := src.Run(img, RunConfig{Snapshot: true, Args: le64(200)}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportSnapshotOn("", img.Name, false)
	if err != nil {
		t.Fatal(err)
	}

	w := New(WithCOW(true), WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	run := func(platform string, arg uint64) uint64 {
		t.Helper()
		res, err := w.RunOn(platform, img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if err := checkRuntime(w); err != nil {
			t.Fatal(err)
		}
		return fromLE64(res.Ret)
	}
	// step runs one case and requires each named backend's pool to grow
	// by exactly one shell across it, and then the next run there to
	// return want.
	step := func(name string, do func(), want uint64, platforms ...string) {
		t.Helper()
		before := map[string]float64{}
		for _, p := range platforms {
			before[p] = metric(w, "wasp_pool_shells{platform="+p+"}")
		}
		do()
		for _, p := range platforms {
			if got := metric(w, "wasp_pool_shells{platform="+p+"}"); got != before[p]+1 {
				t.Fatalf("%s: %s pools %v shells, want %v (the replaced snapshot's parked shell)", name, p, got, before[p]+1)
			}
		}
		if err := checkRuntime(w); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range platforms {
			if got := run(p, 9); got != want {
				t.Fatalf("%s: the next %s run returned %d, want %d", name, p, got, want)
			}
		}
	}

	// A re-capture: a first run that looked for a snapshot before there
	// was one captures over the one another first run captured and parked
	// on meanwhile. The second run then parks on its own capture.
	step("re-capture", func() {
		firstExitGate = func(*vmm.Context) {
			firstExitGate = nil
			if got := run(kvm, 100); got != 100 {
				t.Errorf("the inner first run returned %d", got)
			}
		}
		defer func() { firstExitGate = nil }()
		run(kvm, 1)
	}, 1, kvm)
	run(hyperv, 300) // parks a shell on hyper-v's snapshot too
	if parkedShells(w) != 2 {
		t.Fatalf("%d parked shells, want one per backend", parkedShells(w))
	}
	step("import", func() {
		if err := w.ImportSnapshotOn(kvm, img.Name, blob); err != nil {
			t.Fatal(err)
		}
	}, 200, kvm)
	step("migrate", func() {
		if _, _, err := w.MigrateSnapshot(img.Name, kvm, hyperv); err != nil {
			t.Fatal(err)
		}
	}, 200, hyperv)
	// A run whose snapshot is imported over while it runs ends with no
	// snapshot to park on: its shell goes to the pool.
	step("import mid-run", func() {
		firstExitGate = func(*vmm.Context) {
			firstExitGate = nil
			if err := w.ImportSnapshotOn(kvm, img.Name, blob); err != nil {
				t.Error(err)
			}
		}
		defer func() { firstExitGate = nil }()
		if got := run(kvm, 5); got != 200 {
			t.Fatalf("the run imported over returned %d", got)
		}
	}, 200, kvm)
	run(kvm, 9) // parks on the snapshot the last import installed
	step("drop", func() { w.DropSnapshot(img.Name) }, 9, kvm, hyperv)
}

// Runs, re-imports and drops of one COW tenant race on a runtime whose
// parked shells checkRuntime also takes and puts back. Every run returns
// the argument some snapshot was captured with, and afterwards every
// shell the runtime created is pooled or parked on a snapshot its
// registry holds: none is stranded on one it let go.
func TestParkedShellRace(t *testing.T) {
	img := guest.MustFromAsm("parked-race", guest.WrapLongMode(argSnapshotAsm))
	src := New()
	if _, err := src.Run(img, RunConfig{Snapshot: true, Args: le64(1 << 40)}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	blob, err := src.ExportSnapshotOn("", img.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	tr.SetEnabled(true)
	w := New(WithCOW(true), WithTracer(tr))
	const goroutines, steps = 4, 40
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range steps {
				var err error
				switch (g + i) % 4 {
				case 2:
					err = w.ImportSnapshotOn("", img.Name, blob)
				case 3:
					w.DropSnapshot(img.Name)
				default:
					var res *Result
					res, err = w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(g*steps + i + 1))}, cycles.NewClock())
					if err == nil {
						if got := fromLE64(res.Ret); got != 1<<40 && (got == 0 || got > goroutines*steps) {
							err = fmt.Errorf("run returned %d, no snapshot's argument", got)
						}
					}
				}
				if err == nil {
					err = checkRuntime(w)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	created := 0
	for _, le := range tr.Events() {
		if le.Dropped != 0 { // ~350 control-lane events of the default 1,024
			t.Fatalf("lane %d dropped %d events: the shell count is incomplete", le.Lane, le.Dropped)
		}
		for _, e := range le.Events {
			if tr.NameOf(e.Name) == "shell-cold" {
				created++
			}
		}
	}
	if held := w.PoolTotal() + parkedShells(w) + int(w.PoolDropped()); held != created {
		t.Fatalf("%d shells created, %d pooled, %d parked and %d dropped: the rest are stranded",
			created, w.PoolTotal(), parkedShells(w), w.PoolDropped())
	}
}

// markedImage is a small protected-mode image, distinct per n, that marks
// and exits: every first cold boot of it records its stub.
func markedImage(n int) *guest.Image {
	return guest.MustFromAsm(fmt.Sprintf("churn-%05d", n), guest.WrapProtected(fmt.Sprintf(`
	movi rax, %d
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 1
	out 0x0B, rdi        ; mark(1)
	movi rdi, 0
	out 0x00, rdi
	hlt
`, n+1)))
}

// Ten thousand distinct images through one backend keep its content
// registry, and the decoded-code registry, at the bound: the store holds
// the same pages after 10,000 images as after 1,000, every entry past the
// bound is counted evicted, and an evicted image's next run equals its
// run on a fresh runtime.
func TestContentRegistryBounded(t *testing.T) {
	w := New(WithPooling(false)) // a fresh runtime's runs create their shells too
	be := w.backends[0]
	var at1k ForestStats
	for i := range 10_000 {
		res, err := w.Run(markedImage(i), RunConfig{Snapshot: true, RetBytes: 8}, cycles.NewClock())
		if err != nil || fromLE64(res.Ret) != uint64(i+1) {
			t.Fatalf("image %d: %v", i, err)
		}
		n := i + 1
		if got := contentEntries(be); got != min(n, contentCap) {
			t.Fatalf("after %d images: %d content entries, bound %d", n, got, contentCap)
		}
		// Every invariant across the first evictions, then every 1,000
		// images: VerifyForest re-hashes the whole store.
		if n <= 4*contentCap || n%1000 == 0 {
			if err := checkRuntime(w); err != nil {
				t.Fatalf("after %d images: %v", n, err)
			}
		}
		if n == 1000 {
			at1k = w.ForestStats()
		}
	}
	if n := w.CodeCacheStats().Entries; n > contentCap {
		t.Fatalf("after 10,000 images: %d decoded-code entries, bound %d", n, contentCap)
	}
	st := w.ForestStats()
	if st.StorePages != at1k.StorePages || st.BaseLayers != at1k.BaseLayers {
		t.Fatalf("after 10,000 images: %d store pages and %d base layers; after 1,000: %d and %d",
			st.StorePages, st.BaseLayers, at1k.StorePages, at1k.BaseLayers)
	}
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	for _, m := range reg.Snapshot() {
		if m.Name == "wasp_content_evicted{platform=kvm}" && m.Value != 10_000-contentCap {
			t.Fatalf("%v entries evicted, want %d", m.Value, 10_000-contentCap)
		}
	}
	if n := be.content.evicted.Load(); n != 10_000-contentCap {
		t.Fatalf("%d entries evicted, want %d", n, 10_000-contentCap)
	}
	churned := markedImage(0)
	fresh := New(WithPooling(false))
	for run := 0; run < 2; run++ { // the boot executes and records again, then replays
		got, err := w.Run(churned, RunConfig{Snapshot: true, RetBytes: 8}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(churned, RunConfig{Snapshot: true, RetBytes: 8}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		// JIT is the compiled tier's host-side activity, which the
		// churned runtime's decoded-code registry spares it.
		got.JIT, want.JIT = cpu.JITStats{}, cpu.JITStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d of the churned image: %+v; on a fresh runtime %+v", run, got, want)
		}
	}
}

// contentTenantAsm marks, snapshots, and doubles its argument: its clones
// replay the boot stub, then capture as deltas over the content's base.
const contentTenantAsm = `
	movi rdi, 1
	out 0x0B, rdi        ; mark(1)
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x0
	load rax, [rbx]
	add rax, rax
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// One goroutine keeps replaying content A's boot and capturing and
// restoring A's clones while others churn A's entry — its recording and
// its base — out of the bound. Every result equals the Legacy engine's
// on a runtime that records nothing, and the forest stays clean.
func TestContentChurnRace(t *testing.T) {
	fast, slow := New(WithPooling(false)), New(WithPooling(false), WithLegacyInterp(true))
	a := guest.MustFromAsm("content-a", guest.WrapLongMode(contentTenantAsm))
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 150 {
				if _, err := fast.Run(markedImage(g*1000+i), RunConfig{}, cycles.NewClock()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range 60 {
		img := a.WithName(fmt.Sprintf("content-a-%02d", i))
		for run := 0; run < 2; run++ { // a replayed boot and a capture, then a restore
			cfg := RunConfig{Snapshot: true, RetBytes: 8, Args: le64(7)}
			got, err := fast.Run(img, cfg, cycles.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			want, err := slow.Run(img, cfg, cycles.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			got.JIT, want.JIT = cpu.JITStats{}, cpu.JITStats{} // Legacy compiles nothing
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s run %d: %+v; Legacy %+v", img.Name, run, got, want)
			}
		}
		if err := checkRuntime(fast); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := checkRuntime(fast); err != nil {
		t.Fatal(err)
	}
	if fast.backends[0].content.evicted.Load() == 0 || fast.backends[0].content.replays.Load() == 0 {
		t.Fatal("the churn evicted nothing, or content A never replayed")
	}
}
