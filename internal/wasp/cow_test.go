package wasp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// cowImage mutates memory after its snapshot so a COW reset has real work
// to undo: it increments a counter at 0x6000 post-snapshot and reports it.
const cowCounterAsm = `
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6000
	load rax, [rbx]
	inc rax
	store [rbx], rax
	movi rbx, 0x4000
	store [rbx], rax     ; ret = counter after increment
	movi rdi, 0
	out 0x00, rdi
	hlt
`

func cowImg(name string) *guest.Image {
	return guest.MustFromAsm(name, guest.WrapLongMode(cowCounterAsm))
}

func TestCOWResetIsolation(t *testing.T) {
	// With COW on, each run must still observe pristine snapshot state:
	// the post-snapshot counter increment may never leak into the next
	// run, even though the context is reused without zeroing.
	w := New(WithCOW(true))
	img := cowImg("cow-iso")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	for i := 0; i < 5; i++ {
		res, err := w.Run(img, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if got := fromLE64(res.Ret); got != 1 {
			t.Fatalf("run %d: counter = %d; COW reset leaked state", i, got)
		}
		// A parked COW shell is never cleaned, so its entry/exit counters
		// keep counting; the result must still report this run's own: the
		// cold run enters twice (boot→snapshot, snapshot→exit), every
		// reset run once.
		want := uint64(1)
		if i == 0 {
			want = 2
		}
		if res.Entries != want || res.IOExits != want {
			t.Fatalf("run %d: Entries=%d IOExits=%d, want %d each (cumulative shell counters leaked)",
				i, res.Entries, res.IOExits, want)
		}
	}
}

func TestCOWCopiesOnlyDirtyPages(t *testing.T) {
	w := New(WithCOW(true))
	img := cowImg("cow-pages")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	// Run 1: cold boot + capture. Run 2: full restore? No — with COW the
	// context was parked after run 1 with a resident snapshot, so run 2
	// already resets incrementally.
	if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotUsed {
		t.Fatal("snapshot not used")
	}
	if res.COWPages == 0 {
		t.Fatal("expected an incremental COW reset")
	}
	// The guest touches a handful of pages (counter, ret region, stack,
	// args); far fewer than the ~12 pages of the captured footprint.
	if res.COWPages > 8 {
		t.Fatalf("COW copied %d pages; dirty tracking too coarse", res.COWPages)
	}
	// Every reset is a new restore point, so every run of the tenant
	// dirties — and reports — the same pages again: a page left armed
	// across ClearDirty would drop out of the second reset's set, and the
	// run after that would see its stale contents. The Step-only engine
	// must count the same pages.
	parked := func(w *Wasp) []int {
		sh := w.backends[0].cowShells.shardFor(img.Name)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.byImg[img.Name].ctx.DirtyPages()
	}
	dirty := parked(w)
	if len(dirty) != res.COWPages {
		t.Fatalf("parked shell holds %d dirty pages, the reset before it copied %d", len(dirty), res.COWPages)
	}
	legacy := New(WithCOW(true), WithLegacyInterp(true))
	for _, rt := range []*Wasp{w, w, w, legacy, legacy, legacy} {
		r, err := rt.Run(img, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if r.SnapshotUsed && r.COWPages != res.COWPages {
			t.Fatalf("COW reset copied %d pages, the tenant's first reset %d", r.COWPages, res.COWPages)
		}
		if got := parked(rt); !reflect.DeepEqual(got, dirty) {
			t.Fatalf("dirty set %v, the tenant's first run left %v", got, dirty)
		}
		if fromLE64(r.Ret) != 1 {
			t.Fatalf("counter = %d; COW reset leaked state", fromLE64(r.Ret))
		}
	}
}

func TestCOWCheaperThanFullRestoreForLargeImages(t *testing.T) {
	// The §7.2 claim: COW collapses the Fig 12 image-size cost, because
	// reset cost tracks dirtied pages, not image size.
	pad := 1 << 20 // 1 MB image
	run := func(cow bool) uint64 {
		w := New(WithCOW(cow), WithAsyncClean(true))
		img := cowImg("cow-large").WithPad(pad)
		cfg := RunConfig{Snapshot: true, RetBytes: 8}
		if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		// Second warm-up so the non-COW path also has a hot pool.
		if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		clk := cycles.NewClock()
		if _, err := w.Run(img, cfg, clk); err != nil {
			t.Fatal(err)
		}
		return clk.Now()
	}
	full := run(false)
	cow := run(true)
	if cow*5 > full {
		t.Fatalf("COW reset (%d) should be >5x cheaper than full restore (%d) for a 1MB image", cow, full)
	}
}

func TestCOWShellNotSharedAcrossImages(t *testing.T) {
	// Two different images must never exchange contexts through the COW
	// binding (disjoint-state isolation).
	w := New(WithCOW(true))
	a := cowImg("cow-a")
	b := cowImg("cow-b")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	for i := 0; i < 3; i++ {
		ra, err := w.Run(a, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := w.Run(b, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if fromLE64(ra.Ret) != 1 || fromLE64(rb.Ret) != 1 {
			t.Fatalf("iteration %d: cross-image state leak", i)
		}
	}
}

// A panic that unwinds through a run, here its handler's on the first
// hypercall (just after the snapshot capture), leaves the shell in an
// unknown state: it must reach neither the pool nor the COW registry. It
// is dropped and counted, and the image's next run is served correctly.
func TestPanickingHandlerDropsShell(t *testing.T) {
	w := New(WithCOW(true))
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	// A neighbour tenant leaves a shell parked, so the registry is not empty.
	if _, err := w.Run(cowImg("panic-neighbour"), cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	parked := func() (n int) {
		for _, be := range w.backends {
			for i := range be.cowShells.shards {
				sh := &be.cowShells.shards[i]
				sh.mu.Lock()
				n += len(sh.byImg)
				sh.mu.Unlock()
			}
		}
		return n
	}
	dropped := func() float64 {
		reg := obs.NewRegistry()
		w.RegisterMetrics(reg)
		for _, m := range reg.Snapshot() {
			if m.Name == "wasp_pool_dropped" {
				return m.Value
			}
		}
		t.Fatal("no wasp_pool_dropped metric")
		return 0
	}
	pool0, parked0, dropped0 := w.PoolTotal(), parked(), dropped()

	img := cowImg("panic-tenant")
	bad := cfg
	bad.Handler = hypercall.HandlerFunc(func(hypercall.Args, hypercall.GuestMem) (uint64, error) { panic("boom") })
	var p any
	func() {
		defer func() { p = recover() }()
		w.Run(img, bad, cycles.NewClock())
	}()
	if p != "boom" {
		t.Fatalf("recovered %v, want the handler's panic", p)
	}
	if w.PoolTotal() != pool0 || parked() != parked0 || dropped() != dropped0+1 {
		t.Fatalf("after the panic: %d pooled, %d parked, %v dropped; want %d, %d, %v",
			w.PoolTotal(), parked(), dropped(), pool0, parked0, dropped0+1)
	}
	for i := 0; i < 2; i++ { // a restore of the snapshot the panicked run took, then a COW reset
		res, err := w.Run(img, cfg, cycles.NewClock())
		if err != nil || fromLE64(res.Ret) != 1 {
			t.Fatalf("run %d after the panic: %+v, %v", i, res, err)
		}
	}
}

func TestCOWDisabledByDefault(t *testing.T) {
	w := New()
	img := cowImg("cow-off")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.COWPages != 0 {
		t.Fatal("COW reset happened without WithCOW")
	}
}

func TestCOWWithArguments(t *testing.T) {
	// Arguments are host-written after the reset; COW must mark the
	// argument page dirty so the *next* reset restores it.
	w := New(WithCOW(true))
	img := guest.MustFromAsm("cow-args", guest.WrapLongMode(`
	out 0x08, rdi
	movi rbx, 0x0
	load rax, [rbx]
	add rax, rax
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	call := func(n int64) int64 {
		res, err := w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(n))}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		return int64(fromLE64(res.Ret))
	}
	if got := call(21); got != 42 {
		t.Fatalf("first: %d", got)
	}
	if got := call(100); got != 200 {
		t.Fatalf("second (COW path): %d — stale argument page?", got)
	}
	if got := call(3); got != 6 {
		t.Fatalf("third: %d", got)
	}
}

// A parked COW shell is resident against one snapshot. When an import or
// a migration replaces the name's snapshot, the shell's dirty-page delta
// says nothing about the new one: the next run must not COW-reset it, or
// the old snapshot's memory shows through every page the new run leaves
// clean.
func TestImportOverParkedCOWShell(t *testing.T) {
	// The image copies its argument word to 0x6000 before snapshot() and
	// returns [0x6000] after it, so a restored run reports the argument
	// of whichever run captured the snapshot it resumed from.
	img := guest.MustFromAsm("cow-import", guest.WrapLongMode(`
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
`))
	for _, cow := range []bool{false, true} {
		run := func(w *Wasp, platform string, arg uint64) uint64 {
			t.Helper()
			cfg := RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}
			res, err := w.RunOn(platform, img, cfg, cycles.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			return fromLE64(res.Ret)
		}
		w2 := New()
		run(w2, "", 200)
		blob, err := w2.ExportSnapshot(img.Name)
		if err != nil {
			t.Fatal(err)
		}

		w1 := New(WithCOW(cow), WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
		// Two runs: the second leaves a shell parked against the
		// arg-100 snapshot on every backend it ran on.
		for i := 0; i < 2; i++ {
			if got := run(w1, "", 100); got != 100 {
				t.Fatalf("cow=%v: kvm run %d = %d, want 100", cow, i, got)
			}
		}
		if _, _, err := w1.MigrateSnapshot(img.Name, "kvm", "hyper-v"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if got := run(w1, "hyper-v", 1); got != 100 {
				t.Fatalf("cow=%v: hyper-v run %d = %d, want 100", cow, i, got)
			}
		}

		if err := w1.ImportSnapshot(img.Name, blob); err != nil {
			t.Fatal(err)
		}
		if got := run(w1, "", 2); got != 200 {
			t.Fatalf("cow=%v: after ImportSnapshot kvm = %d, want 200 (reset against the replaced snapshot)", cow, got)
		}
		// kvm → hyper-v replaces the snapshot under hyper-v's parked
		// shell; hyper-v → kvm replaces it under kvm's again.
		if _, _, err := w1.MigrateSnapshot(img.Name, "kvm", "hyper-v"); err != nil {
			t.Fatal(err)
		}
		if got := run(w1, "hyper-v", 3); got != 200 {
			t.Fatalf("cow=%v: after MigrateSnapshot hyper-v = %d, want 200", cow, got)
		}
		if _, _, err := w1.MigrateSnapshot(img.Name, "hyper-v", "kvm"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if got := run(w1, "", 4); got != 200 {
				t.Fatalf("cow=%v: after round trip kvm run %d = %d, want 200", cow, i, got)
			}
		}
	}
}

// TestCOWResetMatchesFullRestore: bytes a guest writes before its
// snapshot call but outside the capture windows are not part of the
// snapshot. A full restore zeroes them; a COW reset copies back only the
// pages dirtied since the snapshot point, so it must know those pages
// differ from the snapshot too. The guest stores at 0xC000 (between the
// footprint and the stack reserve) and just past its image end (the
// page the footprint window ends in), snapshots, and returns both words:
// every restored run must return zeros and leave the shell's memory
// byte-identical under either runtime.
func TestCOWResetMatchesFullRestore(t *testing.T) {
	img := guest.MustFromAsm("cow-windows", guest.WrapLongMode(`
	movi rbx, 0xC000
	movi rax, 7
	store [rbx], rax
	movi rbx, __image_end
	movi rax, 9
	store [rbx+64], rax
	out 0x08, rdi        ; snapshot()
	movi rcx, 0x4000
	movi rbx, 0xC000
	load rax, [rbx]
	store [rcx], rax
	movi rbx, __image_end
	load rax, [rbx+64]
	store [rcx+8], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	if edge := img.Footprint(); edge%vmm.PageSize+64+8 > vmm.PageSize || 0xC000 < edge || 0xC000 >= img.MemBytes()-guest.StackReserve {
		t.Fatalf("footprint edge %#x: the probes must share its page and stay clear of the windows", edge)
	}
	// shellMem copies the memory of the one shell a sequential runtime
	// holds at rest: parked for the image's COW reset, or pooled.
	shellMem := func(w *Wasp) []byte {
		be := w.backends[0]
		if ctx, on := be.cowShells.take(img.Name); ctx != nil {
			defer be.cowShells.park(img.Name, ctx, on)
			return append([]byte(nil), ctx.Mem...)
		}
		s := be.pools.take(img.MemBytes())
		defer be.pools.put(img.MemBytes(), s)
		return append([]byte(nil), s.ctx.Mem...)
	}
	full, cow := New(), New(WithCOW(true))
	cfg := RunConfig{Snapshot: true, RetBytes: 16}
	for run := 0; run < 4; run++ {
		var mems [2][]byte
		for i, w := range []*Wasp{full, cow} {
			res, err := w.Run(img, cfg, cycles.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			heap, edge := fromLE64(res.Ret[:8]), fromLE64(res.Ret[8:])
			if run == 0 && (heap != 7 || edge != 9) {
				t.Fatalf("cold run returned %d/%d, want the 7/9 it stored", heap, edge)
			}
			if run > 0 && (heap != 0 || edge != 0 || !res.SnapshotUsed || (i == 1) != (res.COWPages > 0)) {
				t.Fatalf("cow=%v run %d returned %d/%d (restored %v, COW pages %d): want 0/0 from the snapshot",
					i == 1, run, heap, edge, res.SnapshotUsed, res.COWPages)
			}
			mems[i] = shellMem(w)
		}
		if !bytes.Equal(mems[0], mems[1]) {
			for a := range mems[0] {
				if mems[0][a] != mems[1][a] {
					t.Fatalf("run %d: shell memory differs at %#x: %#x after a full restore, %#x after a COW reset", run, a, mems[0][a], mems[1][a])
				}
			}
		}
	}
}
