package wasp

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/vcc"
	"repro/internal/vmm"
)

// randSnapshotProgram builds a guest that scribbles a random store
// corpus into the heap, snapshots, scribbles more, then sums a few
// probe addresses into the return slot — so the result depends on both
// the captured image and the post-snapshot restore behaviour.
func randSnapshotProgram(rng *rand.Rand) string {
	var b strings.Builder
	addr := func() uint64 { return 0x5000 + uint64(rng.Intn(0x2FF0))&^7 }
	probes := make([]uint64, 0, 6)
	for i := 0; i < 10+rng.Intn(20); i++ {
		a := addr()
		fmt.Fprintf(&b, "\tmovi rbx, %#x\n\tmovi rax, %d\n\tstore [rbx], rax\n", a, rng.Intn(1<<30))
		if len(probes) < 6 && rng.Intn(3) == 0 {
			probes = append(probes, a)
		}
	}
	b.WriteString("\tout 0x08, rdi\n") // snapshot()
	for i := 0; i < rng.Intn(10); i++ {
		fmt.Fprintf(&b, "\tmovi rbx, %#x\n\tmovi rax, %d\n\tstore [rbx], rax\n", addr(), rng.Intn(1<<30))
	}
	b.WriteString("\tmovi rcx, 0\n")
	for _, a := range probes {
		fmt.Fprintf(&b, "\tmovi rbx, %#x\n\tload rax, [rbx]\n\tadd rcx, rax\n", a)
	}
	b.WriteString(`	movi rbx, 0x4000
	store [rbx], rcx
	movi rdi, 0
	out 0x00, rdi
	hlt
`)
	return guest.WrapLongMode(b.String())
}

// materialize reconstructs a snapshot layer on zeroed memory from its
// chain-resolved page table: what every populate of the layer must leave.
func materialize(l *vmm.Layer) []byte {
	out := make([]byte, l.MemLen())
	for _, e := range l.ResolvedTable() {
		copy(out[e.Idx*vmm.PageSize:], e.Page.AppendTo(nil))
	}
	return out
}

// deepCopySnapshot builds the reference the forest must match — what
// the original deep-copy snapshot representation held: the image booted
// on a bare context up to its snapshot hypercall, then the two capture
// windows (image footprint and stack) copied into a zeroed guest-sized
// buffer, plus the architectural register file at that point.
func deepCopySnapshot(t *testing.T, img *guest.Image, args []byte) ([]byte, cpu.State) {
	t.Helper()
	ctx := vmm.Create(img.MemBytes(), cycles.NewClock())
	if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
		t.Fatal(err)
	}
	copy(ctx.Mem[guest.ArgAddr:], args)
	if ex := ctx.Run(defaultMaxSteps); ex.Reason != cpu.ExitIO || ex.Port != hypercall.NrSnapshot {
		t.Fatalf("guest left before its snapshot hypercall: %+v", ex)
	}
	foot := img.Footprint() + img.ExtraHeap
	stack := len(ctx.Mem) - guest.StackReserve
	mem := make([]byte, len(ctx.Mem))
	copy(mem[:foot], ctx.Mem[:foot])
	copy(mem[stack:], ctx.Mem[stack:])
	return mem, ctx.CPU.Save()
}

// forestTrialCycles are the cold/warm/warm virtual cycles of the eight
// seeded trials below, frozen at the commit that removed the deep-copy
// snapshot representation (which produced the same values): odd trials
// run the COW-reset flavour.
var forestTrialCycles = [8][3]uint64{
	{251219, 33903, 33903}, {251146, 12313, 14308},
	{251339, 33971, 33971}, {251563, 16364, 18359},
	{251309, 33911, 33911}, {251264, 14362, 16357},
	{251355, 33941, 33941}, {251563, 16404, 18399},
}

// TestForestRestoreMatchesLegacyRestore is the forest's differential
// property: over random store corpora, in both restore flavours, warm
// restores and COW resets return the cold run's result at the frozen
// virtual cycles, and the captured snapshot — materialized memory and
// register file — equals a deep copy taken at the snapshot point.
func TestForestRestoreMatchesLegacyRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		src := randSnapshotProgram(rng)
		cow := trial%2 == 1 // alternate full-restore and COW-reset flavours
		cfg := RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(trial))}
		w := New(WithCOW(cow))
		img := guest.MustFromAsm(fmt.Sprintf("prop-%d", trial), src)
		var cold []byte
		for run := 0; run < 3; run++ { // cold, warm, warm
			clk := cycles.NewClock()
			res, err := w.Run(img, cfg, clk)
			if err != nil {
				t.Fatalf("trial %d run %d: %v", trial, run, err)
			}
			if run == 0 {
				cold = res.Ret
			} else if !bytes.Equal(res.Ret, cold) {
				t.Fatalf("trial %d run %d: restored result %x, cold run returned %x", trial, run, res.Ret, cold)
			}
			if want := forestTrialCycles[trial][run]; clk.Now() != want {
				t.Fatalf("trial %d run %d: %d virtual cycles, frozen %d", trial, run, clk.Now(), want)
			}
		}

		snap := w.backends[0].snapshots.get(img.Name)
		if snap == nil {
			t.Fatalf("trial %d: no snapshot captured", trial)
		}
		forest := materialize(snap.layer)
		snap.release()
		legacy, state := deepCopySnapshot(t, img, cfg.Args)
		if !bytes.Equal(forest, legacy) {
			for i := range forest {
				if i >= len(legacy) || forest[i] != legacy[i] {
					t.Fatalf("trial %d: snapshot memory diverges at %#x (page %d); lengths %d vs %d",
						trial, i, i/vmm.PageSize, len(forest), len(legacy))
				}
			}
			t.Fatalf("trial %d: snapshot memory lengths diverge: %d vs %d", trial, len(forest), len(legacy))
		}
		if snap.state != state {
			t.Fatalf("trial %d: snapshot register files diverge", trial)
		}
	}
}

// TestForestTenantClonesAreThinDeltas: WithName clones of one image
// share a content key, so every clone after the first captures as a
// delta over the registered base layer — marginal store cost is the
// pages the tenant actually changed (its argument page), not the image.
func TestForestTenantClonesAreThinDeltas(t *testing.T) {
	w := New()
	base := guest.MustFromAsm("tenant-base", guest.WrapLongMode(`
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
	const tenants = 16
	for i := 0; i < tenants; i++ {
		img := base.WithName(fmt.Sprintf("tenant-%03d", i))
		cfg := RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(i + 1))}
		res, err := w.Run(img, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if got := fromLE64(res.Ret); got != uint64(2*(i+1)) {
			t.Fatalf("tenant %d: ret %d", i, got)
		}
	}
	st := w.ForestStats()
	if st.Snapshots != tenants {
		t.Fatalf("snapshots %d, want %d", st.Snapshots, tenants)
	}
	if st.BaseLayers != 1 {
		t.Fatalf("base layers %d, want 1 shared base", st.BaseLayers)
	}
	if st.DeltaSnapshots != tenants-1 {
		t.Fatalf("delta snapshots %d, want %d", st.DeltaSnapshots, tenants-1)
	}
	// Each tenant differs from the base only in its argument page (and
	// possibly the stack page holding transient boot state).
	if avg := float64(st.DeltaPages) / float64(tenants-1); avg > 3 {
		t.Fatalf("average delta %.1f pages/tenant; clones are not thin", avg)
	}
	if e := entryOf(w, base); e == nil || e.base == nil {
		t.Fatal("base layer not registered under the image content key")
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
}

// httpdTenantAsm is an httpd-shaped tenant: fill a response buffer in
// the heap (the server's in-memory document), snapshot, then serve —
// read the tenant id argument, stamp it into the response, return it.
const httpdTenantAsm = `
	movi rcx, 1536
	movi rdi, 0x5000
ht_fill:
	mov rax, rdi
	and rax, 255
	storeb [rdi], rax
	add rdi, 1
	dec rcx
	jnz ht_fill
	out 0x08, rdi        ; snapshot(): warm server, request not yet seen
	movi rbx, 0x0
	load rax, [rbx]      ; tenant id = request identity
	movi rbx, 0x5000
	load rdx, [rbx]      ; first doc word, carried into the response
	add rax, rdx
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// jsTenantAsm is a JS-shaped tenant: fill a bytecode program into the
// heap, snapshot, then interpret it with the tenant id seeding the
// accumulator — a miniature of the Fig 14 JS dispatch loop.
const jsTenantAsm = `
	movi rcx, 1024
	movi rdi, 0x5000
jt_fill:
	mov rax, rcx
	and rax, 3
	storeb [rdi], rax
	add rdi, 1
	dec rcx
	jnz jt_fill
	out 0x08, rdi        ; snapshot(): program loaded, not yet run
	movi rbx, 0x0
	load rsi, [rbx]      ; accumulator seeded with the tenant id
	movi rcx, 1024
	movi rdi, 0x5000
jt_dispatch:
	loadb rax, [rdi]
	cmp rax, 1
	jz jt_add
	cmp rax, 2
	jz jt_dbl
	jmp jt_next
jt_add:
	add rsi, 7
	jmp jt_next
jt_dbl:
	add rsi, rsi
jt_next:
	add rdi, 1
	dec rcx
	jnz jt_dispatch
	movi rbx, 0x4000
	store [rbx], rsi
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// TestForestTenantScaling forks 10k WithName tenants from each of two
// 32 KiB bases, httpd-shaped and JS-shaped, each tenant snapshotted with
// its own argument. Every tenant after the first is a one-page delta
// that costs one page hash to capture and grows the store by at most
// one page: tenant 0x2003's argument page equals the boot's PML4 page,
// so 9,999 clones add 9,998 pages. At 1k and at 10k tenants the test
// pins the store's held bytes and its new pages, and requires the forest
// to hold at least 18x fewer pages than one deep copy per tenant would
// (counted at 4 KiB a page, so one more page per clone fails it), and to
// verify clean. A clone's page holds its argument, one or two non-zero
// bytes, so the store grows by about 2 B per clone.
func TestForestTenantScaling(t *testing.T) {
	// The store pages the clones added, by tenant count.
	pagePins := map[int]int{1_000: 999, 10_000: 9_998}
	for _, c := range []struct {
		name, asm string
		bytePins  map[int]int64 // store bytes, by tenant count
	}{
		{"httpd", httpdTenantAsm, map[int]int64{1_000: 7_743, 10_000: 25_705}},
		{"js", jsTenantAsm, map[int]int64{1_000: 7_327, 10_000: 25_289}},
	} {
		w := New()
		be := w.backends[0]
		base := guest.MustFromAsm("snapfor-"+c.name, guest.WrapLongMode(c.asm)).WithPad(32 << 10)
		// A deep copy held both capture windows: the image footprint and
		// the stack reserve.
		deepCopy := min(base.Footprint()+base.ExtraHeap, base.MemBytes()) + guest.StackReserve
		var store0 int64
		var pages0 int
		var hashed0 uint64
		for i := 0; i < 10_000; i++ {
			img := base.WithName(fmt.Sprintf("snapfor-%s-%05d", c.name, i))
			res, err := w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(i))}, cycles.NewClock())
			if err != nil || len(res.Ret) != 8 {
				t.Fatalf("%s tenant %d: %v", c.name, i, err)
			}
			if i == 0 {
				st := w.ForestStats()
				store0, pages0, hashed0 = st.StoreBytes, st.StorePages, be.pages.hashed.Load()
			}
			n := i + 1
			pagePin, ok := pagePins[n]
			if !ok {
				continue
			}
			st := w.ForestStats()
			clones, grown, hashed := n-1, st.StoreBytes-store0, be.pages.hashed.Load()-hashed0
			dedup := float64(deepCopy) * float64(n) / float64(st.StorePages*vmm.PageSize)
			t.Logf("%s x%d: store %d B in %d pages, %.1f B and %.2f page hashes per clone, dedup %.1fx",
				c.name, n, st.StoreBytes, st.StorePages, float64(grown)/float64(clones), float64(hashed)/float64(clones), dedup)
			if st.Snapshots != n || st.DeltaSnapshots != clones || st.DeltaPages != clones || hashed != uint64(clones) {
				t.Errorf("%s x%d: %d snapshots, %d deltas holding %d pages, %d page hashes; want one delta page and one hash per clone",
					c.name, n, st.Snapshots, st.DeltaSnapshots, st.DeltaPages, hashed)
			}
			if st.StoreBytes != c.bytePins[n] || st.StorePages-pages0 != pagePin {
				t.Errorf("%s x%d: store %d B, pinned %d; clones added %d pages, pinned %d",
					c.name, n, st.StoreBytes, c.bytePins[n], st.StorePages-pages0, pagePin)
			}
			if dedup < 18 {
				t.Errorf("%s x%d: dedup %.1fx, want >= 18x", c.name, n, dedup)
			}
			if err := w.VerifyForest(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestTenantStoreFootprint is the store's footprint gate, a count rather
// than a time: 256 clones of a handler shaped like the tenant_restore
// benchmark's, each building a 1 KiB document on its stack and then
// snapshotting, pin the store's pages and the bytes it holds exactly.
// Each clone's document page is its own, so the pages grow by about two
// a clone; the bytes are the pages' non-zero spans, 13% of what a full
// 4 KiB per page would hold.
func TestTenantStoreFootprint(t *testing.T) {
	const tenants, wantPages, wantBytes = 256, 515, 273_316
	v, err := vcc.CompileFunc(`
virtine_config(0xC0) int handle(int tenant) {
	char doc[1024];
	for (int i = 0; i < 1024; i++) { doc[i] = 'a' + (tenant + i) % 26; }
	__hc(8, 0, 0, 0);
	return doc[tenant % 1024];
}`, "handle")
	if err != nil {
		t.Fatal(err)
	}
	w := New()
	for i := 0; i < tenants; i++ {
		img := v.Image.WithName(fmt.Sprintf("footprint-%03d", i))
		for run := 0; run < 2; run++ { // capture, then a restored run
			res, err := w.Run(img, RunConfig{Snapshot: true, Policy: v.Policy, Args: vcc.MarshalArgs(int64(i)), RetBytes: vcc.RetSize}, cycles.NewClock())
			if err != nil || fromLE64(res.Ret) != uint64('a'+(2*i)%26) {
				t.Fatalf("tenant %d run %d: %v", i, run, err)
			}
		}
	}
	st := w.ForestStats()
	t.Logf("%d tenants: %d pages holding %d B, %.1f%% of %d B at 4 KiB a page", tenants, st.StorePages, st.StoreBytes,
		100*float64(st.StoreBytes)/float64(st.StorePages*vmm.PageSize), st.StorePages*vmm.PageSize)
	if st.StorePages != wantPages || st.StoreBytes != wantBytes {
		t.Errorf("store holds %d pages and %d B, pinned %d and %d", st.StorePages, st.StoreBytes, wantPages, wantBytes)
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
}

// TestForestPadVariantCapturesStandalone: WithPad keeps the content key
// but changes guest geometry; grafting its delta onto the differently
// sized base would corrupt, so it must capture as its own base.
func TestForestPadVariantCapturesStandalone(t *testing.T) {
	w := New()
	img := cowImg("pad-base")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	padded := img.WithPad(1 << 20).WithName("pad-big")
	res, err := w.Run(padded, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if got := fromLE64(res.Ret); got != 1 {
		t.Fatalf("padded variant ret %d", got)
	}
	// Warm run restores through the standalone layer correctly.
	res, err = w.Run(padded, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if got := fromLE64(res.Ret); got != 1 {
		t.Fatalf("padded warm run ret %d; geometry misgraft?", got)
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
}

// TestForestConcurrentTenants is the -race gate for the shared forest:
// many goroutines fork tenants of two base images against one backend —
// concurrent first captures (racing to register the base), warm
// restores, re-captures via DropSnapshot, and stats/verify readers —
// with every resting shell checked against its content record after
// every run, and every capturing shell before its capture.
func TestForestConcurrentTenants(t *testing.T) {
	w := New(WithCOW(true), WithAsyncClean(true))
	captured := checkBeforeCapture(t)
	imgA := cowImg("race-a")
	imgB := guest.MustFromAsm("race-b", guest.WrapLongMode(`
	out 0x08, rdi
	movi rbx, 0x0
	load rax, [rbx]
	add rax, 7
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				var (
					res *Result
					err error
				)
				if g%2 == 0 {
					img := imgA.WithName(fmt.Sprintf("race-a-%d-%d", g, i%5))
					res, err = w.Run(img, RunConfig{Snapshot: true, RetBytes: 8}, cycles.NewClock())
					if err == nil && fromLE64(res.Ret) != 1 {
						err = fmt.Errorf("tenant saw dirty state: %d", fromLE64(res.Ret))
					}
				} else {
					img := imgB.WithName(fmt.Sprintf("race-b-%d-%d", g, i%5))
					arg := uint64(g*100 + i)
					res, err = w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}, cycles.NewClock())
					if err == nil && fromLE64(res.Ret) != arg+7 {
						err = fmt.Errorf("tenant %d: ret %d", arg, fromLE64(res.Ret))
					}
				}
				if err == nil {
					err = checkRuntime(w)
				}
				if err == nil {
					err = captured()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if i%7 == 3 {
					w.DropSnapshot(fmt.Sprintf("race-a-%d-%d", g, i%5)) // force re-capture races
				}
				if i%5 == 0 {
					_ = w.ForestStats()
					if err := w.VerifyForest(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, c := range w.Cleaners() {
		c.Drain()
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
}

// TestForestScrubNeverTouchesSharedPages: parking, resetting and reusing
// COW shells (the Wasp+CA release path) must never mutate store-owned
// pages. The base layer's digest is taken after capture and re-checked
// after heavy reuse traffic; Verify re-hashes every stored page against
// its key.
func TestForestScrubNeverTouchesSharedPages(t *testing.T) {
	w := New(WithCOW(true), WithAsyncClean(true))
	img := cowImg("scrub-inv")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	snap := w.backends[0].snapshots.get(img.Name)
	if snap == nil || snap.layer == nil {
		t.Fatal("expected a forest-backed snapshot")
	}
	digest := snap.layer.Digest()
	snap.release()
	for i := 0; i < 30; i++ {
		if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range w.Cleaners() {
		c.Drain()
	}
	snap = w.backends[0].snapshots.get(img.Name)
	defer snap.release()
	if snap.layer.Digest() != digest {
		t.Fatal("base layer digest changed: shell reuse wrote through a shared page")
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
}

// TestForestPerPlatformIsolation: each backend owns a private store and
// content registry; tenants on one platform must not populate another's.
func TestForestPerPlatformIsolation(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	p0, p1 := vmm.KVM{}.Name(), vmm.HyperV{}.Name()
	img := cowImg("iso-img")
	cfg := RunConfig{Snapshot: true, RetBytes: 8}
	if _, err := w.RunOn(p0, img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	s0 := w.ForestStatsOn(p0)
	s1 := w.ForestStatsOn(p1)
	if s0.StorePages == 0 || s0.BaseLayers != 1 {
		t.Fatalf("platform %s store not populated: %+v", p0, s0)
	}
	if s1.StorePages != 0 || s1.BaseLayers != 0 {
		t.Fatalf("platform %s store leaked cross-platform pages: %+v", p1, s1)
	}
	if n := contentEntries(w.byPlat[p1]); n != 0 {
		t.Fatalf("%d content entries on a platform the image never ran on", n)
	}
}
