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
		copy(out[e.Idx*vmm.PageSize:], e.Page.Data())
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
	if !w.HasBaseLayer(base.ContentKey()) {
		t.Fatal("base layer not registered under the image content key")
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
					err = checkShells(w)
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
// base registry; tenants on one platform must not populate another's.
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
	if w.HasBaseLayerOn(p1, img.ContentKey()) {
		t.Fatal("base layer visible on a platform it never ran on")
	}
}
