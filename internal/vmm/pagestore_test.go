package vmm

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cycles"
)

// deepCapture is the legacy reference: the deep-copy capture the forest
// replaced — a private full-length buffer with the windows copied in and
// zeros elsewhere.
func deepCapture(mem []byte, windows []Window) []byte {
	out := make([]byte, len(mem))
	for _, w := range windows {
		copy(out[w.Lo:w.Hi], mem[w.Lo:w.Hi])
	}
	return out
}

// materialize is the from-zero reconstruction of a layer, resolved
// page by page through the chain's own entries rather than the layer's
// precomputed table: what a restore onto zeroed memory must produce.
func materialize(l *Layer) []byte {
	out := make([]byte, l.MemLen())
	for lo := 0; lo < len(out); lo += PageSize {
		copy(out[lo:], resolveOwn(l, lo/PageSize).Data())
	}
	return out
}

// resolveOwn walks the chain from l upward to the nearest layer owning
// page p; nil (zero) when none does.
func resolveOwn(l *Layer, p int) *Page {
	for n := l; n != nil; n = n.parent {
		for _, e := range n.own {
			if e.Idx == p {
				return e.Page
			}
		}
	}
	return nil
}

// captureMem captures mem through a context whose record knows nothing,
// so every page is decided on its bytes.
func captureMem(t *testing.T, store *PageStore, parent *Layer, mem []byte, windows []Window) *Layer {
	t.Helper()
	ctx := Create(len(mem), cycles.NewClock())
	copy(ctx.Mem, mem)
	ctx.Forget()
	l, _, _, err := ctx.Capture(store, parent, windows)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func randMem(rng *rand.Rand, n int) []byte {
	mem := make([]byte, n)
	// Mixed texture: zero runs (dedupable and skippable), shared
	// constants (dedupable across layers), and unique noise.
	for p := 0; p*PageSize < n; p++ {
		lo := p * PageSize
		hi := lo + PageSize
		if hi > n {
			hi = n
		}
		switch rng.Intn(4) {
		case 0: // zero page
		case 1: // constant page
			for i := lo; i < hi; i++ {
				mem[i] = 0xAB
			}
		default:
			rng.Read(mem[lo:hi])
		}
	}
	return mem
}

// TestLayerCaptureMaterializeMatchesDeepCopy is the forest≡deep-copy
// property at the vmm layer: over random memory corpora, random capture
// windows and random parent chains, materializing a captured layer must
// reproduce the deep-copy capture bit for bit, per-page reads through
// the resolved table must agree with the deep copy on every page, and a
// context rebased from layer to layer, with random host writes between,
// must hold the deep copy after every Rebase.
func TestLayerCaptureMaterializeMatchesDeepCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	store := NewPageStore()
	for trial := 0; trial < 40; trial++ {
		memLen := (8 + rng.Intn(24)) * PageSize
		if rng.Intn(3) == 0 {
			memLen += rng.Intn(PageSize) // unaligned tail page
		}

		// A chain of 1..3 layers over evolving memory.
		var parent *Layer
		var layers []*Layer
		depth := 1 + rng.Intn(3)
		mem := randMem(rng, memLen)
		ctx := Create(memLen, cycles.NewClock())
		for d := 0; d < depth; d++ {
			foot := PageSize + rng.Intn(memLen-PageSize)
			stack := memLen - rng.Intn(memLen-foot)
			windows := []Window{{0, foot}, {stack, memLen}}
			want := deepCapture(mem, windows)
			l := captureMem(t, store, parent, mem, windows)
			layers = append(layers, l)

			if !bytes.Equal(materialize(l), want) {
				t.Fatalf("trial %d depth %d: materialized layer diverges from deep copy", trial, d)
			}
			for i := 0; i < rng.Intn(4); i++ {
				at := rng.Intn(memLen)
				n := min(1+rng.Intn(2*PageSize), memLen-at)
				rng.Read(ctx.Mem[at : at+n])
				ctx.HostWrite(uint64(at), n)
			}
			ctx.Rebase(l)
			if !bytes.Equal(ctx.Mem, want) {
				t.Fatalf("trial %d depth %d: rebased context diverges from deep copy", trial, d)
			}
			if err := ctx.CheckContent(); err != nil {
				t.Fatalf("trial %d depth %d: %v", trial, d, err)
			}
			// COW-style per-page fault-in over a random dirty set.
			cow := make([]byte, memLen)
			rng.Read(cow)
			ref := append([]byte(nil), cow...)
			for p := 0; p*PageSize < memLen; p++ {
				if rng.Intn(2) == 0 {
					continue // page not dirty: both paths leave it alone
				}
				lo := p * PageSize
				hi := lo + PageSize
				if hi > memLen {
					hi = memLen
				}
				clear(cow[lo:hi])
				copy(cow[lo:hi], l.table[p].Data())
				copy(ref[lo:hi], want[lo:hi])
			}
			if !bytes.Equal(cow, ref) {
				t.Fatalf("trial %d depth %d: per-page fault-in diverges from deep copy", trial, d)
			}

			// Mutate some pages for the next (delta) layer; unchanged
			// pages must dedup against the parent.
			parent = l
			for p := 0; p*PageSize < memLen; p++ {
				switch rng.Intn(5) {
				case 0:
					rng.Read(mem[p*PageSize : min(p*PageSize+PageSize, memLen)])
				case 1:
					clear(mem[p*PageSize : min(p*PageSize+PageSize, memLen)])
				}
			}
		}
		for _, l := range layers {
			l.Release()
		}
	}
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := store.Pages(); got != 0 {
		t.Fatalf("store leaks %d pages after releasing every layer", got)
	}
}

// TestLayerDeltaDedup: a delta captured over an identical base owns
// nothing; changing one page costs one page.
func TestLayerDeltaDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	store := NewPageStore()
	memLen := 16 * PageSize
	mem := randMem(rng, memLen)
	windows := []Window{{0, memLen}}

	base := captureMem(t, store, nil, mem, windows)
	clone := captureMem(t, store, base, mem, windows)
	if clone.OwnedPages() != 0 {
		t.Fatalf("identical clone owns %d pages, want 0", clone.OwnedPages())
	}
	if clone.Digest() != base.Digest() {
		t.Fatal("identical clone digest differs from base")
	}

	before := store.Pages()
	mem[3*PageSize] ^= 0xFF
	delta := captureMem(t, store, base, mem, windows)
	if delta.OwnedPages() != 1 {
		t.Fatalf("one-page change owns %d pages, want 1", delta.OwnedPages())
	}
	if grown := store.Pages() - before; grown != 1 {
		t.Fatalf("one-page delta grew the store by %d pages", grown)
	}
	if delta.Digest() == base.Digest() {
		t.Fatal("delta digest should differ from base")
	}

	// Zero-override: zeroing a non-zero base page must materialize as
	// zero, not fall through to the base.
	clear(mem[3*PageSize : 4*PageSize])
	basePage5 := append([]byte(nil), mem[5*PageSize:6*PageSize]...)
	if allZeroBytes(basePage5) {
		t.Fatal("test setup: page 5 should be non-zero")
	}
	clear(mem[5*PageSize : 6*PageSize])
	zo := captureMem(t, store, base, mem, windows)
	if !allZeroBytes(materialize(zo)[5*PageSize : 6*PageSize]) {
		t.Fatal("zero-override page fell through to the base")
	}

	// Refcount lifecycle: dropping the deltas keeps the base's pages;
	// dropping the base frees everything.
	clone.Release()
	delta.Release()
	zo.Release()
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
	if store.Pages() == 0 {
		t.Fatal("base pages freed while base layer alive")
	}
	base.Release()
	if got := store.Pages(); got != 0 {
		t.Fatalf("store leaks %d pages after final release", got)
	}
}

// TestPageStoreSharedAcrossImages: equal pages inserted for different
// layers are stored once.
func TestPageStoreSharedAcrossImages(t *testing.T) {
	store := NewPageStore()
	page := make([]byte, PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	k1 := store.Insert(page)
	k2 := store.Insert(page)
	if k1 != k2 || k1.Key() != HashPage(page) {
		t.Fatal("equal content produced different pages")
	}
	if store.Pages() != 1 {
		t.Fatalf("store holds %d pages, want 1", store.Pages())
	}
	if store.DedupHits() != 1 {
		t.Fatalf("dedup hits %d, want 1", store.DedupHits())
	}
	store.Unref(k1)
	if store.Pages() != 1 {
		t.Fatal("page freed while a reference remains")
	}
	store.Unref(k2)
	if store.Pages() != 0 {
		t.Fatal("page leaked after last unref")
	}
}

// TestPageStoreConcurrent hammers one store from many goroutines —
// inserts of overlapping content, refs, unrefs, reads and verifies —
// the -race gate for the shared forest substrate.
func TestPageStoreConcurrent(t *testing.T) {
	store := NewPageStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			page := make([]byte, PageSize)
			var mine []*Page
			for i := 0; i < 400; i++ {
				// Small content space so goroutines collide on pages.
				for j := range page {
					page[j] = byte(rng.Intn(4))
				}
				pg := store.Insert(page)
				mine = append(mine, pg)
				if data := pg.Data(); data != nil && !bytes.Equal(data, page) {
					t.Errorf("goroutine %d: read wrong content", g)
					return
				}
				if len(mine) > 16 {
					store.Unref(mine[0])
					mine = mine[1:]
				}
			}
			for _, k := range mine {
				store.Unref(k)
			}
		}(g)
	}
	wg.Wait()
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := store.Pages(); got != 0 {
		t.Fatalf("store leaks %d pages", got)
	}
}

func allZeroBytes(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// TestCapturedViewWindows pins the window composition rules the capture
// path depends on: full coverage, partial pages, and the zero result.
func TestCapturedViewWindows(t *testing.T) {
	mem := make([]byte, 3*PageSize)
	for i := range mem {
		mem[i] = 0x77
	}
	var scratch [PageSize]byte

	// Page 1 fully covered: direct view.
	v := capturedView(mem, 1, []Window{{0, 3 * PageSize}}, &scratch)
	if len(v) != PageSize || v[0] != 0x77 {
		t.Fatal("full-coverage view wrong")
	}
	// Page 1 half covered: composed, zero tail.
	v = capturedView(mem, 1, []Window{{0, PageSize + PageSize/2}}, &scratch)
	if v == nil || v[PageSize/2-1] != 0x77 || v[PageSize/2] != 0 {
		t.Fatal("partial-coverage view wrong")
	}
	// Page 2 uncovered: nil (zero).
	if v = capturedView(mem, 2, []Window{{0, PageSize}}, &scratch); v != nil {
		t.Fatal("uncovered page should be zero")
	}
	// Zero content under full coverage: nil.
	clear(mem[:PageSize])
	if v = capturedView(mem, 0, []Window{{0, PageSize}}, &scratch); v != nil {
		t.Fatal("zero page should collapse to nil view")
	}
}
