package vmm

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cycles"
)

// refCapture is the capture Context.Capture replaced, kept as its
// reference: it hashes every page's captured bytes and owns the page
// when the key differs from parent's resolution. It returns every page's
// resolved key and the owned entries, and touches no store.
func refCapture(parent *Layer, mem []byte, windows []Window) ([]PageKey, map[int]PageKey) {
	snap := deepCapture(mem, windows)
	keys := make([]PageKey, (len(mem)+PageSize-1)/PageSize)
	own := make(map[int]PageKey)
	based := make([]*Page, len(keys))
	if parent != nil {
		based = parent.table
	}
	for p := range keys {
		keys[p] = ZeroKey
		if view := snap[p*PageSize : min(p*PageSize+PageSize, len(snap))]; !isZeroPage(view) {
			keys[p] = HashPage(view)
		}
		if keys[p] != based[p].Key() {
			own[p] = keys[p]
		}
	}
	return keys, own
}

// sameCapture compares a captured layer with refCapture's result.
func sameCapture(l *Layer, keys []PageKey, own map[int]PageKey) error {
	for p, key := range keys {
		if got := l.table[p].Key(); got != key {
			return fmt.Errorf("page %d resolves to %x, the reference capture to %x", p, got[:4], key[:4])
		}
	}
	if len(l.own) != len(own) {
		return fmt.Errorf("layer owns %d pages, the reference capture %d", len(l.own), len(own))
	}
	for _, e := range l.own {
		if key, ok := own[e.Idx]; !ok || key != e.Page.Key() {
			return fmt.Errorf("layer owns page %d, which the reference capture does not own as such", e.Idx)
		}
	}
	return nil
}

// auditStore checks the store's refcounts against the layers still
// alive: every page they own is stored, holds one reference per owning
// entry, and nothing else is stored.
func auditStore(store *PageStore, layers []*Layer) error {
	owners := make(map[*Page]int)
	for _, l := range layers {
		if l.refs.Load() > 0 {
			for _, e := range l.own {
				if e.Page != nil {
					owners[e.Page]++
				}
			}
		}
	}
	for pg, n := range owners {
		if pg.refs != n || store.shardFor(pg.key).pages[pg.key] != pg {
			return fmt.Errorf("page %x: %d references, %d owning entries (stored: %v)", pg.key[:4], pg.refs, n, store.shardFor(pg.key).pages[pg.key] == pg)
		}
	}
	if store.Pages() != len(owners) {
		return fmt.Errorf("store holds %d pages, live layers own %d", store.Pages(), len(owners))
	}
	return nil
}

// TestCaptureMatchesReference: seeded histories on one context — Rebase
// to live layers or to zero, host writes (some of zeros), Forget, layer
// releases (so the record names pages the store has freed), and captures
// over random windows that end mid-page, over random parents, on
// geometries with and without a short tail page. Every capture must equal
// refCapture over the memory it saw, leave the record exact, and keep the
// store's refcounts those of the live layers.
func TestCaptureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var captures, reused, freed int
	for trial := 0; trial < 16; trial++ {
		memLen := (4 + rng.Intn(8)) * PageSize
		if trial%4 == 3 {
			memLen += 1 + rng.Intn(PageSize-1)
		}
		store := NewPageStore()
		ctx := Create(memLen, cycles.NewClock())
		var layers, live []*Layer
		for step := 0; step < 150; step++ {
			switch r := rng.Intn(20); {
			case r < 4 && len(live) > 0:
				ctx.Rebase(live[rng.Intn(len(live))])
			case r < 5:
				ctx.Rebase(nil)
			case r < 11:
				at := rng.Intn(memLen)
				n := min(1+rng.Intn(PageSize), memLen-at)
				if rng.Intn(3) == 0 {
					clear(ctx.Mem[at : at+n])
				} else {
					rng.Read(ctx.Mem[at : at+n])
				}
				ctx.HostWrite(uint64(at), n)
			case r < 15 && len(live) > 0:
				i := rng.Intn(len(live))
				live[i].Release()
				live = append(live[:i], live[i+1:]...)
			case r < 16:
				ctx.Forget()
			default:
				var parent *Layer
				if len(live) > 0 && rng.Intn(3) > 0 {
					parent = live[rng.Intn(len(live))]
				}
				foot := rng.Intn(memLen + 1)
				stack := foot + rng.Intn(memLen-foot+1)
				windows := []Window{{0, foot}, {stack, memLen}}
				for _, held := range ctx.holds {
					if held != nil && held != unknown && held.refs == 0 {
						freed++
					}
				}
				keys, own := refCapture(parent, ctx.Mem, windows)
				l, _, n, err := ctx.Capture(store, parent, windows)
				if err != nil {
					t.Fatal(err)
				}
				captures++
				reused += n
				layers, live = append(layers, l), append(live, l)
				if err := sameCapture(l, keys, own); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if err := ctx.CheckContent(); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
			}
			if err := auditStore(store, layers); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
		for _, l := range live {
			l.Release()
		}
		if err := store.Verify(); err != nil {
			t.Fatal(err)
		}
		if n := store.Pages(); n != 0 {
			t.Fatalf("trial %d: store leaks %d pages after releasing every layer", trial, n)
		}
	}
	if captures < 300 || reused < 1000 || freed < 20 {
		t.Fatalf("%d captures reused %d recorded pages, %d of them freed: the history does not exercise every rule", captures, reused, freed)
	}
	t.Logf("%d captures reused %d recorded pages; %d freed pages were recorded at a capture", captures, reused, freed)
}

// TestCaptureGeometryMismatch: a parent of another geometry is an error,
// returned before the store or any reference is touched.
func TestCaptureGeometryMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	store := NewPageStore()
	parent := captureMem(t, store, nil, randMem(rng, 4*PageSize), []Window{{0, 4 * PageSize}})
	pages, inserted, hits := store.Pages(), store.Inserted(), store.DedupHits()
	ctx := Create(8*PageSize, cycles.NewClock())
	rng.Read(ctx.Mem)
	ctx.HostWrite(0, len(ctx.Mem))
	l, _, _, err := ctx.Capture(store, parent, []Window{{0, len(ctx.Mem)}})
	if err == nil || l != nil {
		t.Fatalf("capture over a 4-page parent from an 8-page context: layer %v, err %v", l, err)
	}
	if store.Pages() != pages || store.Inserted() != inserted || store.DedupHits() != hits {
		t.Fatal("a failed capture changed the store")
	}
	if n := parent.refs.Load(); n != 1 {
		t.Fatalf("parent holds %d references after a failed capture, want 1", n)
	}
	parent.Release()
	if n := store.Pages(); n != 0 {
		t.Fatalf("store leaks %d pages", n)
	}
}

// TestCaptureReadoptsFreedPage: a shell restored from a layer that is
// then released still records the layer's pages; capturing it stores
// those very pages again without reading or hashing memory, and the
// next Rebase onto the new layer keeps every page.
func TestCaptureReadoptsFreedPage(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mem := make([]byte, 4*PageSize)
	rng.Read(mem[PageSize : 3*PageSize])
	windows := []Window{{0, len(mem)}}
	store := NewPageStore()
	src := captureMem(t, store, nil, mem, windows)
	ctx := Create(len(mem), cycles.NewClock())
	ctx.Rebase(src)
	held := src.table[1]
	src.Release()
	if n := store.Pages(); n != 0 {
		t.Fatalf("store holds %d pages after the only layer was released", n)
	}
	l, hashed, reused, err := ctx.Capture(store, nil, windows)
	if err != nil {
		t.Fatal(err)
	}
	if hashed != 0 || reused != 4 {
		t.Fatalf("capture hashed %d and reused %d pages, want 0 and 4", hashed, reused)
	}
	if l.table[1] != held {
		t.Fatal("the freed page was not re-adopted as itself")
	}
	if err := auditStore(store, []*Layer{l}); err != nil {
		t.Fatal(err)
	}
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
	if written, _ := ctx.Rebase(l); written != 0 {
		t.Fatalf("Rebase onto the captured layer rewrote %d pages", written)
	}
	l.Release()
	if n := store.Pages(); n != 0 {
		t.Fatalf("store leaks %d pages", n)
	}
}
