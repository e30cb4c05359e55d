package wasp

import (
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/vmm"
)

// Forest-backed snapshots. Each backend owns one vmm.PageStore (the
// per-platform forest: snapshots never cross hypervisor backends) and two
// registries over it: snapshots by image name (pool.go), and content
// entries by image *content* (guest.Image.ContentKey) and memory size.
// Tenant clones made with guest.Image.WithName share a content key, so
// the first clone's capture becomes the content's base layer and every
// later clone's snapshot is a thin delta over it.
//
// Refcount lifecycle (see internal/vmm/README.md for the full picture):
//
//   - a snapshot holds one reference on its layer until its registry
//     replaces or removes it;
//   - the content registry holds one reference on each base layer and
//     boot recording while their entry is resident, and releases them on
//     eviction. A delta snapshot keeps its base alive through its own
//     parent reference (vmm.NewLayer retains the parent);
//   - every lookup retains what it returns, under its registry's lock,
//     until the caller is done with it (a restore, replay, export, capture
//     or graft), so no re-capture or eviction frees pages under a reader.

// contentCap bounds each backend's content registry and the shared
// decoded-code registry, in entries.
const contentCap = 64

// contentKey names a content entry: an image's content at one memory
// size. A base layer or boot recording serves only its own geometry.
type contentKey struct {
	content string // guest.Image.ContentKey
	mem     int
}

// contentEntry is one content's base layer, which its tenant snapshots
// are deltas over, and its recorded cold boot (boot.go); either may be nil.
type contentEntry struct {
	base *vmm.Layer
	boot *bootRecord
}

// contentRegistry is one backend's content entries under one lock. Past
// contentCap the least recently used entry is evicted and its references
// released, which never changes a charge: without its recording a boot
// executes, without its base a capture stands alone, and each is charged
// the same.
type contentRegistry struct {
	mu                         sync.Mutex
	entries                    lru.Cache[contentKey, *contentEntry]
	evicted, replays, recorded atomic.Uint64
}

// entry returns key's entry, made the most recently used; one made if add
// (and the eviction it brings), else nil, when key has none. Called with
// mu held.
func (r *contentRegistry) entry(key contentKey, add bool) *contentEntry {
	if e, ok := r.entries.Get(key); ok || !add {
		return e
	}
	e := &contentEntry{}
	if old, evicted := r.entries.Put(key, e); evicted {
		old.base.Release()
		if old.boot != nil {
			old.boot.layer.Release()
		}
		r.evicted.Add(1)
	}
	return e
}

// base returns key's base layer retained for the caller, who must
// release it, or nil.
func (r *contentRegistry) base(key contentKey) *vmm.Layer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entry(key, false); e != nil {
		e.base.Retain()
		return e.base
	}
	return nil
}

// boot returns key's recording with its layer retained for the caller,
// who must release it, or nil.
func (r *contentRegistry) boot(key contentKey) *bootRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entry(key, false); e != nil && e.boot != nil {
		e.boot.layer.Retain()
		return e.boot
	}
	return nil
}

// setBase makes layer key's base unless it has one, retaining it.
func (r *contentRegistry) setBase(key contentKey, layer *vmm.Layer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entry(key, true); e.base == nil {
		layer.Retain()
		e.base = layer
	}
}

// setBoot makes rec key's recording unless it has one, retaining its layer.
func (r *contentRegistry) setBoot(key contentKey, rec *bootRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e := r.entry(key, true); e.boot == nil {
		rec.layer.Retain()
		e.boot = rec
		r.recorded.Add(1)
	}
}

func (r *contentRegistry) bases() (n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries.All() {
		if e.base != nil {
			n++
		}
	}
	return n
}

// ForestStats reports one backend's snapshot-forest state — the numbers
// behind the dedup claims TestForestTenantScaling pins.
type ForestStats struct {
	// StorePages is the distinct pages the backend's shared page store
	// holds; StoreBytes is the content they hold, each page's non-zero
	// span (not PageSize a page, and not the per-page headers).
	StorePages int
	StoreBytes int64
	// DedupHits counts page insertions satisfied by an already-stored
	// page instead of new memory.
	DedupHits uint64
	// BaseLayers is the number of shared base layers the content
	// registry holds.
	BaseLayers int
	// Snapshots is the number of named snapshots in the registry;
	// DeltaSnapshots of them are thin deltas over a base layer.
	Snapshots      int
	DeltaSnapshots int
}

// ForestStats reports the default backend's snapshot-forest state.
func (w *Wasp) ForestStats() ForestStats {
	return w.ForestStatsOn("")
}

// ForestStatsOn reports a named backend's snapshot-forest state.
func (w *Wasp) ForestStatsOn(platform string) ForestStats {
	be, err := w.backendFor(platform)
	if err != nil {
		return ForestStats{}
	}
	st := ForestStats{
		StorePages: be.forest.Pages(),
		StoreBytes: be.forest.Bytes(),
		DedupHits:  be.forest.DedupHits(),
		BaseLayers: be.content.bases(),
	}
	be.snapshots.forEach(func(name string, s *snapshot) {
		st.Snapshots++
		if s.layer != nil && s.layer.Parent() != nil {
			st.DeltaSnapshots++
		}
	})
	return st
}

// VerifyForest re-hashes every backend's page store and returns the
// first corruption found — the test tripwire for the invariant that
// shared store pages are never mutated in place.
func (w *Wasp) VerifyForest() error {
	for _, be := range w.backends {
		if err := be.forest.Verify(); err != nil {
			return err
		}
	}
	return nil
}
