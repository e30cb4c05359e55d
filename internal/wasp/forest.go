package wasp

import (
	"sync"

	"repro/internal/vmm"
)

// Forest-backed snapshots. Each backend owns one vmm.PageStore (the
// per-platform forest — snapshots never cross hypervisor backends, the
// same isolation invariant the deep-copy registries kept) plus a base
// registry keying shared base layers by image *content*
// (guest.Image.ContentKey): every tenant clone made with
// guest.Image.WithName hashes to the same content key, so the first
// clone's capture becomes the content's base layer and every later
// clone's snapshot is a thin delta over it.
//
// Refcount lifecycle (see internal/vmm/README.md for the full picture):
//
//   - a snapshot holds one reference on its layer; snapRegistry.put and
//     drop release the reference of the snapshot they replace or remove;
//   - the base registry holds one reference on each registered base
//     layer for the Wasp's lifetime, so dropping every tenant snapshot
//     never strands a delta's parent;
//   - every in-flight restore or export retains the layer for the
//     duration of the copy (snapRegistry.get retains; callers release),
//     so a concurrent re-capture of the same image name can never free
//     pages out from under a reader.

// baseRegistry maps image content keys to shared base layers, one per
// backend. Written once per content (first capture), read on every
// capture and graft-import.
type baseRegistry struct {
	mu    sync.RWMutex
	byKey map[string]*vmm.Layer
}

// get returns the base layer for a content key, or nil. The registry's
// own reference keeps the layer alive for the Wasp's lifetime, so
// callers inside that lifetime need not retain.
func (r *baseRegistry) get(key string) *vmm.Layer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byKey[key]
}

// register installs layer as the content's base, taking one reference.
// It reports whether the layer was installed; false means another
// capture won the race and the existing base stands.
func (r *baseRegistry) register(key string, layer *vmm.Layer) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.byKey[key]; taken {
		return false
	}
	if r.byKey == nil {
		r.byKey = make(map[string]*vmm.Layer)
	}
	layer.Retain()
	r.byKey[key] = layer
	return true
}

func (r *baseRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byKey)
}

// ForestStats reports one backend's snapshot-forest state — the numbers
// behind the dedup claims TestForestTenantScaling pins.
type ForestStats struct {
	// StorePages / StoreBytes are distinct pages (and their bytes) held
	// by the backend's shared page store.
	StorePages int
	StoreBytes int64
	// DedupHits counts page insertions satisfied by an already-stored
	// page instead of new memory.
	DedupHits uint64
	// BaseLayers is the number of content-keyed shared base layers.
	BaseLayers int
	// Snapshots is the number of named snapshots in the registry;
	// DeltaSnapshots of them are thin deltas over a base layer.
	Snapshots      int
	DeltaSnapshots int
	// DeltaPages sums the pages owned by delta snapshots themselves —
	// the true marginal footprint of tenancy, before page dedup.
	DeltaPages int
}

// ForestStats reports the default backend's snapshot-forest state.
func (w *Wasp) ForestStats() ForestStats {
	return w.forestStats(w.backends[0])
}

// ForestStatsOn reports a named backend's snapshot-forest state.
func (w *Wasp) ForestStatsOn(platform string) ForestStats {
	be, err := w.backendFor(platform)
	if err != nil {
		return ForestStats{}
	}
	return w.forestStats(be)
}

func (w *Wasp) forestStats(be *backend) ForestStats {
	st := ForestStats{
		StorePages: be.forest.Pages(),
		StoreBytes: be.forest.Bytes(),
		DedupHits:  be.forest.DedupHits(),
		BaseLayers: be.bases.count(),
	}
	be.snapshots.forEach(func(name string, s *snapshot) {
		st.Snapshots++
		if s.layer != nil && s.layer.Parent() != nil {
			st.DeltaSnapshots++
			st.DeltaPages += s.layer.OwnedPages()
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

// HasBaseLayer reports whether the default backend holds a shared base
// layer for an image content key — what a migration source asks before
// deciding to ship a delta instead of a full snapshot.
func (w *Wasp) HasBaseLayer(contentKey string) bool {
	return w.backends[0].bases.get(contentKey) != nil
}

// HasBaseLayerOn is HasBaseLayer for a named backend.
func (w *Wasp) HasBaseLayerOn(platform, contentKey string) bool {
	be, err := w.backendFor(platform)
	if err != nil {
		return false
	}
	return be.bases.get(contentKey) != nil
}
