package wasp

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// Virtine migration (§7.3): "Because virtines implement an abstract
// machine model, are packaged with their runtime environment, and employ
// similar semantics to RPC, they allow for location transparency.
// Virtines could therefore be migrated to execute on remote machines just
// like containers."
//
// A snapshot is exactly the state that needs to move: the captured guest
// memory and the architectural register file. With the snapshot forest,
// the memory half is a page table — so migration can be layer-aware:
//
//   - a self-contained export ships every resolved non-zero page of the
//     snapshot (base and delta flattened in);
//   - a delta export ships only the pages the tenant snapshot owns, plus
//     the content key and digest of the base layer it grafts onto. The
//     importer grafts the delta onto a matching local base; an importer
//     without the base rejects the blob with a clear error.
//
// The blob carries an explicit magic and format-version byte, so a
// future format revision is a clean "version N not supported" error
// instead of a silent gob misparse. Native-workload snapshots carry
// host-side Go state and are not portable.

// Wire format: 4 magic bytes, 1 version byte, then a gob-encoded
// snapshotWire. Version 1 was the unversioned bare-gob format of the
// pre-forest runtime and is no longer accepted.
const (
	snapshotMagic   = "VSNP"
	snapshotVersion = 2

	// maxWireGeometry bounds the guest-memory geometry a blob may claim
	// (1 GiB), so a hostile length cannot make the importer allocate
	// absurd page tables before validation catches it.
	maxWireGeometry = 1 << 30
)

// wirePage is one page of snapshot content. Data is exactly PageSize
// bytes, or nil for an explicit zero-override (a delta page that zeroes
// a non-zero base page). Content keys are deliberately NOT shipped per
// page: the importer re-hashes Data itself, so a hostile blob cannot
// poison the receiving store with a mismatched key/content pair.
type wirePage struct {
	Idx  int
	Data []byte
}

// snapshotWire is the gob payload of a version-2 blob.
type snapshotWire struct {
	// Geometry is the full guest-memory length the snapshot restores
	// over; Captured is the byte count the restore cost is charged for.
	Geometry int
	Captured int
	State    cpu.State
	Booted   bool
	// ContentKey is the image content key (guest.Image.ContentKey) the
	// snapshot belongs to. Importing a self-contained blob registers its
	// layer as the receiver's base for this content if it has none, so
	// later tenant deltas of the same binary can graft onto it.
	ContentKey string
	// Delta marks a thin blob: Pages are only the pages this snapshot
	// owns beyond the ContentKey base layer, whose resolved-content
	// digest must equal BaseDigest on the receiving side.
	Delta      bool
	BaseDigest [32]byte
	// Pages is the snapshot's content: the full resolved table for a
	// self-contained export, or the delta-owned pages when Delta.
	Pages []wirePage
}

// ExportSnapshot serializes the named image's snapshot from the default
// backend, self-contained: base and delta pages are flattened in, so
// any runtime can import it.
func (w *Wasp) ExportSnapshot(name string) ([]byte, error) {
	return w.exportSnapshot(w.backends[0], name, false)
}

// ExportSnapshotDelta serializes the named snapshot shipping only the
// pages it owns beyond its base layer, plus the base's content key and
// digest. The importer must already hold a matching base layer
// (HasBaseLayer) or the import fails. A snapshot with no base exports
// self-contained — the delta IS the whole snapshot.
func (w *Wasp) ExportSnapshotDelta(name string) ([]byte, error) {
	return w.exportSnapshot(w.backends[0], name, true)
}

// ExportSnapshotOn is ExportSnapshot from a named backend's registry
// ("" for the default); deltaOnly selects the delta wire form.
func (w *Wasp) ExportSnapshotOn(platform, name string, deltaOnly bool) ([]byte, error) {
	be, err := w.backendFor(platform)
	if err != nil {
		return nil, err
	}
	return w.exportSnapshot(be, name, deltaOnly)
}

func (w *Wasp) exportSnapshot(be *backend, name string, deltaOnly bool) ([]byte, error) {
	snap := be.snapshots.get(name)
	if snap == nil {
		return nil, fmt.Errorf("wasp: no snapshot for image %q", name)
	}
	defer snap.release()
	return w.exportRetainedSnapshot(be, name, snap, deltaOnly)
}

// exportRetainedSnapshot serializes a snapshot the caller already holds
// a retain on (and keeps holding — the caller releases). Callers that
// make decisions about the snapshot before exporting it (MigrateSnapshot
// inspects the layer parentage to pick the wire form) must hand their
// retained handle down here rather than let the export re-fetch by name:
// a re-fetch reopens the window in which a concurrent DropSnapshot +
// re-capture swaps the snapshot between the decision and the export.
func (w *Wasp) exportRetainedSnapshot(be *backend, name string, snap *snapshot, deltaOnly bool) ([]byte, error) {
	if snap.native != nil {
		return nil, fmt.Errorf("wasp: snapshot for %q carries native host state and is not portable", name)
	}

	wire := snapshotWire{
		Geometry:   snap.layer.MemLen(),
		Captured:   snap.captured,
		State:      snap.state,
		Booted:     snap.booted,
		ContentKey: snap.contentKey,
	}
	if deltaOnly && snap.layer.Parent() != nil && snap.contentKey != "" {
		wire.Delta = true
		wire.BaseDigest = snap.layer.Parent().Digest()
		for _, e := range snap.layer.OwnTable() {
			var data []byte
			if e.Key != vmm.ZeroKey {
				data = copyPage(be.forest.Data(e.Key))
			}
			wire.Pages = append(wire.Pages, wirePage{Idx: e.Idx, Data: data})
		}
	} else {
		for _, e := range snap.layer.ResolvedTable() {
			wire.Pages = append(wire.Pages, wirePage{Idx: e.Idx, Data: copyPage(be.forest.Data(e.Key))})
		}
	}

	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	buf.WriteByte(snapshotVersion)
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("wasp: encoding snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// ImportSnapshot installs a serialized snapshot under the given image
// name on the default backend. The receiving side must run the same
// image (same name, same memory geometry); the next Run with Snapshot
// enabled resumes from the migrated state. A delta blob requires the
// receiver to already hold the base layer it grafts onto.
func (w *Wasp) ImportSnapshot(name string, data []byte) error {
	return w.importSnapshot(w.backends[0], name, data)
}

// ImportSnapshotOn is ImportSnapshot into a named backend's registry.
func (w *Wasp) ImportSnapshotOn(platform, name string, data []byte) error {
	be, err := w.backendFor(platform)
	if err != nil {
		return err
	}
	return w.importSnapshot(be, name, data)
}

func (w *Wasp) importSnapshot(be *backend, name string, data []byte) error {
	wire, err := decodeSnapshotWire(name, data)
	if err != nil {
		return err
	}

	snap := &snapshot{
		contentKey: wire.ContentKey,
		captured:   wire.Captured,
		state:      wire.State,
		booted:     wire.Booted,
	}
	var parent *vmm.Layer
	if wire.Delta {
		parent = be.bases.get(wire.ContentKey)
		if parent == nil {
			return fmt.Errorf("wasp: snapshot for %q is a delta over base %s, which this runtime does not hold (import or capture the full snapshot first)", name, wire.ContentKey)
		}
		if parent.MemLen() != wire.Geometry || parent.Digest() != wire.BaseDigest {
			return fmt.Errorf("wasp: snapshot for %q: local base layer %s does not match the exporter's (geometry or content drift)", name, wire.ContentKey)
		}
	}

	// Build the layer, re-hashing every shipped page into the store —
	// the importer never trusts a key it did not compute, so a hostile
	// blob cannot poison the shared store.
	pages := make(map[int]vmm.PageKey, len(wire.Pages))
	for _, p := range wire.Pages {
		if p.Data == nil {
			// Explicit zero-override (delta-only; validated above).
			pages[p.Idx] = vmm.ZeroKey
			continue
		}
		pages[p.Idx] = be.forest.Insert(p.Data)
	}
	snap.layer = vmm.NewLayer(be.forest, parent, wire.Geometry, pages)
	// A self-contained import becomes the receiver's base layer for the
	// content when it has none, so later tenant deltas can graft.
	if !wire.Delta && wire.ContentKey != "" {
		be.bases.register(wire.ContentKey, snap.layer)
	}
	be.snapshots.put(name, snap)
	return nil
}

// decodeSnapshotWire parses and validates a snapshot blob: magic,
// version, geometry and length sanity, page bounds, duplicate and
// short/long page payloads. Validation happens before anything touches
// a registry or store, so a hostile blob can be rejected without side
// effects.
func decodeSnapshotWire(name string, data []byte) (*snapshotWire, error) {
	headerLen := len(snapshotMagic) + 1
	if len(data) < headerLen {
		return nil, fmt.Errorf("wasp: snapshot blob for %q is truncated (%d bytes)", name, len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("wasp: blob for %q is not a snapshot (bad magic)", name)
	}
	if v := data[len(snapshotMagic)]; v != snapshotVersion {
		return nil, fmt.Errorf("wasp: snapshot blob for %q is format version %d; this runtime supports version %d", name, v, snapshotVersion)
	}
	var wire snapshotWire
	if err := gob.NewDecoder(bytes.NewReader(data[headerLen:])).Decode(&wire); err != nil {
		return nil, fmt.Errorf("wasp: decoding snapshot for %q: %w", name, err)
	}
	if wire.Geometry <= 0 || wire.Geometry > maxWireGeometry {
		return nil, fmt.Errorf("wasp: snapshot for %q claims hostile geometry %d", name, wire.Geometry)
	}
	if wire.Captured <= 0 || wire.Captured > wire.Geometry {
		return nil, fmt.Errorf("wasp: snapshot for %q is malformed (captured=%d, geometry=%d)", name, wire.Captured, wire.Geometry)
	}
	npages := (wire.Geometry + vmm.PageSize - 1) / vmm.PageSize
	if len(wire.Pages) > npages {
		return nil, fmt.Errorf("wasp: snapshot for %q ships %d pages into a %d-page geometry", name, len(wire.Pages), npages)
	}
	seen := make(map[int]bool, len(wire.Pages))
	for _, p := range wire.Pages {
		if p.Idx < 0 || p.Idx >= npages {
			return nil, fmt.Errorf("wasp: snapshot for %q: page index %d outside %d-page geometry", name, p.Idx, npages)
		}
		if seen[p.Idx] {
			return nil, fmt.Errorf("wasp: snapshot for %q: duplicate page %d", name, p.Idx)
		}
		seen[p.Idx] = true
		if p.Data != nil && len(p.Data) != vmm.PageSize {
			return nil, fmt.Errorf("wasp: snapshot for %q: page %d carries %d bytes, want %d", name, p.Idx, len(p.Data), vmm.PageSize)
		}
		if p.Data == nil && !wire.Delta {
			return nil, fmt.Errorf("wasp: snapshot for %q: zero-override page %d in a self-contained blob", name, p.Idx)
		}
	}
	if wire.Delta && wire.ContentKey == "" {
		return nil, fmt.Errorf("wasp: snapshot for %q: delta blob without a base content key", name)
	}
	if !wire.Delta && wire.BaseDigest != [32]byte{} {
		return nil, fmt.Errorf("wasp: snapshot for %q: base digest on a self-contained blob", name)
	}
	return &wire, nil
}

// MigrateSnapshot moves one image's snapshot between two backends of
// this runtime — the mechanism the placement layer's rebalancing
// follow-up rides on when a tenant's placement flips. When the target
// backend already holds the snapshot's base layer, only the tenant's
// delta crosses (deltaOnly true, shipped is the delta blob size);
// otherwise the full snapshot ships. Returns the blob size shipped.
func (w *Wasp) MigrateSnapshot(name, fromPlatform, toPlatform string) (shipped int, deltaOnly bool, err error) {
	src, err := w.backendFor(fromPlatform)
	if err != nil {
		return 0, false, err
	}
	dst, err := w.backendFor(toPlatform)
	if err != nil {
		return 0, false, err
	}
	if src == dst {
		return 0, false, fmt.Errorf("wasp: migrating %q from %s to itself", name, src.platform.Name())
	}
	snap := src.snapshots.get(name)
	if snap == nil {
		return 0, false, fmt.Errorf("wasp: no snapshot for image %q on %s", name, src.platform.Name())
	}
	// One retain covers the deltaOnly decision AND the export: releasing
	// before the export and re-fetching by name would let a concurrent
	// DropSnapshot + re-capture swap the snapshot in between, so the wire
	// form chosen here could disagree with the snapshot actually shipped
	// (stale base digest → spurious full ship or failed graft).
	defer snap.release()
	// Ship the delta iff the snapshot has a base and the target holds a
	// matching copy of it.
	if snap.contentKey != "" && snap.layer.Parent() != nil {
		if local := dst.bases.get(snap.contentKey); local != nil &&
			local.MemLen() == snap.layer.MemLen() && local.Digest() == snap.layer.Parent().Digest() {
			deltaOnly = true
		}
	}
	if gate := migrateExportGate; gate != nil {
		gate()
	}
	blob, err := w.exportRetainedSnapshot(src, name, snap, deltaOnly)
	if err != nil {
		return 0, false, err
	}
	if err := w.importSnapshot(dst, name, blob); err != nil {
		return 0, false, err
	}
	if tr := w.tracer; tr.Enabled() {
		var delta uint64
		if deltaOnly {
			delta = 1
		}
		tr.Instant(obs.ControlLane, obs.KindMigrate, name, 0, 0, uint64(len(blob)), delta)
	}
	return len(blob), deltaOnly, nil
}

// migrateExportGate, when non-nil, runs between MigrateSnapshot's wire-form
// decision and the export — a test seam that lets the regression suite park
// a concurrent DropSnapshot/re-capture exactly inside the window the retain
// protocol must cover. Always nil outside tests.
var migrateExportGate func()

// copyPage copies a store page for the wire (store backing must never
// leak into a mutable buffer).
func copyPage(b []byte) []byte {
	return append([]byte(nil), b...)
}
