package wasp

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/isa"
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
// instead of a silent misparse. Native-workload snapshots carry
// host-side Go state and are not portable.
//
// Wire format, version 3: fixed-width little-endian fields, then the
// pages in ascending index order. Lengths are explicit and checked
// against the bytes left before anything is read or allocated; payloads
// alias the blob until the importer's Insert copies (and re-hashes)
// them. Version 1 (bare gob) and version 2 (gob behind this header) are
// rejected like any other unknown version.
//
//	bytes  field
//	4      magic "VSNP"
//	1      version, 3
//	1      flags: 1 delta, 2 booted
//	8      geometry, int64
//	8      captured bytes, int64
//	32     base digest (zero unless delta)
//	4      content-key length k, uint32
//	k      content key
//	128    registers, 16 × uint64
//	8      IP
//	1      CPU flags: 1 ZF, 2 SF, 4 CF, 8 OF
//	40     CR0, CR3, CR4, EFER, GDT base
//	2      GDT limit
//	1      mode
//	8      GDT loads, int64
//	4      page count n, uint32
//	n ×    index int64, payload length uint32 (0: zero-override), payload
const (
	snapshotMagic   = "VSNP"
	snapshotVersion = 3

	wireDelta  = 1 // flag bits
	wireBooted = 2
	// wireFixed is the size of a blob's fixed-width fields.
	wireFixed = 4 + 1 + 1 + 8 + 8 + 32 + 4 + isa.NumRegs*8 + 8 + 1 + 40 + 2 + 1 + 8 + 4

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

// snapshotWire is a decoded blob.
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

// ExportSnapshotOn serializes the named image's snapshot from a named
// backend's registry ("" for the default). Without deltaOnly the blob is
// self-contained: base and delta pages are flattened in, so any runtime
// can import it. With deltaOnly it ships only the pages the snapshot
// owns beyond its base layer, plus the base's content key and digest;
// the importer must already hold a matching base layer in its content
// registry (ForestStats.BaseLayers counts them) or the import fails. A
// snapshot with no base exports self-contained: the delta is the whole
// snapshot.
func (w *Wasp) ExportSnapshotOn(platform, name string, deltaOnly bool) ([]byte, error) {
	be, err := w.backendFor(platform)
	if err != nil {
		return nil, err
	}
	snap := be.snapshots.get(name)
	if snap == nil {
		return nil, fmt.Errorf("wasp: no snapshot for image %q", name)
	}
	defer snap.release()
	return exportRetainedSnapshot(name, snap, deltaOnly)
}

// exportRetainedSnapshot serializes a snapshot the caller already holds
// a retain on (and keeps holding — the caller releases). Callers that
// make decisions about the snapshot before exporting it (MigrateSnapshot
// inspects the layer parentage to pick the wire form) must hand their
// retained handle down here rather than let the export re-fetch by name:
// a re-fetch reopens the window in which a concurrent DropSnapshot +
// re-capture swaps the snapshot between the decision and the export.
func exportRetainedSnapshot(name string, snap *snapshot, deltaOnly bool) ([]byte, error) {
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
	var table []vmm.LayerPage
	if deltaOnly && snap.layer.Parent() != nil && snap.contentKey != "" {
		wire.Delta = true
		wire.BaseDigest = snap.layer.Parent().Digest()
		table = snap.layer.OwnTable()
	} else {
		table = snap.layer.ResolvedTable()
	}
	wire.Pages = make([]wirePage, len(table))
	for i, e := range table {
		// Payloads alias store pages; encode only reads them.
		wire.Pages[i] = wirePage{Idx: e.Idx, Data: e.Page.Data()}
	}
	return wire.encode(), nil
}

// encode lays wire out as a version-3 blob.
func (wire *snapshotWire) encode() []byte {
	n := wireFixed + len(wire.ContentKey)
	for _, p := range wire.Pages {
		n += 12 + len(p.Data)
	}
	le := binary.LittleEndian
	st := &wire.State
	b := append(make([]byte, 0, n), snapshotMagic...)
	b = append(b, snapshotVersion, bit(wire.Delta, wireDelta)|bit(wire.Booted, wireBooted))
	b = le.AppendUint64(b, uint64(wire.Geometry))
	b = le.AppendUint64(b, uint64(wire.Captured))
	b = append(b, wire.BaseDigest[:]...)
	b = le.AppendUint32(b, uint32(len(wire.ContentKey)))
	b = append(b, wire.ContentKey...)
	for _, v := range st.Regs {
		b = le.AppendUint64(b, v)
	}
	b = le.AppendUint64(b, st.IP)
	b = append(b, bit(st.Flags.ZF, 1)|bit(st.Flags.SF, 2)|bit(st.Flags.CF, 4)|bit(st.Flags.OF, 8))
	for _, v := range [...]uint64{st.CR0, st.CR3, st.CR4, st.EFER, st.GDTBase} {
		b = le.AppendUint64(b, v)
	}
	b = le.AppendUint16(b, st.GDTLimit)
	b = append(b, byte(st.Mode))
	b = le.AppendUint64(b, uint64(st.GDTLoads))
	b = le.AppendUint32(b, uint32(len(wire.Pages)))
	for _, p := range wire.Pages {
		b = le.AppendUint64(b, uint64(p.Idx))
		b = le.AppendUint32(b, uint32(len(p.Data)))
		b = append(b, p.Data...)
	}
	return b
}

func bit(on bool, b byte) byte {
	if on {
		return b
	}
	return 0
}

// ImportSnapshotOn installs a serialized snapshot under the given image
// name in a named backend's registry ("" for the default). The receiving
// side must run the same image (same name, same memory geometry); the
// next Run with Snapshot enabled resumes from the migrated state. A
// delta blob requires the receiver to already hold the base layer it
// grafts onto.
func (w *Wasp) ImportSnapshotOn(platform, name string, data []byte) error {
	be, err := w.backendFor(platform)
	if err != nil {
		return err
	}
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
	key := contentKey{wire.ContentKey, wire.Geometry}
	var parent *vmm.Layer
	if wire.Delta {
		parent = be.content.base(key)
		defer parent.Release()
		if parent == nil {
			return fmt.Errorf("wasp: snapshot for %q is a delta over base %s at geometry %d, which this runtime does not hold (import or capture the full snapshot first)", name, wire.ContentKey, wire.Geometry)
		}
		if parent.Digest() != wire.BaseDigest {
			return fmt.Errorf("wasp: snapshot for %q: local base layer %s does not match the exporter's (content drift)", name, wire.ContentKey)
		}
	}

	// Build the layer, re-hashing every shipped page into the store —
	// the importer never trusts a key it did not compute, so a hostile
	// blob cannot poison the shared store. A nil payload is an explicit
	// zero-override (delta-only; validated above).
	own := make([]vmm.LayerPage, len(wire.Pages))
	for i, p := range wire.Pages {
		own[i] = vmm.LayerPage{Idx: p.Idx, Page: be.forest.Insert(p.Data)}
	}
	snap.layer = vmm.NewLayer(be.forest, parent, wire.Geometry, own)
	// A self-contained import becomes the receiver's base layer for the
	// content when it has none, so later tenant deltas can graft.
	if !wire.Delta && wire.ContentKey != "" {
		be.content.setBase(key, snap.layer)
	}
	w.release(be.snapshots.put(name, snap), nil)
	return nil
}

// decodeSnapshotWire parses and validates a snapshot blob: magic,
// version, lengths, flags, geometry sanity, page bounds and order, and
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
	// next takes the blob's next n bytes. A read past the end latches err
	// and yields nothing, so the parse runs through and checks err once,
	// and no length is used before it is checked against the bytes left.
	rest := data[headerLen:]
	var err error
	next := func(n int) []byte {
		if err == nil && n > len(rest) {
			err = fmt.Errorf("truncated: %d bytes wanted, %d left", n, len(rest))
		}
		if err != nil {
			return nil
		}
		b := rest[:n:n]
		rest = rest[n:]
		return b
	}
	word := func(n int) (v uint64) { // n-byte little-endian
		b := next(n)
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
		return v
	}
	var wire snapshotWire
	st := &wire.State
	flags := word(1)
	wire.Delta, wire.Booted = flags&wireDelta != 0, flags&wireBooted != 0
	wire.Geometry = int(int64(word(8)))
	wire.Captured = int(int64(word(8)))
	copy(wire.BaseDigest[:], next(32))
	wire.ContentKey = string(next(int(word(4))))
	for i := range st.Regs {
		st.Regs[i] = word(8)
	}
	st.IP = word(8)
	cpuFlags := word(1)
	st.Flags = cpu.Flags{ZF: cpuFlags&1 != 0, SF: cpuFlags&2 != 0, CF: cpuFlags&4 != 0, OF: cpuFlags&8 != 0}
	for _, v := range []*uint64{&st.CR0, &st.CR3, &st.CR4, &st.EFER, &st.GDTBase} {
		*v = word(8)
	}
	st.GDTLimit = uint16(word(2))
	st.Mode = isa.Mode(word(1))
	st.GDTLoads = int(int64(word(8)))
	if n := int(word(4)); err == nil && n > len(rest)/12 {
		err = fmt.Errorf("%d pages cannot fit in %d bytes", n, len(rest))
	} else if err == nil {
		wire.Pages = make([]wirePage, n)
	}
	for i := range wire.Pages {
		p := &wire.Pages[i]
		p.Idx = int(int64(word(8)))
		if n := int(word(4)); n > 0 {
			p.Data = next(n)
		}
	}
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%d trailing bytes", len(rest))
	}
	if err != nil {
		return nil, fmt.Errorf("wasp: decoding snapshot for %q: %w", name, err)
	}
	if flags&^(wireDelta|wireBooted) != 0 || cpuFlags > 15 || st.Mode > isa.Mode64 {
		return nil, fmt.Errorf("wasp: snapshot for %q carries unknown flags %#x, CPU flags %#x or CPU mode %d", name, flags, cpuFlags, st.Mode)
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
	prev := -1
	for _, p := range wire.Pages {
		if p.Idx < 0 || p.Idx >= npages {
			return nil, fmt.Errorf("wasp: snapshot for %q: page index %d outside %d-page geometry", name, p.Idx, npages)
		}
		if p.Idx <= prev {
			return nil, fmt.Errorf("wasp: snapshot for %q: page %d duplicates or precedes page %d", name, p.Idx, prev)
		}
		prev = p.Idx
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
		local := dst.content.base(contentKey{snap.contentKey, snap.layer.MemLen()})
		deltaOnly = local != nil && local.Digest() == snap.layer.Parent().Digest()
		local.Release()
	}
	if gate := migrateExportGate; gate != nil {
		gate()
	}
	blob, err := exportRetainedSnapshot(name, snap, deltaOnly)
	if err != nil {
		return 0, false, err
	}
	if err := w.ImportSnapshotOn(toPlatform, name, blob); err != nil {
		return 0, false, err
	}
	if tr := w.tracer; tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindMigrate, name, 0, 0, uint64(len(blob)), uint64(bit(deltaOnly, 1)))
	}
	return len(blob), deltaOnly, nil
}

// migrateExportGate, when non-nil, runs between MigrateSnapshot's wire-form
// decision and the export — a test seam that lets the regression suite park
// a concurrent DropSnapshot/re-capture exactly inside the window the retain
// protocol must cover. Always nil outside tests.
var migrateExportGate func()
