package wasp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/vmm"
)

// tenantImg is the shared binary tenant clones are forked from: it
// doubles its argument, so each tenant's correctness is checkable and
// each tenant's snapshot differs from the base only in the arg page.
func tenantImg(name string) *guest.Image {
	return guest.MustFromAsm(name, guest.WrapLongMode(`
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
}

// validSnapshotBlob runs an image to capture and exports its snapshot.
func validSnapshotBlob(t *testing.T) []byte {
	t.Helper()
	w := New()
	img := tenantImg("wire-src")
	if _, err := w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(1)}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	blob, err := w.ExportSnapshot(img.Name)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// encodeWire re-serializes a (possibly corrupted) wire struct under the
// current magic/version header.
func encodeWire(t *testing.T, wire snapshotWire) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	buf.WriteByte(snapshotVersion)
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportBlobCarriesMagicAndVersion pins the wire header: 4 magic
// bytes then the explicit format-version byte.
func TestExportBlobCarriesMagicAndVersion(t *testing.T) {
	blob := validSnapshotBlob(t)
	if string(blob[:4]) != snapshotMagic {
		t.Fatalf("magic = %q", blob[:4])
	}
	if blob[4] != snapshotVersion {
		t.Fatalf("version byte = %d, want %d", blob[4], snapshotVersion)
	}
}

// TestImportRejectsHostileBlobs is the negative-input table for the
// snapshot blob parser: truncations, corruption, mismatched geometry
// and hostile lengths must all fail with a clear error and no side
// effects on the receiving forest.
func TestImportRejectsHostileBlobs(t *testing.T) {
	blob := validSnapshotBlob(t)
	wire, err := decodeSnapshotWire("seed", blob)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func(w *snapshotWire)) []byte {
		c := *wire
		c.Pages = append([]wirePage(nil), wire.Pages...)
		fn(&c)
		return encodeWire(t, c)
	}

	futureVersion := append([]byte(nil), blob...)
	futureVersion[4] = snapshotVersion + 1
	badMagic := append([]byte(nil), blob...)
	copy(badMagic, "NOPE")
	// Cut a chunk out of the gob stream: interior lengths no longer
	// match, which the decoder reports. (Single flipped payload bytes can
	// decode into a different-but-valid snapshot — that shapeless space
	// belongs to FuzzImportSnapshot's no-panic/coherence property.)
	corruptGob := append(append([]byte(nil), blob[:64]...), blob[96:]...)

	cases := []struct {
		name string
		blob []byte
		want string // substring of the expected error
	}{
		{"empty", nil, "truncated"},
		{"header only", blob[:5], "decoding"},
		{"truncated mid-gob", blob[:len(blob)/2], "decoding"},
		{"bad magic", badMagic, "bad magic"},
		{"future version", futureVersion, fmt.Sprintf("version %d", snapshotVersion+1)},
		{"corrupted gob", corruptGob, ""},
		{"zero geometry", mutate(func(w *snapshotWire) { w.Geometry = 0 }), "hostile geometry"},
		{"negative geometry", mutate(func(w *snapshotWire) { w.Geometry = -4096 }), "hostile geometry"},
		{"huge geometry", mutate(func(w *snapshotWire) { w.Geometry = maxWireGeometry + 1 }), "hostile geometry"},
		{"captured zero", mutate(func(w *snapshotWire) { w.Captured = 0 }), "malformed"},
		{"captured beyond geometry", mutate(func(w *snapshotWire) { w.Captured = w.Geometry + 1 }), "malformed"},
		{"geometry shrunk under pages", mutate(func(w *snapshotWire) { w.Geometry = vmm.PageSize }), "geometry"},
		{"page index negative", mutate(func(w *snapshotWire) { w.Pages[0].Idx = -1 }), "outside"},
		{"page index out of range", mutate(func(w *snapshotWire) { w.Pages[0].Idx = 1 << 20 }), "outside"},
		{"duplicate page", mutate(func(w *snapshotWire) { w.Pages[1].Idx = w.Pages[0].Idx }), "duplicate"},
		{"short page", mutate(func(w *snapshotWire) { w.Pages[0].Data = w.Pages[0].Data[:100] }), "100 bytes"},
		{"oversized page", mutate(func(w *snapshotWire) { w.Pages[0].Data = make([]byte, 1<<20) }), "bytes"},
		{"nil page in full blob", mutate(func(w *snapshotWire) { w.Pages[0].Data = nil }), "zero-override"},
		{"delta without content key", mutate(func(w *snapshotWire) { w.Delta = true; w.ContentKey = "" }), "without a base content key"},
		{"digest on full blob", mutate(func(w *snapshotWire) { w.BaseDigest[0] = 1 }), "self-contained"},
		{"delta without local base", mutate(func(w *snapshotWire) {
			w.Delta = true
			w.ContentKey = "no-such-content"
			w.Pages = w.Pages[:1]
		}), "does not hold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := New()
			err := w.ImportSnapshot("victim", tc.blob)
			if err == nil {
				t.Fatal("hostile blob accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if w.HasSnapshot("victim") {
				t.Fatal("rejected import left a snapshot behind")
			}
			if st := w.ForestStats(); st.StorePages != 0 {
				t.Fatalf("rejected import leaked %d pages into the store", st.StorePages)
			}
		})
	}
}

// FuzzImportSnapshot throws mutated blobs at the importer: it must
// never panic, and whatever it accepts must leave the forest coherent
// and export back cleanly.
func FuzzImportSnapshot(f *testing.F) {
	w := New()
	img := tenantImg("fuzz-src")
	if _, err := w.Run(img, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(1)}, cycles.NewClock()); err != nil {
		f.Fatal(err)
	}
	blob, err := w.ExportSnapshot(img.Name)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:5])
	f.Add([]byte(snapshotMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		w := New()
		if err := w.ImportSnapshot("fuzzed", data); err != nil {
			if w.HasSnapshot("fuzzed") {
				t.Fatal("failed import installed a snapshot")
			}
			return
		}
		if err := w.VerifyForest(); err != nil {
			t.Fatalf("accepted blob corrupted the store: %v", err)
		}
		if _, err := w.ExportSnapshot("fuzzed"); err != nil {
			t.Fatalf("accepted blob does not round-trip: %v", err)
		}
	})
}

// TestDeltaExportShipsOnlyDelta is the satellite-6 regression: a tenant
// snapshot's delta export must stay a small fraction of its full
// export, because only the tenant-owned pages cross the wire.
func TestDeltaExportShipsOnlyDelta(t *testing.T) {
	w := New()
	base := tenantImg("delta-base")
	cfg := func(arg uint64) RunConfig {
		return RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}
	}
	if _, err := w.Run(base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	tenant := base.WithName("delta-tenant")
	if _, err := w.Run(tenant, cfg(21), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}

	full, err := w.ExportSnapshot(tenant.Name)
	if err != nil {
		t.Fatal(err)
	}
	delta, err := w.ExportSnapshotDelta(tenant.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta)*4 > len(full) {
		t.Fatalf("delta blob %d B vs full %d B; delta export is not thin", len(delta), len(full))
	}

	// Receiver with the base: full import of the base image first (which
	// registers the base layer), then the tenant delta grafts onto it.
	baseBlob, err := w.ExportSnapshot(base.Name)
	if err != nil {
		t.Fatal(err)
	}
	b := New()
	if err := b.ImportSnapshot(base.Name, baseBlob); err != nil {
		t.Fatal(err)
	}
	if !b.HasBaseLayer(base.ContentKey()) {
		t.Fatal("full import did not register a base layer")
	}
	if err := b.ImportSnapshot(tenant.Name, delta); err != nil {
		t.Fatalf("delta graft failed: %v", err)
	}
	res, err := b.Run(tenant, cfg(50), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotUsed {
		t.Fatal("grafted tenant did not resume from its snapshot")
	}
	if got := fromLE64(res.Ret); got != 100 {
		t.Fatalf("grafted tenant ret %d, want 100", got)
	}

	// Receiver without the base rejects the same delta cleanly.
	c := New()
	if err := c.ImportSnapshot(tenant.Name, delta); err == nil ||
		!strings.Contains(err.Error(), "does not hold") {
		t.Fatalf("delta import without base: err = %v", err)
	}
}

// TestDeltaImportRejectsDriftedBase: a delta must not graft onto a base
// whose resolved content differs from the exporter's.
func TestDeltaImportRejectsDriftedBase(t *testing.T) {
	mkWasp := func(arg uint64) (*Wasp, *guest.Image) {
		w := New()
		base := tenantImg("drift-base")
		if _, err := w.Run(base, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		return w, base
	}
	a, base := mkWasp(1)
	tenant := base.WithName("drift-tenant")
	if _, err := a.Run(tenant, RunConfig{Snapshot: true, RetBytes: 8, Args: le64(2)}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	delta, err := a.ExportSnapshotDelta(tenant.Name)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver captured its own base with a different argument, so
	// its base layer's content digest differs from the exporter's.
	b, _ := mkWasp(9)
	if err := b.ImportSnapshot(tenant.Name, delta); err == nil ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("drifted-base graft: err = %v", err)
	}
}

// TestMigrateSnapshotShipsDeltaWhenTargetHoldsBase is the placement
// follow-up hook: rebalancing a tenant between backends ships only the
// tenant delta when the target already holds the base layer.
func TestMigrateSnapshotShipsDeltaWhenTargetHoldsBase(t *testing.T) {
	w := New(WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	kvm, hyperv := vmm.KVM{}.Name(), vmm.HyperV{}.Name()
	base := tenantImg("mig-base")
	cfg := func(arg uint64) RunConfig {
		return RunConfig{Snapshot: true, RetBytes: 8, Args: le64(arg)}
	}
	// Both backends boot the base image from scratch: the deterministic
	// interpreter captures identical base layers, so their digests match
	// and tenant deltas can graft across.
	if _, err := w.RunOn(kvm, base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunOn(hyperv, base, cfg(1), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if !w.HasBaseLayerOn(hyperv, base.ContentKey()) {
		t.Fatal("target backend has no base layer after running the base image")
	}
	tenant := base.WithName("mig-tenant")
	if _, err := w.RunOn(kvm, tenant, cfg(3), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	full, err := w.ExportSnapshotOn(kvm, tenant.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	shipped, deltaOnly, err := w.MigrateSnapshot(tenant.Name, kvm, hyperv)
	if err != nil {
		t.Fatal(err)
	}
	if !deltaOnly {
		t.Fatal("migration shipped full snapshot although the target holds the base")
	}
	if shipped*4 > len(full) {
		t.Fatalf("delta migration shipped %d B vs full export %d B; regression in thin shipping", shipped, len(full))
	}
	// The migrated tenant must actually work on the target.
	res, err := w.RunOn(hyperv, tenant, cfg(30), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res.SnapshotUsed || fromLE64(res.Ret) != 60 {
		t.Fatalf("migrated tenant on %s: used=%v ret=%d", hyperv, res.SnapshotUsed, fromLE64(res.Ret))
	}

	// A snapshot with no base anywhere (fresh content) ships full.
	solo := guest.MustFromAsm("mig-solo", guest.WrapLongMode(`
	out 0x08, rdi
	movi rbx, 0x4000
	movi rax, 11
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	if _, err := w.RunOn(kvm, solo, RunConfig{Snapshot: true, RetBytes: 8}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if _, deltaOnly, err = w.MigrateSnapshot(solo.Name, kvm, hyperv); err != nil {
		t.Fatal(err)
	}
	if deltaOnly {
		t.Fatal("baseless snapshot claimed a delta migration")
	}
}
