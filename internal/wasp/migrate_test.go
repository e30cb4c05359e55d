package wasp

import (
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
)

func TestSnapshotMigration(t *testing.T) {
	// Machine A runs the virtine once (boot + snapshot), exports the
	// snapshot; machine B imports it and resumes directly at the
	// snapshot point, never paying the boot.
	img := guest.MustFromAsm("migrate-me", guest.WrapLongMode(`
	movi rbx, 0x6000
	movi rax, 7777
	store [rbx], rax     ; pre-snapshot state the migration must carry
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6000
	load rax, [rbx]
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	cfg := RunConfig{Snapshot: true, RetBytes: 8}

	a := New()
	resA, err := a.Run(img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if fromLE64(resA.Ret) != 7777 {
		t.Fatalf("machine A result: %d", fromLE64(resA.Ret))
	}
	blob, err := a.ExportSnapshotOn("", img.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty snapshot blob")
	}

	b := New()
	if err := b.ImportSnapshotOn("", img.Name, blob); err != nil {
		t.Fatal(err)
	}
	resB, err := b.Run(img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !resB.SnapshotUsed {
		t.Fatal("machine B did not resume from the migrated snapshot")
	}
	if fromLE64(resB.Ret) != 7777 {
		t.Fatalf("migrated state lost: %d", fromLE64(resB.Ret))
	}
	// B never booted the image: its run must be cheaper than A's cold
	// run.
	if resB.Cycles >= resA.Cycles {
		t.Fatalf("migrated run (%d) should be cheaper than cold boot (%d)", resB.Cycles, resA.Cycles)
	}
}

func TestExportMissingSnapshot(t *testing.T) {
	w := New()
	if _, err := w.ExportSnapshotOn("", "nothing", false); err == nil {
		t.Fatal("export of missing snapshot accepted")
	}
}

func TestExportNativeSnapshotRefused(t *testing.T) {
	native := func(c any) error {
		n := c.(*NativeCtx)
		if n.Restored() == nil {
			n.TakeSnapshot("host-state")
		}
		_, err := n.Hypercall(hypercall.NrExit, 0)
		return err
	}
	img := guest.NativeBootStub("native-snap", native, 0)
	w := New()
	if _, err := w.Run(img, RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	_, err := w.ExportSnapshotOn("", img.Name, false)
	if err == nil || !strings.Contains(err.Error(), "not portable") {
		t.Fatalf("err = %v, want not-portable refusal", err)
	}
}

func TestImportRejectsGarbage(t *testing.T) {
	w := New()
	if err := w.ImportSnapshotOn("", "x", []byte("not a snapshot")); err == nil {
		t.Fatal("garbage import accepted")
	}
}

func TestImportRejectsMalformed(t *testing.T) {
	// A structurally valid gob with inconsistent sizes must be rejected.
	img := guest.MustFromAsm("malform", guest.WrapLongMode(`
	out 0x08, rdi
	hlt
`))
	a := New()
	if _, err := a.Run(img, RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	blob, err := a.ExportSnapshotOn("", img.Name, false)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encode with a corrupted captured count by importing then
	// hand-rolling: simplest is truncating the blob.
	if err := a.ImportSnapshotOn("", "trunc", blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}
