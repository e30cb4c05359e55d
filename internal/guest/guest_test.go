package guest

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/isa"
)

// loadAddr is where every image is loaded: asm.NewUnit's origin, §5.1's
// 0x8000.
const loadAddr = 0x8000

func TestMinimalHaltAssembles(t *testing.T) {
	img := MinimalHalt()
	if img.Origin != loadAddr {
		t.Fatalf("origin = %#x, want %#x", img.Origin, loadAddr)
	}
	if img.Mode != isa.Mode16 {
		t.Fatal("self-booting images must start in real mode")
	}
	if len(img.Code) == 0 {
		t.Fatal("empty image")
	}
	// The paper's minimal images are ~16 KB with libc; the bare boot
	// stub must be well under 1 KB.
	if len(img.Code) > 1024 {
		t.Fatalf("minimal image is %d bytes", len(img.Code))
	}
}

func TestFootprintAndMemBytes(t *testing.T) {
	img := MinimalHalt()
	if img.Footprint() != int(img.Origin)+len(img.Code) {
		t.Fatal("footprint math wrong")
	}
	if img.MemBytes() < MinMemory {
		t.Fatal("memory below minimum")
	}
	if img.MemBytes()%4096 != 0 {
		t.Fatal("memory not page aligned")
	}
	padded := img.WithPad(1 << 20)
	if padded.Footprint() != img.Footprint()+(1<<20) {
		t.Fatal("padding not counted in footprint")
	}
	if padded.Name == img.Name {
		t.Fatal("padded image must take a distinct snapshot key")
	}
	if img.Pad != 0 {
		t.Fatal("WithPad mutated the original")
	}
}

func TestExtraHeapGrowsMemory(t *testing.T) {
	img := MinimalHalt()
	big := *img
	big.ExtraHeap = 1 << 20
	if big.MemBytes() <= img.MemBytes() {
		t.Fatal("ExtraHeap ignored")
	}
}

func TestWrapProtectedOmitsPaging(t *testing.T) {
	src := WrapProtected("\thlt\n")
	if strings.Contains(src, "vx_long64") {
		t.Fatal("protected wrapper should not include long-mode boot")
	}
	if !strings.Contains(src, "vx_prot32") {
		t.Fatal("protected wrapper missing protected entry")
	}
	src64 := WrapLongMode("\thlt\n")
	if !strings.Contains(src64, "vx_pdloop") {
		t.Fatal("long wrapper missing page-table construction")
	}
	if !strings.Contains(src64, "__image_end") {
		t.Fatal("long wrapper missing heap-start label")
	}
}

func TestFromAsmRejectsBadOrigin(t *testing.T) {
	if _, err := FromAsm("bad", ".org 0x100\n.bits 16\n\thlt\n"); err == nil {
		t.Fatal("origin inside reserved layout accepted")
	}
	if _, err := FromAsm("bad2", "not assembly"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestMustFromAsmPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustFromAsm should panic")
		}
	}()
	MustFromAsm("bad", "garbage input here")
}

func TestNativeBootStub(t *testing.T) {
	called := false
	img := NativeBootStub("n", func(any) error { called = true; return nil }, 4096)
	if img.Native == nil {
		t.Fatal("native fn not attached")
	}
	if img.ExtraHeap != 4096 {
		t.Fatal("extra heap not set")
	}
	_ = img.Native(nil)
	if !called {
		t.Fatal("native fn not invocable")
	}
}

func TestLayoutConstantsDisjoint(t *testing.T) {
	// The fixed layout regions must not overlap. The long-mode
	// identity-map tables are three 4 KiB pages at cpu.DefaultTableBase.
	tableBase, tableEnd := cpu.DefaultTableBase, cpu.DefaultTableBase+3<<12
	if ArgAddr+ArgMax > tableBase {
		t.Fatal("args overlap page tables")
	}
	if tableEnd > RetAddr {
		t.Fatal("page tables overlap return region")
	}
	if RetAddr+RetMax > HeapBase {
		t.Fatal("return region overlaps heap")
	}
	if HeapBase > loadAddr {
		t.Fatal("heap base beyond load address")
	}
}
