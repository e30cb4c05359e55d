package asm

import (
	"testing"

	"repro/internal/isa"
)

func TestAssembleTrivial(t *testing.T) {
	p, err := Assemble(`
.bits 64
.org 0x8000
_start:
	movi rax, 7
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Origin != 0x8000 {
		t.Fatalf("origin = %#x", p.Origin)
	}
	if p.Entry != 0x8000 {
		t.Fatalf("entry = %#x", p.Entry)
	}
	if p.StartMode != isa.Mode64 {
		t.Fatalf("start mode = %v", p.StartMode)
	}
	// movi = op + regbyte + 8-byte imm = 10; hlt = 1.
	if len(p.Code) != 11 {
		t.Fatalf("code len = %d, want 11", len(p.Code))
	}
	in, err := isa.Decode(p.Code, 0, isa.Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.MOVI || in.Dst != isa.RAX || in.Imm != 7 {
		t.Fatalf("decoded %v", in)
	}
}

func TestLabelResolution(t *testing.T) {
	p, err := Assemble(`
.bits 64
_start:
	jmp target
	nop
target:
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(p.Code, 0, isa.Mode64)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Labels["target"]
	if in.Imm != want {
		t.Fatalf("jmp target = %#x, want %#x", in.Imm, want)
	}
	if want != p.Origin+9+1 { // jmp is 9 bytes, nop 1
		t.Fatalf("target label = %#x", want)
	}
}

func TestForwardAndBackwardLabels(t *testing.T) {
	p, err := Assemble(`
.bits 32
back:
	jmp fwd
	jmp back
fwd:
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["back"] != p.Origin {
		t.Fatal("backward label wrong")
	}
}

func TestMemoryOperands(t *testing.T) {
	p, err := Assemble(`
.bits 64
	load rax, [rbp-8]
	store [rbp+16], rbx
	loadb rcx, [rsi]
`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := isa.Decode(p.Code, 0, isa.Mode64)
	if in.Op != isa.LOAD || in.Dst != isa.RAX || in.Src != isa.RBP || int64(in.Imm) != -8 {
		t.Fatalf("load decoded as %v imm=%d", in, int64(in.Imm))
	}
	in2, _ := isa.Decode(p.Code, uint64(in.Len), isa.Mode64)
	if in2.Op != isa.STORE || in2.Dst != isa.RBP || in2.Src != isa.RBX || in2.Imm != 16 {
		t.Fatalf("store decoded as %v", in2)
	}
	in3, _ := isa.Decode(p.Code, uint64(in.Len+in2.Len), isa.Mode64)
	if in3.Op != isa.LOADB || in3.Src != isa.RSI || in3.Imm != 0 {
		t.Fatalf("loadb decoded as %v", in3)
	}
}

func TestImmediateVsRegisterSelection(t *testing.T) {
	p, err := Assemble(`
.bits 64
	mov rax, rbx
	mov rax, 42
	add rax, rcx
	add rax, 1
	cmp rax, 0
`)
	if err != nil {
		t.Fatal(err)
	}
	var off uint64
	want := []isa.Op{isa.MOV, isa.MOVI, isa.ADD, isa.ADDI, isa.CMPI}
	for i, w := range want {
		in, err := isa.Decode(p.Code, off, isa.Mode64)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op != w {
			t.Fatalf("inst %d: got %v, want %v", i, in.Op, w)
		}
		off += uint64(in.Len)
	}
}

func TestDirectives(t *testing.T) {
	p, err := Assemble(`
.bits 64
.equ MAGIC, 0xAB
data:
.db 1, 2, MAGIC
.db "hi"
.dw 0x1234
.dd 0xDEADBEEF
.dq 0x1122334455667788
.zero 3
.align 8
aligned:
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Code
	if c[0] != 1 || c[1] != 2 || c[2] != 0xAB {
		t.Fatalf(".db wrong: % x", c[:3])
	}
	if string(c[3:5]) != "hi" {
		t.Fatal(".db string wrong")
	}
	if c[5] != 0x34 || c[6] != 0x12 {
		t.Fatal(".dw wrong")
	}
	if c[7] != 0xEF || c[10] != 0xDE {
		t.Fatal(".dd wrong")
	}
	if c[11] != 0x88 || c[18] != 0x11 {
		t.Fatal(".dq wrong")
	}
	if p.Labels["aligned"]%8 != 0 {
		t.Fatalf("aligned label at %#x, not 8-aligned", p.Labels["aligned"])
	}
}

func TestModeSwitchingAffectsEncoding(t *testing.T) {
	p, err := Assemble(`
.bits 16
	movi rax, 1
.bits 64
	movi rax, 1
`)
	if err != nil {
		t.Fatal(err)
	}
	// 16-bit movi: 1+1+2 = 4; 64-bit: 1+1+8 = 10.
	if len(p.Code) != 14 {
		t.Fatalf("code len = %d, want 14", len(p.Code))
	}
	if p.StartMode != isa.Mode16 {
		t.Fatal("start mode should be 16")
	}
}

func TestLjmpEncoding(t *testing.T) {
	p, err := Assemble(`
.bits 16
	ljmp32 prot
.bits 32
prot:
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(p.Code, 0, isa.Mode16)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != isa.LJMP || in.Sub != 4 {
		t.Fatalf("ljmp decoded %v sub=%d", in, in.Sub)
	}
	if in.Imm&0xFFFF != p.Labels["prot"]&0xFFFF {
		t.Fatalf("ljmp target %#x, want %#x", in.Imm, p.Labels["prot"])
	}
}

func TestOutInEncoding(t *testing.T) {
	p, err := Assemble(`
.bits 64
	out 0x10, rdi
	in rax, 0x11
`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := isa.Decode(p.Code, 0, isa.Mode64)
	if in.Op != isa.OUT || in.Imm != 0x10 || in.Dst != isa.RDI {
		t.Fatalf("out decoded %v", in)
	}
	in2, _ := isa.Decode(p.Code, uint64(in.Len), isa.Mode64)
	if in2.Op != isa.IN || in2.Imm != 0x11 || in2.Dst != isa.RAX {
		t.Fatalf("in decoded %v", in2)
	}
}

func TestControlRegisterOps(t *testing.T) {
	p, err := Assemble(`
.bits 32
	rdcr rax, cr0
	movcr cr0, rax
	movcr efer, rbx
`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := isa.Decode(p.Code, 0, isa.Mode32)
	if in.Op != isa.RDCR || isa.CR(in.Src) != isa.CR0 || in.Dst != isa.RAX {
		t.Fatalf("rdcr decoded %v", in)
	}
	in2, _ := isa.Decode(p.Code, 2, isa.Mode32)
	if in2.Op != isa.MOVCR || isa.CR(in2.Dst) != isa.CR0 || in2.Src != isa.RAX {
		t.Fatalf("movcr decoded %v", in2)
	}
	in3, _ := isa.Decode(p.Code, 4, isa.Mode32)
	if isa.CR(in3.Dst) != isa.EFER {
		t.Fatalf("movcr efer decoded %v", in3)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown mnemonic", ".bits 64\n\tfrobnicate rax"},
		{"bad register", ".bits 64\n\tmov xyz, 1"},
		{"unresolved symbol", ".bits 64\n\tjmp nowhere"},
		{"duplicate label", ".bits 64\na:\n\tnop\na:\n\tnop"},
		{"bad bits", ".bits 48"},
		{"wrong operand count", ".bits 64\n\tmov rax"},
		{"bad cr", ".bits 64\n\tmovcr cr9, rax"},
	}
	for _, tc := range cases {
		if _, err := Assemble(tc.src); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestErrorHasLineNumber(t *testing.T) {
	_, err := Assemble(".bits 64\n\tnop\n\tbogus rax\n")
	aerr, ok := err.(*Error)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if aerr.Line != 3 {
		t.Fatalf("line = %d, want 3", aerr.Line)
	}
}

func TestLabelArithmetic(t *testing.T) {
	p, err := Assemble(`
.bits 64
buf:
.zero 16
	movi rax, buf+8
`)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(p.Code, 16, isa.Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if in.Imm != p.Labels["buf"]+8 {
		t.Fatalf("buf+8 = %#x, want %#x", in.Imm, p.Labels["buf"]+8)
	}
}

func TestEntryDefaultsToOrigin(t *testing.T) {
	p, err := Assemble(".bits 64\n\tnop\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != p.Origin {
		t.Fatal("entry should default to origin when no _start")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustAssemble should panic on bad source")
		}
	}()
	MustAssemble("bogus instruction stream")
}

// MustAssemble is Assemble for static program text; it panics on error and
// exists for package-level program constants in the guest runtime.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}
