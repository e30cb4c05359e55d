package isa

import (
	"testing"
	"testing/quick"
)

func TestRegNames(t *testing.T) {
	if RAX.String() != "rax" || R15.String() != "r15" {
		t.Fatal("register names wrong")
	}
	r, ok := RegByName("eax")
	if !ok || r != RAX {
		t.Fatal("eax should alias rax")
	}
	r, ok = RegByName("sp")
	if !ok || r != RSP {
		t.Fatal("sp should alias rsp")
	}
	if _, ok := RegByName("xyz"); ok {
		t.Fatal("xyz should not resolve")
	}
}

// TestRegByNameMissAllocs: a name that is no register (every label,
// immediate and memory operand the text front end classifies) costs no
// allocation, and neither does an alias.
func TestRegByNameMissAllocs(t *testing.T) {
	for _, name := range []string{"fn_main", "0x8000", "[rbp-8]", "eax"} {
		if n := testing.AllocsPerRun(100, func() { RegByName(name) }); n != 0 {
			t.Errorf("RegByName(%q) makes %v allocations, want 0", name, n)
		}
	}
}

func TestModeWidth(t *testing.T) {
	cases := []struct {
		m Mode
		w int
	}{{Mode16, 2}, {Mode32, 4}, {Mode64, 8}}
	for _, c := range cases {
		if c.m.Width() != c.w {
			t.Fatalf("%v width = %d, want %d", c.m, c.m.Width(), c.w)
		}
	}
}

func TestPackUnpackRegs(t *testing.T) {
	f := func(d, s uint8) bool {
		dst, src := Reg(d%16), Reg(s%16)
		gd, gs := UnpackRegs(PackRegs(dst, src))
		return gd == dst && gs == src
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWordSignExtension(t *testing.T) {
	var buf [8]byte
	// -8 at 16-bit width must round-trip as a sign-extended 64-bit value.
	minus8 := int64(-8)
	n := PutWord(buf[:], Mode16, uint64(minus8))
	if n != 2 {
		t.Fatalf("PutWord wrote %d bytes, want 2", n)
	}
	if got := int64(Word(buf[:], Mode16)); got != -8 {
		t.Fatalf("Word = %d, want -8", got)
	}
	// 0x8000 decodes as negative at 16-bit width (callers re-mask
	// addresses); check the documented sign extension happens.
	PutWord(buf[:], Mode16, 0x8000)
	if got := Word(buf[:], Mode16); got != 0xFFFF_FFFF_FFFF_8000 {
		t.Fatalf("Word(0x8000@16) = %#x, want sign-extended", got)
	}
}

func TestWordRoundTripAllWidths(t *testing.T) {
	f := func(v int32, mRaw uint8) bool {
		m := Mode(mRaw % 3)
		var buf [8]byte
		// Clamp v to fit the width so the round trip is exact.
		val := int64(v)
		if m == Mode16 {
			val = int64(int16(v))
		}
		PutWord(buf[:], m, uint64(val))
		return int64(Word(buf[:], m)) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedLenMatchesDecode(t *testing.T) {
	// Build a canonical encoding for every opcode and check Decode
	// agrees with EncodedLen at every mode.
	for op := Op(0); op < NumOps; op++ {
		for _, m := range []Mode{Mode16, Mode32, Mode64} {
			buf := make([]byte, 1+1+1+8)
			buf[0] = byte(op)
			if op == LJMP {
				// width byte must be valid-ish
				pos := 1
				if op.HasRegByte() {
					pos = 2
				}
				buf[pos] = 4
			}
			in, err := Decode(buf, 0, m)
			if err != nil {
				t.Fatalf("%v@%v: %v", op, m, err)
			}
			if in.Len != op.EncodedLen(m) {
				t.Fatalf("%v@%v: decode len %d != EncodedLen %d", op, m, in.Len, op.EncodedLen(m))
			}
		}
	}
}

func TestDecodeInvalidOpcode(t *testing.T) {
	if _, err := Decode([]byte{0xFF}, 0, Mode64); err == nil {
		t.Fatal("want error for invalid opcode")
	}
	if _, err := Decode([]byte{byte(MOVI)}, 0, Mode64); err == nil {
		t.Fatal("want error for truncated instruction")
	}
	if _, err := Decode(nil, 0, Mode64); err == nil {
		t.Fatal("want error for empty code")
	}
	if _, err := Decode([]byte{0}, 5, Mode64); err == nil {
		t.Fatal("want error for fetch beyond image")
	}
}

func TestInstString(t *testing.T) {
	code := make([]byte, 10)
	code[0] = byte(MOVI)
	code[1] = PackRegs(RAX, 0)
	PutWord(code[2:], Mode64, 42)
	in, err := Decode(code, 0, Mode64)
	if err != nil {
		t.Fatal(err)
	}
	if in.String() != "movi rax, 42" {
		t.Fatalf("String = %q", in.String())
	}
}

func TestDisassembleStopsOnGarbage(t *testing.T) {
	out := Disassemble([]byte{byte(NOP), byte(HLT), 0xEE}, 0x8000, Mode64)
	if out == "" {
		t.Fatal("disassembly empty")
	}
	// Should contain the two valid instructions then the error marker.
	if !contains(out, "nop") || !contains(out, "hlt") || !contains(out, "<") {
		t.Fatalf("unexpected disassembly:\n%s", out)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCRString(t *testing.T) {
	if CR0.String() != "cr0" || EFER.String() != "efer" {
		t.Fatal("CR names wrong")
	}
}
