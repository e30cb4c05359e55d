package isa

import (
	"fmt"
	"strings"
)

// Inst is one decoded instruction.
type Inst struct {
	Op  Op
	Dst Reg
	Src Reg
	Imm uint64 // sign-extended word immediate or zero-extended byte imm
	Sub byte   // LJMP width byte (2/4/8), MOVCR/RDCR CR index lives in Src
	Len int    // encoded length in bytes
}

// Decode decodes one instruction from code at off, at operating mode m.
// It returns the instruction or an error for truncated/invalid encodings.
func Decode(code []byte, off uint64, m Mode) (Inst, error) {
	if off >= uint64(len(code)) {
		return Inst{}, fmt.Errorf("isa: fetch beyond image at %#x", off)
	}
	op := Op(code[off])
	if !op.Valid() {
		return Inst{}, fmt.Errorf("isa: invalid opcode %#x at %#x", code[off], off)
	}
	sh := shapes[op]
	n := sh.len(m)
	if off+uint64(n) > uint64(len(code)) {
		return Inst{}, fmt.Errorf("isa: truncated %s at %#x", op, off)
	}
	in := Inst{Op: op, Len: n}
	p := off + 1
	if sh.regByte {
		in.Dst, in.Src = UnpackRegs(code[p])
		p++
	}
	if op == LJMP {
		in.Sub = code[p]
		p++
	}
	switch sh.imm {
	case ImmWord:
		in.Imm = Word(code[p:], m)
	case ImmByte:
		in.Imm = uint64(code[p])
	}
	return in, nil
}

// String renders the instruction in assembler syntax.
func (in Inst) String() string {
	switch in.Op {
	case NOP, HLT, RET, CLI, STI:
		return in.Op.String()
	case MOVI, ADDI, SUBI, ANDI, ORI, CMPI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, int64(in.Imm))
	case MOV, ADD, SUB, MUL, DIV, MOD, AND, OR, XOR, CMP, SHLV, SHRV, SARV:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src)
	case LOAD, LOADB:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Dst, in.Src, int64(in.Imm))
	case STORE, STOREB:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.Dst, int64(in.Imm), in.Src)
	case SHL, SHR, SAR:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case NEG, NOT, INC, DEC, PUSH, POP:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case JMP, JZ, JNZ, JL, JG, JLE, JGE, JB, JAE, CALL, LGDT:
		return fmt.Sprintf("%s %#x", in.Op, in.Imm)
	case OUT:
		return fmt.Sprintf("out %#x, %s", in.Imm, in.Dst)
	case IN:
		return fmt.Sprintf("in %s, %#x", in.Dst, in.Imm)
	case MOVCR:
		return fmt.Sprintf("movcr %s, %s", CR(in.Dst), in.Src)
	case RDCR:
		return fmt.Sprintf("rdcr %s, %s", in.Dst, CR(in.Src))
	case LJMP:
		return fmt.Sprintf("ljmp%d %#x", in.Sub*8, in.Imm)
	}
	return in.Op.String()
}

// Disassemble renders code starting at base in mode m until an invalid
// byte or the end of the buffer, one instruction per line. It is a
// debugging aid; mixed-mode images (boot code) disassemble only their
// first mode's section correctly, as on x86.
func Disassemble(code []byte, base uint64, m Mode) string {
	var sb strings.Builder
	var off uint64
	for off < uint64(len(code)) {
		in, err := Decode(code, off, m)
		if err != nil {
			fmt.Fprintf(&sb, "%06x: <%v>\n", base+off, err)
			break
		}
		fmt.Fprintf(&sb, "%06x: %s\n", base+off, in)
		off += uint64(in.Len)
	}
	return sb.String()
}
