// Package isa defines VX, the x86-modelled instruction set executed by the
// guest CPU emulator (internal/cpu). VX is not binary-compatible with x86,
// but it is architecturally faithful where the paper's measurements depend
// on architecture: it has the three canonical operating modes (16-bit real,
// 32-bit protected, 64-bit long), control registers gating mode transitions
// (CR0.PE, CR0.PG, CR4.PAE, EFER.LME/LMA, CR3), a GDT loaded with LGDT,
// far jumps that complete mode switches, and port I/O (OUT) as the
// hypercall trap, exactly as Wasp uses virtual I/O ports (§5.1).
//
// Encoding: instructions are variable length. Byte 0 is the opcode,
// byte 1 (when present) packs two register operands (dst in the low
// nibble, src in the high nibble). Immediates and displacements are
// encoded at the operating width of the code that contains them (2, 4, or
// 8 bytes), which is why — as on x86 — the same binary image carries
// 16-bit boot code, 32-bit protected-mode code, and 64-bit long-mode code,
// and the CPU decodes according to its current mode.
package isa

import (
	"encoding/binary"
	"fmt"
)

// Reg names the sixteen general-purpose registers. The x86 aliases are
// used throughout the toolchain; the hypercall ABI follows the SysV/Linux
// convention (number in the port, args in RDI/RSI/RDX/R10/R8/R9, return in
// RAX).
type Reg uint8

const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15
	NumRegs = 16
)

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("r?%d", uint8(r))
}

// RegByName resolves an assembler register name (x86 alias, any width
// prefix: rax/eax/ax all name RAX).
func RegByName(name string) (Reg, bool) {
	for i, n := range regNames {
		if name == n {
			return Reg(i), true
		}
	}
	for i := range aliases32 {
		if name == aliases32[i] || name == aliases16[i] {
			return Reg(i), true
		}
	}
	return 0, false
}

// The 32- and 16-bit names of the first eight registers, in order.
var (
	aliases32 = [...]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}
	aliases16 = [...]string{"ax", "cx", "dx", "bx", "sp", "bp", "si", "di"}
)

// CR names the control registers reachable with MOVCR/RDCR.
type CR uint8

const (
	CR0 CR = iota
	CR3
	CR4
	EFER
	NumCRs
)

func (c CR) String() string {
	switch c {
	case CR0:
		return "cr0"
	case CR3:
		return "cr3"
	case CR4:
		return "cr4"
	case EFER:
		return "efer"
	}
	return fmt.Sprintf("cr?%d", uint8(c))
}

// Control-register bits (x86 numbering where it matters).
const (
	CR0PE   = 1 << 0  // protection enable
	CR0PG   = 1 << 31 // paging enable
	CR4PAE  = 1 << 5  // physical address extension
	EFERLME = 1 << 8  // long mode enable
	EFERLMA = 1 << 10 // long mode active (set by hardware)
)

// Mode is the CPU operating mode, which fixes operand width.
type Mode uint8

const (
	Mode16 Mode = iota // real mode
	Mode32             // protected mode
	Mode64             // long mode
)

func (m Mode) String() string {
	switch m {
	case Mode16:
		return "real16"
	case Mode32:
		return "prot32"
	case Mode64:
		return "long64"
	}
	return "mode?"
}

// widthTab is sized and masked so the compiler can elide the bounds
// check; indices 3+ are unreachable (there are three modes).
var widthTab = [4]int{Mode16: 2, Mode32: 4, Mode64: 8, 3: 8}

// Width returns the operand width in bytes for the mode.
func (m Mode) Width() int { return widthTab[m&3] }

// Op is a VX opcode.
type Op uint8

const (
	NOP Op = iota
	HLT
	MOVI  // mov dst, imm
	MOV   // mov dst, src
	LOAD  // load dst, [src+disp]
	STORE // store [dst+disp], src
	LOADB // byte load (zero-extends)
	STOREB
	ADD  // add dst, src
	ADDI // add dst, imm
	SUB
	SUBI
	MUL
	DIV // unsigned-ish: signed 64-bit quotient
	MOD
	AND
	ANDI
	OR
	ORI
	XOR
	SHL // shl dst, imm8
	SHR
	SAR
	NEG
	NOT
	INC
	DEC
	CMP  // cmp a, b (sets flags)
	CMPI // cmp a, imm
	JMP  // absolute, imm at current width
	JZ
	JNZ
	JL // signed <
	JG
	JLE
	JGE
	JB  // unsigned <
	JAE // unsigned >=
	CALL
	RET
	PUSH
	POP
	OUT   // out imm8, reg — hypercall trap
	IN    // in reg, imm8
	LGDT  // lgdt imm (address of descriptor in memory)
	MOVCR // movcr crN, reg
	RDCR  // rdcr reg, crN
	LJMP  // ljmp width8, imm — far jump completing a mode switch
	CLI
	STI
	SHLV // variable shifts: dst <<= src&63
	SHRV
	SARV
	NumOps
)

var opNames = [NumOps]string{
	"nop", "hlt", "movi", "mov", "load", "store", "loadb", "storeb",
	"add", "addi", "sub", "subi", "mul", "div", "mod",
	"and", "andi", "or", "ori", "xor", "shl", "shr", "sar",
	"neg", "not", "inc", "dec", "cmp", "cmpi",
	"jmp", "jz", "jnz", "jl", "jg", "jle", "jge", "jb", "jae",
	"call", "ret", "push", "pop", "out", "in",
	"lgdt", "movcr", "rdcr", "ljmp", "cli", "sti",
	"shlv", "shrv", "sarv",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o < NumOps }

// ImmKind describes the immediate an instruction carries.
type ImmKind uint8

const (
	ImmNone ImmKind = iota
	ImmWord         // operating-width immediate
	ImmByte         // single byte (shift counts, port numbers, widths)
)

// opShape is an opcode's operand shape, read by the encoder, decoder and
// disassembler.
type opShape struct {
	regByte bool    // carries the packed register operand byte
	imm     ImmKind // the immediate it carries
	fixed   uint8   // encoded bytes besides a word immediate
}

// len returns the encoded length at mode m.
func (s opShape) len(m Mode) int {
	if s.imm == ImmWord {
		return int(s.fixed) + m.Width()
	}
	return int(s.fixed)
}

// shapes holds the shape of every byte value, built once at init and
// indexed without a bounds check. Undefined opcodes get the shape of a
// register-only instruction; Decode rejects them before reading it.
var shapes = func() (t [256]opShape) {
	for i := range t {
		s := &t[i]
		switch Op(i) {
		case NOP, HLT, JMP, JZ, JNZ, JL, JG, JLE, JGE, JB, JAE, CALL, RET,
			LGDT, CLI, STI, LJMP:
		default:
			s.regByte = true
		}
		switch Op(i) {
		case MOVI, ADDI, SUBI, ANDI, ORI, CMPI, LOAD, STORE, LOADB, STOREB,
			JMP, JZ, JNZ, JL, JG, JLE, JGE, JB, JAE, CALL, LGDT:
			s.imm = ImmWord
		case SHL, SHR, SAR, OUT, IN:
			s.imm = ImmByte
		case LJMP:
			// A width byte, then a word immediate.
			s.imm = ImmWord
			s.fixed++
		}
		s.fixed++ // the opcode
		if s.regByte {
			s.fixed++
		}
		if s.imm == ImmByte {
			s.fixed++
		}
	}
	return t
}()

// HasRegByte reports whether the instruction carries the packed register
// operand byte.
func (o Op) HasRegByte() bool { return shapes[o].regByte }

// Imm returns the immediate kind for the opcode. LJMP reports ImmWord: its
// width byte is counted by EncodedLen and read by the codec.
func (o Op) Imm() ImmKind { return shapes[o].imm }

// EncodedLen returns the instruction length in bytes at the given mode.
func (o Op) EncodedLen(m Mode) int { return shapes[o].len(m) }

// PackRegs packs dst and src into the operand byte.
func PackRegs(dst, src Reg) byte { return byte(dst)&0x0F | byte(src)<<4 }

// UnpackRegs splits the operand byte.
func UnpackRegs(b byte) (dst, src Reg) { return Reg(b & 0x0F), Reg(b >> 4) }

// PutWord encodes v at the mode's width into buf, little-endian, returning
// the number of bytes written.
func PutWord(buf []byte, m Mode, v uint64) int {
	switch m {
	case Mode16:
		binary.LittleEndian.PutUint16(buf, uint16(v))
		return 2
	case Mode32:
		binary.LittleEndian.PutUint32(buf, uint32(v))
		return 4
	default:
		binary.LittleEndian.PutUint64(buf, v)
		return 8
	}
}

// Word decodes a little-endian value of the mode's width. Values are
// sign-extended to 64 bits: displacements and relative offsets need sign,
// and addresses in 16/32-bit modes never have the top bit set in practice.
func Word(buf []byte, m Mode) uint64 {
	switch m {
	case Mode16:
		return uint64(int64(int16(binary.LittleEndian.Uint16(buf))))
	case Mode32:
		return uint64(int64(int32(binary.LittleEndian.Uint32(buf))))
	default:
		return binary.LittleEndian.Uint64(buf)
	}
}
