// Package asm implements a two-pass assembler for the VX instruction set.
//
// The virtine toolchain uses it the way the paper uses NASM: hand-written
// boot stubs and microbenchmark kernels ("roughly 160 lines of assembly",
// §4.2) are assembled into flat binary images loaded at guest address
// 0x8000. Source may mix operating widths with the .bits directive, just
// as x86 boot code does: the encoder emits immediates at the width in
// force, and the CPU decodes at whatever mode it is in when it reaches
// that code.
//
// The assembler works on typed statements (Stmt): a label, a data
// directive, or an instruction whose mnemonic is already resolved to its
// isa.Op, with register, immediate, memory and label operands. A Unit
// collects statements from two front ends — the text parser below, and
// code generators such as vcc that build statements directly — then lays
// them out and encodes them once. Listing renders typed statements back
// as text that the parser reads to the same statements. A program may
// lay out at most MaxImage bytes.
//
// Syntax summary:
//
//	; comment
//	.bits 16|32|64       set operating width
//	.org  ADDR           set load/origin address (default 0x8000)
//	.equ  NAME, EXPR     define a constant
//	.db B, B, ...        emit bytes       .dd V  emit 4 bytes
//	.dw V                emit 2 bytes     .dq V  emit 8 bytes
//	.word V              emit at current width
//	.zero N              emit N zero bytes
//	.align N             pad to N-byte alignment
//	label:               define a label
//	mov rax, rbx         register-register
//	mov rax, 42          register-immediate (also labels / .equ names)
//	load rax, [rbp-8]    memory load; loadb/storeb for bytes
//	store [rbp+16], rax
//	out 0x01, rdi        hypercall trap
//	ljmp32 LABEL         far jump completing a mode switch (16/32/64)
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isa"
)

// MaxImage bounds the bytes one program lays out, 16 MiB. The largest
// image the tree assembles is tens of KB (a vcc virtine with its
// mini-libc and globals), so the bound leaves wide headroom while
// keeping a hostile .zero, .align or global from asking for gigabytes.
const MaxImage = 16 << 20

// Program is the result of assembling one source file.
type Program struct {
	Code      []byte
	Origin    uint64 // load address of Code[0]
	Entry     uint64 // address of the `_start` label, or Origin
	StartMode isa.Mode
	Labels    map[string]uint64
}

// Error is an assembler diagnostic carrying a line number.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// Kind says what a statement lays out.
type Kind uint8

const (
	Label Kind = iota // nothing: the statement only defines its Label
	Instr             // one instruction: Op and Args
	DB                // each operand as 1 byte, a string operand as its bytes
	DW                // each operand as 2 bytes
	DD                // each operand as 4 bytes
	DQ                // each operand as 8 bytes
	Word              // each operand at the operating width
	Zero              // Args[0].Imm zero bytes
	Align             // zero bytes up to a multiple of Args[0].Imm
)

// ArgKind says what an operand is.
type ArgKind uint8

const (
	NoArg  ArgKind = iota
	RegArg         // Reg
	ImmArg         // Imm, or the value of the symbol Sym when it is set
	MemArg         // [Reg], or [Reg+disp] / [Reg-disp] with Sign set
	StrArg         // the bytes of Sym (.db only)
)

// Arg is one operand. A symbol is a label, an .equ name, or either
// plus or minus an integer ("buf+8"); it resolves when the program is
// encoded, after every label has its address.
type Arg struct {
	Kind ArgKind
	Reg  isa.Reg
	Sign byte // MemArg: '+' or '-' before the displacement, 0 for none
	Imm  uint64
	Sym  string
}

// R is a register operand.
func R(r isa.Reg) Arg { return Arg{Kind: RegArg, Reg: r} }

// Imm is an integer operand.
func Imm(v int64) Arg { return Arg{Kind: ImmArg, Imm: uint64(v)} }

// Sym is a symbolic operand, resolved at encoding.
func Sym(name string) Arg { return Arg{Kind: ImmArg, Sym: name} }

// Str is a .db string operand.
func Str(s string) Arg { return Arg{Kind: StrArg, Sym: s} }

// Mem is the memory operand [base].
func Mem(base isa.Reg) Arg { return Arg{Kind: MemArg, Reg: base} }

// MemDisp is the memory operand [base+disp], or [base-|disp|] when disp
// is negative.
func MemDisp(base isa.Reg, disp int64) Arg {
	if disp < 0 {
		return Arg{Kind: MemArg, Reg: base, Sign: '-', Imm: uint64(-disp)}
	}
	return Arg{Kind: MemArg, Reg: base, Sign: '+', Imm: uint64(disp)}
}

// Stmt is one statement. A typed front end fills Kind, Op, Label and
// Args; Line is the source line for diagnostics, 0 when there is none.
type Stmt struct {
	Kind Kind
	Op   isa.Op
	mode isa.Mode // operating width in force, set when added to a Unit
	size uint32   // bytes laid out, set by layout (at most MaxImage)

	Label string // defined at the statement's address, if not ""
	Args  [2]Arg
	Line  int
}

// Ins is the instruction statement op with up to two operands.
func Ins(op isa.Op, args ...Arg) Stmt {
	s := Stmt{Kind: Instr, Op: op}
	copy(s.Args[:], args)
	return s
}

func (s *Stmt) nargs() int {
	n := 0
	for n < len(s.Args) && s.Args[n].Kind != NoArg {
		n++
	}
	return n
}

// Unit is a program being assembled: statements from either front end,
// in order, with the origin, the start mode and the .equ table.
type Unit struct {
	stmts   []Stmt
	equs    map[string]uint64
	origin  uint64
	start   isa.Mode // mode of the first statement
	mode    isa.Mode // mode in force for the next statement
	started bool     // a statement that lays out bytes has been added
}

// NewUnit returns an empty unit at the default origin, 0x8000, in
// 16-bit mode.
func NewUnit() *Unit { return &Unit{origin: 0x8000, start: isa.Mode16, mode: isa.Mode16} }

// Stmts returns the unit's statements so far.
func (u *Unit) Stmts() []Stmt { return u.stmts }

// Add appends typed statements at the operating width in force.
func (u *Unit) Add(stmts ...Stmt) {
	u.stmts = append(u.stmts, stmts...)
	for i := len(u.stmts) - len(stmts); i < len(u.stmts); i++ {
		u.stmts[i].mode = u.mode
		u.started = u.started || u.stmts[i].Kind != Label
	}
}

// Assemble assembles src into a Program.
func Assemble(src string) (*Program, error) {
	u := NewUnit()
	if err := u.Parse(src); err != nil {
		return nil, err
	}
	return u.Assemble()
}

// Assemble lays the unit out and encodes it.
func (u *Unit) Assemble() (*Program, error) {
	n := 0
	for i := range u.stmts {
		if u.stmts[i].Label != "" {
			n++
		}
	}
	labels := make(map[string]uint64, n)
	size, err := u.layout(labels)
	if err != nil {
		return nil, err
	}
	code, err := u.encode(labels, size)
	if err != nil {
		return nil, err
	}
	entry := u.origin
	if e, ok := labels["_start"]; ok {
		entry = e
	}
	return &Program{
		Code:      code,
		Origin:    u.origin,
		Entry:     entry,
		StartMode: u.start,
		Labels:    labels,
	}, nil
}

// Parse is the text front end: it appends the statements of src to the
// unit. A data directive's operands go two to a statement.
func (u *Unit) Parse(src string) error {
	for line := 1; src != ""; line++ {
		var raw string
		raw, src, _ = strings.Cut(src, "\n")
		text := strings.TrimSpace(raw[:commentStart(raw)])
		if text == "" {
			continue
		}
		var label string
		if j := strings.IndexByte(text, ':'); j >= 0 && isIdent(text[:j]) {
			label = text[:j]
			text = strings.TrimSpace(text[j+1:])
		}
		if text == "" {
			u.stmts = append(u.stmts, Stmt{Label: label, Line: line, mode: u.mode})
			continue
		}
		mnem, rest, _ := strings.Cut(text, " ")
		mnem = strings.ToLower(mnem)
		var args []string
		if rest != "" {
			args = splitArgs(rest)
		}
		switch mnem {
		case ".bits":
			if len(args) != 1 {
				return &Error{line, ".bits wants one operand"}
			}
			switch args[0] {
			case "16":
				u.mode = isa.Mode16
			case "32":
				u.mode = isa.Mode32
			case "64":
				u.mode = isa.Mode64
			default:
				return &Error{line, ".bits wants 16, 32, or 64"}
			}
			if !u.started {
				u.start = u.mode
			}
			if label != "" {
				u.stmts = append(u.stmts, Stmt{Label: label, Line: line, mode: u.mode})
			}
			continue
		case ".org":
			if len(args) != 1 {
				return &Error{line, ".org wants one operand"}
			}
			v, ok := parseInt(args[0])
			if !ok {
				return badInt(line, args[0])
			}
			u.origin = v
			continue
		case ".equ":
			if len(args) != 2 || !isIdent(args[0]) {
				return &Error{line, ".equ wants NAME, VALUE"}
			}
			v, ok := parseInt(args[1])
			if !ok {
				return badInt(line, args[1])
			}
			if u.equs == nil {
				u.equs = make(map[string]uint64)
			}
			u.equs[args[0]] = v
			continue
		}
		u.started = true
		s := Stmt{Label: label, Line: line, mode: u.mode}
		if kind, ok := dataKind(mnem); ok {
			s.Kind = kind
			if len(args) == 0 {
				u.stmts = append(u.stmts, s)
			}
			for k, tok := range args {
				a, err := parseArg(tok, line)
				if err != nil {
					return err
				}
				s.Args[k%2] = a
				if k%2 == 1 || k == len(args)-1 {
					u.stmts = append(u.stmts, s)
					s.Label, s.Args = "", [2]Arg{}
				}
			}
			continue
		}
		if len(args) > len(s.Args) {
			return &Error{line, fmt.Sprintf("%s takes at most %d operands, got %d", mnem, len(s.Args), len(args))}
		}
		for i, tok := range args {
			a, err := parseArg(tok, line)
			if err != nil {
				return err
			}
			s.Args[i] = a
		}
		op, ok := selectOp(mnem, &s)
		if !ok {
			return &Error{line, "unknown mnemonic " + mnem}
		}
		s.Kind, s.Op = Instr, op
		if op == isa.LJMP {
			// The width byte is the first operand: ljmp32 L is LJMP 4, L.
			if len(args) != 1 {
				return &Error{line, mnem + " wants 1 operand"}
			}
			bits, _ := strconv.Atoi(mnem[4:])
			s.Args[0], s.Args[1] = Imm(int64(bits/8)), s.Args[0]
		}
		u.stmts = append(u.stmts, s)
	}
	return nil
}

// dataKind returns the kind of the data directive named mnem.
func dataKind(mnem string) (Kind, bool) {
	for k, name := range directives {
		if name == mnem {
			return Kind(k), true
		}
	}
	return 0, false
}

// commentStart returns the index of the ';' that starts line's comment,
// or len(line); a ';' inside a string literal is not one.
func commentStart(line string) int {
	quoted := false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case quoted && c == '\\':
			i++
		case c == '"':
			quoted = !quoted
		case c == ';' && !quoted:
			return i
		}
	}
	return len(line)
}

// splitArgs splits on commas that are not inside brackets or string
// literals, trimming each operand.
func splitArgs(s string) []string {
	var out []string
	depth, start, quoted := 0, 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case quoted:
			if c == '\\' {
				i++
			} else if c == '"' {
				quoted = false
			}
		case c == '"':
			quoted = true
		case c == '[':
			depth++
		case c == ']':
			depth--
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}

// parseArg classifies one operand token. A token that is neither a
// register, a memory operand, a string nor an integer is a symbol.
func parseArg(tok string, line int) (Arg, error) {
	switch {
	case tok == "":
		return Arg{}, &Error{line, "empty operand"}
	case tok[0] == '"':
		s, err := strconv.Unquote(tok)
		if err != nil {
			return Arg{}, &Error{line, "bad string literal"}
		}
		return Str(s), nil
	case tok[0] == '[':
		return parseMem(tok, line)
	}
	if r, ok := isa.RegByName(tok); ok {
		return R(r), nil
	}
	if v, ok := parseInt(tok); ok {
		return Arg{Kind: ImmArg, Imm: v}, nil
	}
	return Sym(tok), nil
}

// parseMem parses "[reg+disp]" / "[reg-disp]" / "[reg]".
func parseMem(tok string, line int) (Arg, error) {
	if !strings.HasSuffix(tok, "]") {
		return Arg{}, &Error{line, "expected memory operand, got " + tok}
	}
	inner := strings.TrimSpace(tok[1 : len(tok)-1])
	a := Arg{Kind: MemArg}
	regPart, disp := inner, ""
	if j := strings.IndexAny(inner, "+-"); j > 0 {
		regPart = strings.TrimSpace(inner[:j])
		disp = strings.TrimSpace(inner[j+1:])
		a.Sign = inner[j]
	}
	r, ok := isa.RegByName(regPart)
	if !ok {
		return Arg{}, &Error{line, "bad base register " + regPart}
	}
	a.Reg = r
	if v, ok := parseInt(disp); ok {
		a.Imm = v
	} else if disp != "" {
		a.Sym = disp
	}
	return a, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.', c == '$':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseInt parses an integer in Go syntax (decimal, 0x, 0o, 0b) with an
// optional leading '-'. A token that cannot start one fails before
// strconv is asked, since its error allocates.
func parseInt(s string) (uint64, bool) {
	s = strings.TrimSpace(s)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	if s == "" || s[0] < '0' || s[0] > '9' {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, false
	}
	if neg {
		return uint64(-int64(v)), true
	}
	return v, true
}

func badInt(line int, s string) error { return &Error{line, fmt.Sprintf("bad integer %q", s)} }

// layout is pass 1: compute sizes and addresses, define labels. It
// returns the byte count, at most MaxImage.
func (u *Unit) layout(labels map[string]uint64) (uint64, error) {
	var off uint64 // bytes laid out so far
	for i := range u.stmts {
		s := &u.stmts[i]
		pc := u.origin + off
		if s.Label != "" {
			if _, dup := labels[s.Label]; dup {
				return 0, &Error{s.Line, "duplicate label " + s.Label}
			}
			labels[s.Label] = pc
		}
		n, err := s.sizeAt(pc)
		if err != nil {
			return 0, err
		}
		if n > MaxImage-off {
			return 0, &Error{s.Line, fmt.Sprintf("image passes %d bytes", MaxImage)}
		}
		s.size = uint32(n)
		off += n
	}
	return off, nil
}

// sizeAt returns the statement's size at address pc.
func (s *Stmt) sizeAt(pc uint64) (uint64, error) {
	n := uint64(s.nargs())
	switch s.Kind {
	case Label:
		return 0, nil
	case Instr:
		return uint64(s.Op.EncodedLen(s.mode)), nil
	case DB:
		var size uint64
		for _, a := range s.Args[:n] {
			if a.Kind == StrArg {
				size += uint64(len(a.Sym))
			} else {
				size++
			}
		}
		return size, nil
	case DW:
		return 2 * n, nil
	case DD:
		return 4 * n, nil
	case DQ:
		return 8 * n, nil
	case Word:
		return uint64(s.mode.Width()) * n, nil
	case Zero, Align: // one integer count
	default:
		return 0, &Error{s.Line, fmt.Sprintf("unknown statement kind %d", s.Kind)}
	}
	a := s.Args[0]
	if a.Kind != ImmArg || a.Sym != "" || n != 1 || int64(a.Imm) < 0 {
		return 0, &Error{s.Line, directives[s.Kind] + " wants one integer operand of at least 0"}
	}
	if s.Kind == Zero {
		return a.Imm, nil
	}
	if al := a.Imm; al > 0 && pc%al != 0 {
		return al - pc%al, nil
	}
	return 0, nil
}

// selectOp resolves a mnemonic and its parsed operands to an opcode. The
// six register forms that have an immediate twin (mov/movi, add/addi,
// sub, and, or, cmp) take it when the second operand is not a register.
func selectOp(mnem string, s *Stmt) (isa.Op, bool) {
	switch mnem {
	case "je":
		return isa.JZ, true
	case "jne":
		return isa.JNZ, true
	case "ljmp16", "ljmp32", "ljmp64":
		return isa.LJMP, true
	case "ljmp":
		return 0, false
	}
	op, ok := opNamed(mnem)
	if ok && s.Args[1].Kind != NoArg && s.Args[1].Kind != RegArg {
		if imm, twin := opNamed(mnem + "i"); twin {
			return imm, true
		}
	}
	return op, ok
}

// opNamed returns the opcode named mnem.
func opNamed(mnem string) (isa.Op, bool) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		if op.String() == mnem {
			return op, true
		}
	}
	return 0, false
}

// resolve evaluates a symbol: a label, an .equ name, either of those plus
// or minus an integer, or an integer.
func resolve(labels, equs map[string]uint64, s *Stmt, tok string) (uint64, error) {
	if v, ok := labels[tok]; ok {
		return v, nil
	}
	if v, ok := equs[tok]; ok {
		return v, nil
	}
	// label+offset / label-offset
	for _, sep := range []string{"+", "-"} {
		if j := strings.LastIndex(tok, sep); j > 0 {
			off, ok := parseInt(tok[j+1:])
			if !ok {
				continue
			}
			if base, err := resolve(labels, equs, s, strings.TrimSpace(tok[:j])); err == nil {
				if sep == "+" {
					return base + off, nil
				}
				return base - off, nil
			}
		}
	}
	v, ok := parseInt(tok)
	if !ok {
		return 0, &Error{s.Line, "unresolved symbol " + tok}
	}
	return v, nil
}

// Listing renders statements as assembly text, one line each: a label
// and .align at the start of the line, everything else after a tab. The
// text front end parses it back to the same statements, and Assemble
// gives the same bytes. Operating width and origin are not statements, so
// a listing carries no .bits or .org; the text it is spliced into does.
func Listing(stmts []Stmt) string {
	b := make([]byte, 0, 16*len(stmts))
	for i := range stmts {
		b = stmts[i].appendText(b)
	}
	return string(b)
}

// appendText appends the statement's listing line(s) to b.
func (s *Stmt) appendText(b []byte) []byte {
	if s.Label != "" {
		b = append(b, s.Label...)
		b = append(b, ":\n"...)
	}
	args := s.Args[:s.nargs()]
	switch s.Kind {
	case Label:
		return b
	case Instr:
		// The register/immediate pairs are written with the short name the
		// text front end picks between: add for ADDI.
		name := s.Op.String()
		switch s.Op {
		case isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.CMPI:
			name = strings.TrimSuffix(name, "i")
		}
		b = append(append(b, '\t'), name...)
		if s.Op == isa.LJMP && len(args) == 2 {
			// ljmp32 L: the width operand is part of the mnemonic.
			b = strconv.AppendUint(b, 8*args[0].Imm, 10)
			args = args[1:]
		}
	case Align:
		b = append(b, ".align"...)
	default:
		b = append(b, '\t')
		b = append(b, directives[s.Kind]...)
	}
	for i, a := range args {
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		b = a.appendText(b)
	}
	return append(b, '\n')
}

var directives = [...]string{DB: ".db", DW: ".dw", DD: ".dd", DQ: ".dq", Word: ".word", Zero: ".zero", Align: ".align"}

func (a Arg) appendText(b []byte) []byte {
	switch a.Kind {
	case RegArg:
		return append(b, a.Reg.String()...)
	case ImmArg:
		if a.Sym != "" {
			return append(b, a.Sym...)
		}
		return strconv.AppendInt(b, int64(a.Imm), 10)
	case MemArg:
		b = append(b, '[')
		b = append(b, a.Reg.String()...)
		if a.Sign != 0 {
			b = append(b, a.Sign)
			b = (Arg{Kind: ImmArg, Imm: a.Imm, Sym: a.Sym}).appendText(b)
		}
		return append(b, ']')
	case StrArg:
		return strconv.AppendQuote(b, a.Sym)
	}
	return b
}

// encoder is pass 2's state. The operand accessors keep the first
// error in err and return zero after it.
type encoder struct {
	labels, equs map[string]uint64
	s            *Stmt
	err          error
}

func (e *encoder) fail(what string, a Arg) {
	if e.err == nil {
		e.err = &Error{e.s.Line, what + " " + string(a.appendText(nil))}
	}
}

// value is an immediate operand's value.
func (e *encoder) value(a Arg) uint64 {
	if a.Kind != ImmArg {
		e.fail("expected a value, got", a)
		return 0
	}
	if a.Sym == "" {
		return a.Imm
	}
	v, err := resolve(e.labels, e.equs, e.s, a.Sym)
	if e.err == nil {
		e.err = err
	}
	return v
}

func (e *encoder) reg(a Arg) isa.Reg {
	if a.Kind != RegArg {
		e.fail("bad register", a)
	}
	return a.Reg
}

// mem returns a memory operand's base and displacement.
func (e *encoder) mem(a Arg) (isa.Reg, uint64) {
	if a.Kind != MemArg {
		e.fail("expected memory operand, got", a)
		return 0, 0
	}
	if a.Sign == 0 {
		return a.Reg, 0
	}
	d := e.value(Arg{Kind: ImmArg, Imm: a.Imm, Sym: a.Sym})
	if a.Sign == '-' {
		d = -d
	}
	return a.Reg, d
}

// encode is pass 2: it appends every statement's bytes.
func (u *Unit) encode(labels map[string]uint64, size uint64) ([]byte, error) {
	e := &encoder{labels: labels, equs: u.equs}
	out := make([]byte, 0, size)
	var want uint64 // len(out) once s is encoded
	for i := range u.stmts {
		s := &u.stmts[i]
		e.s = s
		want += uint64(s.size)
		switch s.Kind {
		case Label:
			continue
		case Instr:
			out = e.instr(out)
		case Zero, Align:
			out = append(out, make([]byte, s.size)...)
		default:
			out = e.data(out)
		}
		if e.err != nil {
			return nil, e.err
		}
		if uint64(len(out)) != want {
			return nil, &Error{s.Line, fmt.Sprintf("size mismatch: laid out %d, emitted %d", s.size, uint64(len(out))-(want-uint64(s.size)))}
		}
	}
	return out, nil
}

func (e *encoder) data(out []byte) []byte {
	s := e.s
	w := s.mode.Width()
	switch s.Kind {
	case DB:
		w = 1
	case DW:
		w = 2
	case DD:
		w = 4
	case DQ:
		w = 8
	}
	for _, a := range s.Args[:s.nargs()] {
		if a.Kind == StrArg && s.Kind == DB {
			out = append(out, a.Sym...)
			continue
		}
		v := e.value(a)
		for k := 0; k < w; k++ {
			out = append(out, byte(v>>(8*k)))
		}
	}
	return out
}

// instr encodes an instruction: the opcode, then the packed register
// byte and the immediate where isa says the opcode has them.
func (e *encoder) instr(out []byte) []byte {
	s := e.s
	a0, a1 := s.Args[0], s.Args[1]
	var dst, src isa.Reg
	var imm, width uint64
	n := 2 // operands the opcode takes
	switch op := s.Op; op {
	case isa.NOP, isa.HLT, isa.RET, isa.CLI, isa.STI:
		n = 0
	case isa.MOV, isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD,
		isa.AND, isa.OR, isa.XOR, isa.CMP, isa.SHLV, isa.SHRV, isa.SARV:
		dst, src = e.reg(a0), e.reg(a1)
	case isa.MOVI, isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.CMPI,
		isa.SHL, isa.SHR, isa.SAR, isa.IN:
		dst, imm = e.reg(a0), e.value(a1)
	case isa.LOAD, isa.LOADB:
		dst = e.reg(a0)
		src, imm = e.mem(a1)
	case isa.STORE, isa.STOREB:
		dst, imm = e.mem(a0)
		src = e.reg(a1)
	case isa.NEG, isa.NOT, isa.INC, isa.DEC, isa.PUSH, isa.POP:
		n, dst = 1, e.reg(a0)
	case isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE,
		isa.JB, isa.JAE, isa.CALL, isa.LGDT:
		n, imm = 1, e.value(a0)
	case isa.OUT:
		imm, dst = e.value(a0), e.reg(a1)
	case isa.MOVCR:
		dst, src = e.cr(a0), e.reg(a1)
	case isa.RDCR:
		dst, src = e.reg(a0), e.cr(a1)
	case isa.LJMP:
		width, imm = e.value(a0), e.value(a1)
	default:
		e.err = &Error{s.Line, "cannot encode " + op.String()}
	}
	if got := s.nargs(); got != n {
		e.err = &Error{s.Line, fmt.Sprintf("%s wants %d operands, got %d", s.Op, n, got)}
	}
	out = append(out, byte(s.Op))
	if s.Op.HasRegByte() {
		out = append(out, isa.PackRegs(dst, src))
	}
	if s.Op == isa.LJMP {
		out = append(out, byte(width))
	}
	switch s.Op.Imm() {
	case isa.ImmWord:
		var buf [8]byte
		out = append(out, buf[:isa.PutWord(buf[:], s.mode, imm)]...)
	case isa.ImmByte:
		out = append(out, byte(imm))
	}
	return out
}

// cr resolves a control-register operand, written as a symbol.
func (e *encoder) cr(a Arg) isa.Reg {
	if a.Kind == ImmArg {
		switch strings.ToLower(a.Sym) {
		case "cr0":
			return isa.Reg(isa.CR0)
		case "cr3":
			return isa.Reg(isa.CR3)
		case "cr4":
			return isa.Reg(isa.CR4)
		case "efer":
			return isa.Reg(isa.EFER)
		}
	}
	e.fail("bad control register", a)
	return 0
}
