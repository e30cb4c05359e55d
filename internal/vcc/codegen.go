package vcc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/isa"
)

// Code generation targets 64-bit long mode. The model is a simple stack
// machine: every expression leaves its value in rax; binary operators
// spill the left operand to the stack. Frames are rbp-based:
//
//	[rbp+16+8i]  argument i (pushed right-to-left by the caller)
//	[rbp+8]      return address (pushed by CALL)
//	[rbp+0]      saved rbp
//	[rbp-8...]   locals (8-byte slots; arrays rounded up)
//
// rax is the value register, rbx the secondary operand, rcx a scratch
// address register; rdi/rsi/rdx carry hypercall arguments at OUT sites.
// Values never live in registers across calls, so there is no save/restore
// protocol beyond rbp.
//
// The generator emits typed assembler statements, not text: the peephole
// pass rewrites them and the assembler encodes them as they are. The Asm
// listing is rendered from the same statements.

var (
	rax = asm.R(isa.RAX)
	rbx = asm.R(isa.RBX)
	rcx = asm.R(isa.RCX)
	rdx = asm.R(isa.RDX)
	rsp = asm.R(isa.RSP)
	rbp = asm.R(isa.RBP)
	rsi = asm.R(isa.RSI)
	rdi = asm.R(isa.RDI)
)

type local struct {
	off int // positive: [rbp - off]
	t   *Type
}

type gen struct {
	out     []asm.Stmt
	globals map[string]*VarDecl
	funcs   map[string]*FuncDecl

	// per-function state
	locals   []map[string]local
	frame    int
	labelN   int
	breakLbl []string
	contLbl  []string

	// string literal pool
	strs   []string
	strLbl []string
}

func newGen(f *File) *gen {
	g := &gen{
		globals: make(map[string]*VarDecl),
		funcs:   make(map[string]*FuncDecl),
	}
	for _, v := range f.Globals {
		g.globals[v.Name] = v
	}
	for _, fn := range f.Funcs {
		g.funcs[fn.Name] = fn
	}
	return g
}

func (g *gen) emit(op isa.Op, args ...asm.Arg) { g.out = append(g.out, asm.Ins(op, args...)) }

func (g *gen) label(l string) { g.out = append(g.out, asm.Stmt{Label: l}) }

// data emits a data directive (.db, .dq, .zero, .align).
func (g *gen) data(k asm.Kind, args ...asm.Arg) {
	s := asm.Stmt{Kind: k}
	copy(s.Args[:], args)
	g.out = append(g.out, s)
}

func (g *gen) newLabel(hint string) string {
	g.labelN++
	return ".L" + hint + strconv.Itoa(g.labelN)
}

func (g *gen) strLabel(s string) string {
	for i, prev := range g.strs {
		if prev == s {
			return g.strLbl[i]
		}
	}
	l := "str_" + strconv.Itoa(len(g.strs))
	g.strs = append(g.strs, s)
	g.strLbl = append(g.strLbl, l)
	return l
}

// scope management

func (g *gen) pushScope() { g.locals = append(g.locals, make(map[string]local)) }
func (g *gen) popScope()  { g.locals = g.locals[:len(g.locals)-1] }

func (g *gen) lookup(name string) (local, bool) {
	for i := len(g.locals) - 1; i >= 0; i-- {
		if l, ok := g.locals[i][name]; ok {
			return l, true
		}
	}
	return local{}, false
}

func (g *gen) declare(name string, t *Type, line int) (local, error) {
	if _, dup := g.locals[len(g.locals)-1][name]; dup {
		return local{}, errf(line, "redeclaration of %s", name)
	}
	size := t.Size()
	if size < 8 {
		size = 8
	}
	size = (size + 7) &^ 7
	g.frame += size
	l := local{off: g.frame, t: t}
	g.locals[len(g.locals)-1][name] = l
	return l, nil
}

// genFunc emits one function.
func (g *gen) genFunc(fn *FuncDecl) error {
	g.frame = 0
	g.locals = nil
	g.pushScope()
	for i, p := range fn.Params {
		if !p.T.IsScalar() {
			return errf(fn.Line, "parameter %s has non-scalar type %s", p.Name, p.T)
		}
		// Parameters live above rbp; record with negative "offset"
		// encoded as -(16+8i) so loads know where to look.
		g.locals[0][p.Name] = local{off: -(16 + 8*i), t: p.T}
	}

	g.label("fn_" + fn.Name)
	g.emit(isa.PUSH, rbp)
	g.emit(isa.MOV, rbp, rsp)
	// The frame size is known after the body: its sub goes in afterwards.
	body := len(g.out)
	if err := g.genBlock(fn.Body); err != nil {
		return err
	}
	if g.frame > 0 {
		g.out = slices.Insert(g.out, body, asm.Ins(isa.SUBI, rsp, asm.Imm(int64((g.frame+15)&^15))))
	}
	// Implicit return 0 for control paths that fall off the end.
	g.emit(isa.MOVI, rax, asm.Imm(0))
	g.emit(isa.MOV, rsp, rbp)
	g.emit(isa.POP, rbp)
	g.emit(isa.RET)
	g.popScope()
	return nil
}

func (g *gen) genBlock(b *Block) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *gen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *Block:
		return g.genBlock(st)
	case *VarDecl:
		l, err := g.declare(st.Name, st.T, st.Line)
		if err != nil {
			return err
		}
		if st.Init != nil {
			if !st.T.IsScalar() {
				return errf(st.Line, "cannot initialize non-scalar local %s", st.Name)
			}
			if _, err := g.genExpr(st.Init); err != nil {
				return err
			}
			g.store(l.t, asm.MemDisp(isa.RBP, -int64(l.off)))
		}
		return nil
	case *ExprStmt:
		_, err := g.genExpr(st.X)
		return err
	case *Return:
		if st.X != nil {
			if _, err := g.genExpr(st.X); err != nil {
				return err
			}
		} else {
			g.emit(isa.MOVI, rax, asm.Imm(0))
		}
		g.emit(isa.MOV, rsp, rbp)
		g.emit(isa.POP, rbp)
		g.emit(isa.RET)
		return nil
	case *If:
		els := g.newLabel("else")
		end := g.newLabel("endif")
		if err := g.genCondJump(st.C, els); err != nil {
			return err
		}
		if st.Then != nil {
			if err := g.genStmt(st.Then); err != nil {
				return err
			}
		}
		if st.Else != nil {
			g.emit(isa.JMP, asm.Sym(end))
			g.label(els)
			if err := g.genStmt(st.Else); err != nil {
				return err
			}
			g.label(end)
		} else {
			g.label(els)
		}
		return nil
	case *While:
		top := g.newLabel("while")
		end := g.newLabel("endwhile")
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, top)
		g.label(top)
		if err := g.genCondJump(st.C, end); err != nil {
			return err
		}
		if st.Body != nil {
			if err := g.genStmt(st.Body); err != nil {
				return err
			}
		}
		g.emit(isa.JMP, asm.Sym(top))
		g.label(end)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		return nil
	case *For:
		g.pushScope()
		defer g.popScope()
		if st.Init != nil {
			if err := g.genStmt(st.Init); err != nil {
				return err
			}
		}
		top := g.newLabel("for")
		post := g.newLabel("forpost")
		end := g.newLabel("endfor")
		g.breakLbl = append(g.breakLbl, end)
		g.contLbl = append(g.contLbl, post)
		g.label(top)
		if st.C != nil {
			if err := g.genCondJump(st.C, end); err != nil {
				return err
			}
		}
		if st.Body != nil {
			if err := g.genStmt(st.Body); err != nil {
				return err
			}
		}
		g.label(post)
		if st.Post != nil {
			if _, err := g.genExpr(st.Post); err != nil {
				return err
			}
		}
		g.emit(isa.JMP, asm.Sym(top))
		g.label(end)
		g.breakLbl = g.breakLbl[:len(g.breakLbl)-1]
		g.contLbl = g.contLbl[:len(g.contLbl)-1]
		return nil
	case *BreakStmt:
		if len(g.breakLbl) == 0 {
			return errf(st.Line, "break outside loop")
		}
		g.emit(isa.JMP, asm.Sym(g.breakLbl[len(g.breakLbl)-1]))
		return nil
	case *ContinueStmt:
		if len(g.contLbl) == 0 {
			return errf(st.Line, "continue outside loop")
		}
		g.emit(isa.JMP, asm.Sym(g.contLbl[len(g.contLbl)-1]))
		return nil
	}
	return fmt.Errorf("vcc: unknown statement %T", s)
}

// genCondJump evaluates c and jumps to target when it is false.
func (g *gen) genCondJump(c Expr, target string) error {
	if _, err := g.genExpr(c); err != nil {
		return err
	}
	g.emit(isa.CMPI, rax, asm.Imm(0))
	g.emit(isa.JZ, asm.Sym(target))
	return nil
}

// load/store emit a width-appropriate memory access through the operand
// (e.g. [rbx] or [rbp-8]).
func (g *gen) load(t *Type, operand asm.Arg) {
	if t.Kind == TypeChar {
		g.emit(isa.LOADB, rax, operand)
	} else {
		g.emit(isa.LOAD, rax, operand)
	}
}

func (g *gen) store(t *Type, operand asm.Arg) {
	if t.Kind == TypeChar {
		g.emit(isa.STOREB, operand, rax)
	} else {
		g.emit(isa.STORE, operand, rax)
	}
}

// genAddr leaves the address of the lvalue in rax and returns the type of
// the object at that address.
func (g *gen) genAddr(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *Ident:
		if l, ok := g.lookup(x.Name); ok {
			g.emit(isa.MOV, rax, rbp)
			if l.off < 0 {
				g.emit(isa.ADDI, rax, asm.Imm(int64(-l.off)))
			} else {
				g.emit(isa.SUBI, rax, asm.Imm(int64(l.off)))
			}
			return l.t, nil
		}
		if gv, ok := g.globals[x.Name]; ok {
			g.emit(isa.MOVI, rax, asm.Sym("g_"+x.Name))
			return gv.T, nil
		}
		return nil, errf(x.Pos(), "undefined variable %s", x.Name)
	case *Unary:
		if x.Op == "*" {
			t, err := g.genExpr(x.X)
			if err != nil {
				return nil, err
			}
			if t.Kind != TypePtr {
				return nil, errf(x.Pos(), "cannot dereference non-pointer %s", t)
			}
			return t.Elem, nil
		}
	case *Index:
		bt, err := g.genExpr(x.Base)
		if err != nil {
			return nil, err
		}
		if bt.Kind != TypePtr {
			return nil, errf(x.Pos(), "cannot index non-pointer %s", bt)
		}
		g.emit(isa.PUSH, rax)
		it, err := g.genExpr(x.Idx)
		if err != nil {
			return nil, err
		}
		if !it.IsScalar() {
			return nil, errf(x.Pos(), "index must be scalar")
		}
		if sz := bt.Elem.Size(); sz != 1 {
			g.emit(isa.MOVI, rbx, asm.Imm(int64(sz)))
			g.emit(isa.MUL, rax, rbx)
		}
		g.emit(isa.POP, rbx)
		g.emit(isa.ADD, rax, rbx)
		return bt.Elem, nil
	}
	return nil, errf(e.Pos(), "expression is not an lvalue")
}

// genExpr evaluates e into rax and returns its (decayed) type.
func (g *gen) genExpr(e Expr) (*Type, error) {
	switch x := e.(type) {
	case *IntLit:
		g.emit(isa.MOVI, rax, asm.Imm(x.Val))
		return tyInt, nil

	case *StrLit:
		g.emit(isa.MOVI, rax, asm.Sym(g.strLabel(x.Val)))
		return PtrTo(tyChar), nil

	case *SizeofType:
		g.emit(isa.MOVI, rax, asm.Imm(int64(x.T.Size())))
		return tyInt, nil

	case *Ident:
		t, err := g.genAddr(x)
		if err != nil {
			return nil, err
		}
		if t.Kind == TypeArray {
			return t.Decay(), nil // address is the value
		}
		g.emit(isa.MOV, rbx, rax)
		g.load(t, asm.Mem(isa.RBX))
		return t, nil

	case *Unary:
		if v, ok := foldConst(x); ok {
			g.emit(isa.MOVI, rax, asm.Imm(v))
			return tyInt, nil
		}
		switch x.Op {
		case "-":
			t, err := g.genExpr(x.X)
			if err != nil {
				return nil, err
			}
			if !t.IsScalar() {
				return nil, errf(x.Pos(), "bad operand to unary -")
			}
			g.emit(isa.NEG, rax)
			return tyInt, nil
		case "~":
			if _, err := g.genExpr(x.X); err != nil {
				return nil, err
			}
			g.emit(isa.NOT, rax)
			return tyInt, nil
		case "!":
			if _, err := g.genExpr(x.X); err != nil {
				return nil, err
			}
			tl := g.newLabel("t")
			g.emit(isa.CMPI, rax, asm.Imm(0))
			g.emit(isa.MOVI, rax, asm.Imm(1))
			g.emit(isa.JZ, asm.Sym(tl))
			g.emit(isa.MOVI, rax, asm.Imm(0))
			g.label(tl)
			return tyInt, nil
		case "*":
			t, err := g.genAddr(x)
			if err != nil {
				return nil, err
			}
			if t.Kind == TypeArray {
				return t.Decay(), nil
			}
			g.emit(isa.MOV, rbx, rax)
			g.load(t, asm.Mem(isa.RBX))
			return t, nil
		case "&":
			t, err := g.genAddr(x.X)
			if err != nil {
				return nil, err
			}
			return PtrTo(t), nil
		}
		return nil, errf(x.Pos(), "unknown unary operator %s", x.Op)

	case *Binary:
		if v, ok := foldConst(x); ok {
			g.emit(isa.MOVI, rax, asm.Imm(v))
			return tyInt, nil
		}
		return g.genBinary(x)

	case *Assign:
		return g.genAssign(x)

	case *Cond:
		els := g.newLabel("celse")
		end := g.newLabel("cend")
		if err := g.genCondJump(x.C, els); err != nil {
			return nil, err
		}
		ta, err := g.genExpr(x.A)
		if err != nil {
			return nil, err
		}
		g.emit(isa.JMP, asm.Sym(end))
		g.label(els)
		if _, err := g.genExpr(x.B); err != nil {
			return nil, err
		}
		g.label(end)
		return ta.Decay(), nil

	case *Index:
		t, err := g.genAddr(x)
		if err != nil {
			return nil, err
		}
		if t.Kind == TypeArray {
			return t.Decay(), nil
		}
		g.emit(isa.MOV, rbx, rax)
		g.load(t, asm.Mem(isa.RBX))
		return t, nil

	case *IncDec:
		t, err := g.genAddr(x.X)
		if err != nil {
			return nil, err
		}
		if !t.IsScalar() {
			return nil, errf(x.Pos(), "%s needs a scalar lvalue", x.Op)
		}
		step := 1
		if t.Kind == TypePtr {
			step = t.Elem.Size()
		}
		g.emit(isa.MOV, rcx, rax)
		g.load(t, asm.Mem(isa.RCX))
		if x.Postfix {
			g.emit(isa.PUSH, rax)
		}
		if x.Op == "++" {
			g.emit(isa.ADDI, rax, asm.Imm(int64(step)))
		} else {
			g.emit(isa.SUBI, rax, asm.Imm(int64(step)))
		}
		g.store(t, asm.Mem(isa.RCX))
		if x.Postfix {
			g.emit(isa.POP, rax)
		}
		return t, nil

	case *Call:
		return g.genCall(x)
	}
	return nil, errf(e.Pos(), "cannot generate code for %T", e)
}

func (g *gen) genBinary(x *Binary) (*Type, error) {
	// Short-circuit logical operators.
	if x.Op == "&&" || x.Op == "||" {
		end := g.newLabel("sc")
		if _, err := g.genExpr(x.X); err != nil {
			return nil, err
		}
		g.emit(isa.CMPI, rax, asm.Imm(0))
		if x.Op == "&&" {
			g.emit(isa.MOVI, rax, asm.Imm(0))
			g.emit(isa.JZ, asm.Sym(end))
		} else {
			g.emit(isa.MOVI, rax, asm.Imm(1))
			g.emit(isa.JNZ, asm.Sym(end))
		}
		if _, err := g.genExpr(x.Y); err != nil {
			return nil, err
		}
		// Normalize to 0/1.
		tl := g.newLabel("scn")
		g.emit(isa.CMPI, rax, asm.Imm(0))
		g.emit(isa.MOVI, rax, asm.Imm(0))
		g.emit(isa.JZ, asm.Sym(tl))
		g.emit(isa.MOVI, rax, asm.Imm(1))
		g.label(tl)
		g.label(end)
		return tyInt, nil
	}

	tx, err := g.genExpr(x.X)
	if err != nil {
		return nil, err
	}
	g.emit(isa.PUSH, rax)
	ty, err := g.genExpr(x.Y)
	if err != nil {
		return nil, err
	}
	g.emit(isa.MOV, rbx, rax)
	g.emit(isa.POP, rax)
	// rax = X, rbx = Y.

	// Pointer arithmetic scaling (§7.2 marshalling uses plain ints, but
	// the libc uses pointer arithmetic heavily).
	switch x.Op {
	case "+", "-":
		if tx.Kind == TypePtr && ty.Kind != TypePtr {
			if sz := tx.Elem.Size(); sz != 1 {
				g.emit(isa.MOVI, rcx, asm.Imm(int64(sz)))
				g.emit(isa.MUL, rbx, rcx)
			}
		} else if tx.Kind != TypePtr && ty.Kind == TypePtr && x.Op == "+" {
			if sz := ty.Elem.Size(); sz != 1 {
				g.emit(isa.MOVI, rcx, asm.Imm(int64(sz)))
				g.emit(isa.MUL, rax, rcx)
			}
		}
	}

	result := tyInt
	if tx.Kind == TypePtr && ty.Kind != TypePtr {
		result = tx
	} else if ty.Kind == TypePtr && tx.Kind != TypePtr {
		result = ty
	}

	if op, ok := arith(x.Op); ok {
		g.emit(op, rax, rbx)
		if x.Op == "-" && tx.Kind == TypePtr && ty.Kind == TypePtr {
			if sz := tx.Elem.Size(); sz != 1 {
				g.emit(isa.MOVI, rbx, asm.Imm(int64(sz)))
				g.emit(isa.DIV, rax, rbx)
			}
			result = tyInt
		}
		return result, nil
	}
	var jcc isa.Op
	switch x.Op {
	case "==":
		jcc = isa.JZ
	case "!=":
		jcc = isa.JNZ
	case "<":
		jcc = isa.JL
	case ">":
		jcc = isa.JG
	case "<=":
		jcc = isa.JLE
	case ">=":
		jcc = isa.JGE
	default:
		return nil, errf(x.Pos(), "unknown operator %s", x.Op)
	}
	tl := g.newLabel("cmp")
	g.emit(isa.CMP, rax, rbx)
	g.emit(isa.MOVI, rax, asm.Imm(1))
	g.emit(jcc, asm.Sym(tl))
	g.emit(isa.MOVI, rax, asm.Imm(0))
	g.label(tl)
	return tyInt, nil
}

// arith is the register-register instruction of an arithmetic or
// bitwise operator.
func arith(op string) (isa.Op, bool) {
	switch op {
	case "+":
		return isa.ADD, true
	case "-":
		return isa.SUB, true
	case "*":
		return isa.MUL, true
	case "/":
		return isa.DIV, true
	case "%":
		return isa.MOD, true
	case "&":
		return isa.AND, true
	case "|":
		return isa.OR, true
	case "^":
		return isa.XOR, true
	case "<<":
		return isa.SHLV, true
	case ">>":
		return isa.SARV, true
	}
	return 0, false
}

func (g *gen) genAssign(x *Assign) (*Type, error) {
	t, err := g.genAddr(x.L)
	if err != nil {
		return nil, err
	}
	if !t.IsScalar() {
		return nil, errf(x.Pos(), "cannot assign to non-scalar %s", t)
	}
	g.emit(isa.PUSH, rax)
	if x.Op == "=" {
		if _, err := g.genExpr(x.R); err != nil {
			return nil, err
		}
	} else {
		// Compound assignment: rewrite a op= b as a = a op b, reusing
		// the already-computed address via a synthetic load.
		op := strings.TrimSuffix(x.Op, "=")
		// load current value
		g.emit(isa.LOAD, rcx, asm.Mem(isa.RSP)) // address we just pushed
		g.emit(isa.MOV, rbx, rcx)
		g.load(t, asm.Mem(isa.RBX))
		g.emit(isa.PUSH, rax)
		rt, err := g.genExpr(x.R)
		if err != nil {
			return nil, err
		}
		g.emit(isa.MOV, rbx, rax)
		g.emit(isa.POP, rax)
		// pointer-scaled compound add/sub
		if (op == "+" || op == "-") && t.Kind == TypePtr && rt.Kind != TypePtr {
			if sz := t.Elem.Size(); sz != 1 {
				g.emit(isa.MOVI, rcx, asm.Imm(int64(sz)))
				g.emit(isa.MUL, rbx, rcx)
			}
		}
		aop, ok := arith(op)
		if !ok {
			return nil, errf(x.Pos(), "unknown compound operator %s", x.Op)
		}
		g.emit(aop, rax, rbx)
	}
	g.emit(isa.POP, rbx)
	g.store(t, asm.Mem(isa.RBX))
	return t, nil
}

func (g *gen) genCall(x *Call) (*Type, error) {
	// __hc(nr, a0, a1, a2): the hypercall intrinsic. nr must be a
	// constant; up to three arguments travel in rdi/rsi/rdx.
	if x.Name == "__hc" {
		if len(x.Args) < 1 || len(x.Args) > 4 {
			return nil, errf(x.Pos(), "__hc wants 1-4 arguments")
		}
		nr, ok := x.Args[0].(*IntLit)
		if !ok {
			return nil, errf(x.Pos(), "__hc number must be a constant")
		}
		rest := x.Args[1:]
		for _, a := range rest {
			if _, err := g.genExpr(a); err != nil {
				return nil, err
			}
			g.emit(isa.PUSH, rax)
		}
		regs := [...]asm.Arg{rdi, rsi, rdx}
		for i := len(rest) - 1; i >= 0; i-- {
			g.emit(isa.POP, regs[i])
		}
		g.emit(isa.OUT, asm.Imm(nr.Val), rdi)
		return tyInt, nil
	}
	// __image_end(): address of the end of the packaged image — the
	// heap start the mini-libc's allocator uses.
	if x.Name == "__image_end" {
		if len(x.Args) != 0 {
			return nil, errf(x.Pos(), "__image_end takes no arguments")
		}
		g.emit(isa.MOVI, rax, asm.Sym("__image_end"))
		return PtrTo(tyChar), nil
	}

	fn, ok := g.funcs[x.Name]
	if !ok {
		return nil, errf(x.Pos(), "call to undefined function %s", x.Name)
	}
	if len(x.Args) != len(fn.Params) {
		return nil, errf(x.Pos(), "%s wants %d arguments, got %d", x.Name, len(fn.Params), len(x.Args))
	}
	// Push right-to-left so arg0 is nearest the frame.
	for i := len(x.Args) - 1; i >= 0; i-- {
		t, err := g.genExpr(x.Args[i])
		if err != nil {
			return nil, err
		}
		if !t.IsScalar() {
			return nil, errf(x.Pos(), "argument %d to %s is not scalar", i, x.Name)
		}
		g.emit(isa.PUSH, rax)
	}
	g.emit(isa.CALL, asm.Sym("fn_"+x.Name))
	if n := len(x.Args); n > 0 {
		g.emit(isa.ADDI, rsp, asm.Imm(int64(8*n)))
	}
	return fn.Ret.Decay(), nil
}

// Parameters are recorded with negative offsets; genAddr needs to treat
// them as [rbp + (16+8i)]. The lookup above encodes that in l.off < 0.
