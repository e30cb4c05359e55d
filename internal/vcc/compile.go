package vcc

import (
	"fmt"
	"hash/crc32"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/isa"
)

// runtimeC is the mini-libc (the paper's newlib port, §5.3): a C-subset
// standard library whose system calls forward to hypercalls. It is
// compiled together with every translation unit; only the functions the
// virtine's call graph actually reaches are packaged into the image.
const runtimeC = `
/* vcc runtime: mini-libc forwarded to hypercalls (newlib analogue). */
char *__heap;

char *malloc(int n) {
	if (__heap == 0) { __heap = __image_end(); }
	if (n < 1) { n = 1; }
	n = (n + 7) & ~7;
	char *p = __heap;
	__heap = __heap + n;
	return p;
}

void free(char *p) { /* bump allocator: freed with the virtine */ }

int strlen(char *s) {
	int n = 0;
	while (s[n]) { n++; }
	return n;
}

int strcmp(char *a, char *b) {
	int i = 0;
	while (a[i] && a[i] == b[i]) { i++; }
	return a[i] - b[i];
}

char *strcpy(char *d, char *s) {
	int i = 0;
	while (s[i]) { d[i] = s[i]; i++; }
	d[i] = 0;
	return d;
}

char *memcpy(char *d, char *s, int n) {
	for (int i = 0; i < n; i++) { d[i] = s[i]; }
	return d;
}

char *memset(char *d, int c, int n) {
	for (int i = 0; i < n; i++) { d[i] = c; }
	return d;
}

int memcmp(char *a, char *b, int n) {
	for (int i = 0; i < n; i++) {
		if (a[i] != b[i]) { return a[i] - b[i]; }
	}
	return 0;
}

int write(int fd, char *buf, int n) { return __hc(1, fd, buf, n); }
int read(int fd, char *buf, int n)  { return __hc(2, fd, buf, n); }
int open(char *path)                { return __hc(3, path, 0, 0); }
int close(int fd)                   { return __hc(4, fd, 0, 0); }
int stat_size(char *path)           { return __hc(5, path, 0, 0); }
int send(int sock, char *buf, int n){ return __hc(6, sock, buf, n); }
int recv(int sock, char *buf, int n){ return __hc(7, sock, buf, n); }
int get_data(char *buf, int cap)    { return __hc(9, buf, cap, 0); }
int return_data(char *buf, int n)   { return __hc(10, buf, n, 0); }
int mark(int id)                    { return __hc(11, id, 0, 0); }
int puts(char *s)                   { return write(1, s, strlen(s)); }
void exit(int code)                 { __hc(0, code, 0, 0); }

int itoa(int v, char *out) {
	int i = 0;
	int neg = 0;
	if (v < 0) { neg = 1; v = -v; }
	char tmp[24];
	int n = 0;
	if (v == 0) { tmp[n] = '0'; n++; }
	while (v > 0) { tmp[n] = '0' + v % 10; n++; v = v / 10; }
	if (neg) { out[i] = '-'; i++; }
	while (n > 0) { n--; out[i] = tmp[n]; i++; }
	out[i] = 0;
	return i;
}

int atoi(char *s) {
	int v = 0;
	int i = 0;
	int neg = 0;
	if (s[0] == '-') { neg = 1; i = 1; }
	while (s[i] >= '0' && s[i] <= '9') { v = v * 10 + (s[i] - '0'); i++; }
	if (neg) { return -v; }
	return v;
}
`

// Virtine is one compiled virtine-annotated function: its standalone
// image, the policy its qualifiers granted, and the host-side call
// metadata.
type Virtine struct {
	Fn     *FuncDecl
	Image  *guest.Image
	Policy hypercall.Policy
	// Asm is the image's assembly listing (for tooling and debugging):
	// the boot stub around the generated statements, rendered as text.
	// The assembler's text front end reads it back to the same image.
	Asm string
}

// Program is the result of compiling a translation unit.
type Program struct {
	File *File
	// Virtines maps each `virtine`-annotated function to its package.
	Virtines map[string]*Virtine
}

// Options control the compilation pipeline.
type Options struct {
	// Optimize enables the middle-end: AST constant folding plus the
	// peephole pass over the generated instructions. On by default in
	// Compile.
	Optimize bool
}

// Compile parses src together with the runtime library, finds every
// virtine-annotated function, and packages each one — with exactly the
// subset of the call graph it reaches (§5.3) — into a standalone image.
// Optimization is enabled.
func Compile(src string) (*Program, error) {
	return CompileWithOptions(src, Options{Optimize: true})
}

// CompileWithOptions is Compile with explicit pipeline options.
func CompileWithOptions(src string, opts Options) (*Program, error) {
	file, err := Parse(src + "\n" + runtimeC)
	if err != nil {
		return nil, err
	}
	prog := &Program{File: file, Virtines: make(map[string]*Virtine)}
	for _, fn := range file.Funcs {
		if !fn.Virtine {
			continue
		}
		v, err := packageVirtine(file, fn, opts)
		if err != nil {
			return nil, err
		}
		prog.Virtines[fn.Name] = v
	}
	return prog, nil
}

// CompileFunc compiles src and returns the single named virtine.
func CompileFunc(src, name string) (*Virtine, error) {
	prog, err := Compile(src)
	if err != nil {
		return nil, err
	}
	v, ok := prog.Virtines[name]
	if !ok {
		return nil, fmt.Errorf("vcc: no virtine function %q (did you annotate it?)", name)
	}
	return v, nil
}

// packageVirtine cuts the call graph at fn and emits a complete image.
func packageVirtine(file *File, fn *FuncDecl, opts Options) (*Virtine, error) {
	reach := reachable(file, fn.Name)
	g := newGen(file)
	// Size the statement slice once: codegen emits 1.1 to 3.1 statements
	// per token of a reached function (1.6 for the file server), so two
	// per token, plus crt0's and three per global, leaves at most one
	// doubling and usually none.
	n := 16 + 2*len(fn.Params) + 3*len(file.Globals)
	for _, f := range file.Funcs {
		if reach[f.Name] {
			n += 2 * f.Toks
		}
	}
	g.out = make([]asm.Stmt, 0, n)

	// crt0: runs at the long-mode entry point. Snapshot first (the
	// language extensions use snapshotting by default, §5.3; the capture
	// point precedes argument load so restored runs see fresh args),
	// then marshal arguments from guest.ArgAddr onto the stack, call the
	// root, store the return value at guest.RetAddr, and exit.
	g.emit(isa.OUT, asm.Imm(hypercall.NrSnapshot), rdi)
	g.emit(isa.MOVI, rbx, asm.Imm(guest.ArgAddr))
	for i := len(fn.Params) - 1; i >= 0; i-- {
		g.emit(isa.LOAD, rax, asm.MemDisp(isa.RBX, int64(8*i)))
		g.emit(isa.PUSH, rax)
	}
	g.emit(isa.CALL, asm.Sym("fn_"+fn.Name))
	if n := len(fn.Params); n > 0 {
		g.emit(isa.ADDI, rsp, asm.Imm(int64(8*n)))
	}
	g.emit(isa.MOVI, rbx, asm.Imm(guest.RetAddr))
	g.emit(isa.STORE, asm.Mem(isa.RBX), rax)
	g.emit(isa.MOVI, rdi, asm.Imm(0))
	g.emit(isa.OUT, asm.Imm(hypercall.NrExit), rdi)
	g.emit(isa.HLT)

	// Emit every reachable function.
	for _, f := range file.Funcs {
		if !reach[f.Name] {
			continue
		}
		if f.Body == nil {
			return nil, errf(f.Line, "function %s has no body", f.Name)
		}
		if err := g.genFunc(f); err != nil {
			return nil, err
		}
	}

	// Data: globals and the string pool. All globals of the unit are
	// packaged (a copy-in snapshot of the globals the virtine can see,
	// matching §5.3's global-variable snapshot semantics).
	data := 0
	for _, gv := range file.Globals {
		g.data(asm.Align, asm.Imm(8))
		g.label("g_" + gv.Name)
		if gv.Init != nil {
			v, err := constFold(gv.Init)
			if err != nil {
				return nil, err
			}
			g.data(asm.DQ, asm.Imm(v))
			continue
		}
		// Elements are at most 8 bytes, so a length within MaxImage
		// cannot overflow the size.
		size := max(gv.T.Size(), 8)
		if t := gv.T; t.Kind == TypeArray && (t.N < 0 || t.N > asm.MaxImage) || size > asm.MaxImage-data {
			return nil, errf(gv.Line, "global %s takes the image past %d bytes", gv.Name, asm.MaxImage)
		}
		data += size
		g.data(asm.Zero, asm.Imm(int64(size)))
	}
	for i, s := range g.strs {
		g.label(g.strLbl[i])
		g.data(asm.DB, asm.Str(s), asm.Imm(0))
	}

	body := g.out
	if opts.Optimize {
		body = optimize(body)
	}
	p, err := guest.AssembleLongMode(body)
	if err != nil {
		return nil, fmt.Errorf("vcc: internal assembly error for %s: %w", fn.Name, err)
	}
	// Snapshots are keyed by image name (§5.2: all executions of the
	// same function share one snapshot). Content-address the name so two
	// different programs that both define, say, `handle` never collide
	// in a shared Wasp's snapshot cache.
	img, err := guest.FromProgram(fmt.Sprintf("virtine-%s-%08x", fn.Name, crc32.ChecksumIEEE(p.Code)), p)
	if err != nil {
		return nil, fmt.Errorf("vcc: internal assembly error for %s: %w", fn.Name, err)
	}
	return &Virtine{
		Fn:     fn,
		Image:  img,
		Policy: policyFor(fn),
		Asm:    guest.WrapLongMode(asm.Listing(body)),
	}, nil
}

// policyFor derives the hypercall policy from the function's qualifiers
// (§5.3): virtine → deny-all, virtine_permissive → allow-all,
// virtine_config(mask) → bit-mask.
func policyFor(fn *FuncDecl) hypercall.Policy {
	switch {
	case fn.Permissive:
		return hypercall.AllowAll{}
	case fn.ConfigMask >= 0:
		return hypercall.Mask(fn.ConfigMask)
	default:
		return hypercall.DenyAll{}
	}
}

// reachable computes the set of function names reachable from root — the
// call-graph cut that determines what is packaged into the image.
func reachable(file *File, root string) map[string]bool {
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		fn := file.Func(name)
		if fn == nil {
			return // builtin (__hc, __image_end) or undefined: caught later
		}
		seen[name] = true
		if fn.Body != nil {
			walkCalls(fn.Body, visit)
		}
	}
	visit(root)
	return seen
}

// walkCalls invokes f for every function name called within a statement
// tree.
func walkCalls(s Stmt, f func(string)) {
	var we func(Expr)
	we = func(e Expr) {
		switch x := e.(type) {
		case *Unary:
			we(x.X)
		case *Binary:
			we(x.X)
			we(x.Y)
		case *Assign:
			we(x.L)
			we(x.R)
		case *Cond:
			we(x.C)
			we(x.A)
			we(x.B)
		case *Index:
			we(x.Base)
			we(x.Idx)
		case *IncDec:
			we(x.X)
		case *Call:
			f(x.Name)
			for _, a := range x.Args {
				we(a)
			}
		}
	}
	var ws func(Stmt)
	ws = func(s Stmt) {
		switch st := s.(type) {
		case *Block:
			for _, sub := range st.Stmts {
				ws(sub)
			}
		case *VarDecl:
			if st.Init != nil {
				we(st.Init)
			}
		case *ExprStmt:
			we(st.X)
		case *If:
			we(st.C)
			if st.Then != nil {
				ws(st.Then)
			}
			if st.Else != nil {
				ws(st.Else)
			}
		case *While:
			we(st.C)
			if st.Body != nil {
				ws(st.Body)
			}
		case *For:
			if st.Init != nil {
				ws(st.Init)
			}
			if st.C != nil {
				we(st.C)
			}
			if st.Post != nil {
				we(st.Post)
			}
			if st.Body != nil {
				ws(st.Body)
			}
		case *Return:
			if st.X != nil {
				we(st.X)
			}
		}
	}
	ws(s)
}

// constFold evaluates a constant initializer expression.
func constFold(e Expr) (int64, error) {
	v, bad := fold(e)
	if bad == nil {
		return v, nil
	}
	if b, ok := bad.(*Binary); ok && (b.Op == "/" || b.Op == "%") {
		return 0, errf(b.Pos(), "division by zero in constant")
	}
	return 0, errf(bad.Pos(), "initializer is not a constant expression")
}

// fold evaluates a constant expression. bad is the first subexpression
// that is not a constant, or a division by a zero constant; it is nil
// when e folds. Codegen tries every operator expression, so a failure
// costs no allocation.
func fold(e Expr) (v int64, bad Expr) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *Unary:
		v, bad := fold(x.X)
		if bad != nil {
			return 0, bad
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *Binary:
		a, bad := fold(x.X)
		if bad != nil {
			return 0, bad
		}
		b, bad := fold(x.Y)
		if bad != nil {
			return 0, bad
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, x
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, x
			}
			return a % b, nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		case "<<":
			return a << (uint(b) & 63), nil
		case ">>":
			return a >> (uint(b) & 63), nil
		}
	case *SizeofType:
		return int64(x.T.Size()), nil
	}
	return 0, e
}

// MarshalArgs packs int64 arguments the way the generated crt0 expects
// them: consecutive little-endian 8-byte slots at guest.ArgAddr.
func MarshalArgs(vals ...int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		for j := 0; j < 8; j++ {
			out[8*i+j] = byte(uint64(v) >> (8 * j))
		}
	}
	return out
}

// UnmarshalRet reads the little-endian int64 return value the crt0 stored
// at guest.RetAddr.
func UnmarshalRet(b []byte) int64 {
	var v uint64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return int64(v)
}

// RetSize is the return-value blob size callers pass as RunConfig.RetBytes.
const RetSize = 8
