package vcc

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/wasp"
)

const optProbeSrc = `
virtine int probe(int n) {
	int a = n + 1;
	int b = a * 2;
	int c = 3 + 4;          /* constant-folds */
	int arr[8];
	for (int i = 0; i < 8; i++) { arr[i] = i * i; }
	int sum = 0;
	for (int i = 0; i < 8; i++) { sum += arr[i]; }
	return a + b + c + sum;
}`

// compileBoth compiles with and without optimization.
func compileBoth(t *testing.T, src, name string) (opt, raw *Virtine) {
	t.Helper()
	po, err := CompileWithOptions(src, Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := CompileWithOptions(src, Options{Optimize: false})
	if err != nil {
		t.Fatal(err)
	}
	return po.Virtines[name], pr.Virtines[name]
}

func runVirtine(t *testing.T, v *Virtine, args ...int64) (int64, uint64) {
	t.Helper()
	w := wasp.New()
	clk := cycles.NewClock()
	res, err := w.Run(v.Image, wasp.RunConfig{
		Policy: v.Policy, Args: MarshalArgs(args...), RetBytes: RetSize,
	}, clk)
	if err != nil {
		t.Fatal(err)
	}
	return UnmarshalRet(res.Ret), clk.Now()
}

func TestOptimizerPreservesSemantics(t *testing.T) {
	opt, raw := compileBoth(t, optProbeSrc, "probe")
	for _, n := range []int64{0, 1, 7, -3, 1000} {
		vo, _ := runVirtine(t, opt, n)
		vr, _ := runVirtine(t, raw, n)
		if vo != vr {
			t.Fatalf("probe(%d): optimized %d != unoptimized %d", n, vo, vr)
		}
	}
}

func TestOptimizerShrinksCodeAndCycles(t *testing.T) {
	opt, raw := compileBoth(t, optProbeSrc, "probe")
	io, ir := InstructionCount(opt.Asm), InstructionCount(raw.Asm)
	if io >= ir {
		t.Fatalf("optimizer did not shrink code: %d vs %d instructions", io, ir)
	}
	// At least 15% fewer instructions on this stack-machine-heavy code.
	if float64(io) > 0.85*float64(ir) {
		t.Fatalf("optimizer too weak: %d vs %d instructions", io, ir)
	}
	if len(opt.Image.Code) >= len(raw.Image.Code) {
		t.Fatalf("image did not shrink: %d vs %d bytes", len(opt.Image.Code), len(raw.Image.Code))
	}
	_, co := runVirtine(t, opt, 5)
	_, cr := runVirtine(t, raw, 5)
	if co >= cr {
		t.Fatalf("optimized run (%d cycles) not cheaper than raw (%d)", co, cr)
	}
}

func TestOptimizerOnAllPrograms(t *testing.T) {
	// Every whole-program test compiled both ways must agree; this is the
	// optimizer's regression net.
	programs := []struct {
		src  string
		name string
		args []int64
		want int64
	}{
		{`virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }`, "fib", []int64{15}, 610},
		{`virtine int f(int a, int b) { return (a << 3) | (b & 7); }`, "f", []int64{5, 12}, 5<<3 | 12&7},
		{`virtine int f(int n) {
			char buf[32];
			strcpy(buf, "abc");
			return strlen(buf) + n;
		}`, "f", []int64{10}, 13},
	}
	for _, p := range programs {
		opt, raw := compileBoth(t, p.src, p.name)
		vo, _ := runVirtine(t, opt, p.args...)
		vr, _ := runVirtine(t, raw, p.args...)
		if vo != p.want || vr != p.want {
			t.Fatalf("%s: optimized=%d raw=%d want=%d", p.name, vo, vr, p.want)
		}
	}
}

func TestConstantFolding(t *testing.T) {
	// A pure-constant expression must compile to a single movi, not a
	// tree of pushes.
	prog, err := Compile(`virtine int k(int n) { return 2 * 3 + (10 << 2) - 6 / 2; }`)
	if err != nil {
		t.Fatal(err)
	}
	v := prog.Virtines["k"]
	got, _ := runVirtine(t, v, 0)
	if got != 2*3+(10<<2)-6/2 {
		t.Fatalf("k = %d", got)
	}
	// The folded function body should be tiny; the whole image (boot
	// stub + crt0 + function) stays under ~75 instructions.
	if n := InstructionCount(v.Asm); n > 75 {
		t.Fatalf("folded program still has %d instructions", n)
	}
}

func TestPeepholePatternsDirectly(t *testing.T) {
	// The peephole runs over statements: the text inputs go through the
	// assembler's text front end, and the result is rendered back.
	optimize := func(src string) string {
		u := asm.NewUnit()
		if err := u.Parse(src); err != nil {
			t.Fatal(err)
		}
		return asm.Listing(optimize(u.Stmts()))
	}
	in := "\tpush rax\n\tmovi rax, 7\n\tmov rbx, rax\n\tpop rax\n"
	out := optimize(in)
	if InstructionCount(out) != 1 {
		t.Fatalf("pattern not collapsed:\n%s", out)
	}
	in2 := "\tmov rax, rax\n\thlt\n"
	if InstructionCount(optimize(in2)) != 1 {
		t.Fatal("mov X,X not removed")
	}
	in3 := "\tjmp .L1\n.L1:\n\thlt\n"
	if InstructionCount(optimize(in3)) != 1 {
		t.Fatal("jump-to-next not removed")
	}
	// A jump to a *different* label must survive.
	in4 := "\tjmp .L2\n.L1:\n\thlt\n.L2:\n\tnop\n"
	if InstructionCount(optimize(in4)) != 3 {
		t.Fatal("jump wrongly removed")
	}
}

// InstructionCount reports the number of instructions in an assembly
// listing (labels and directives excluded) — used by tests and the
// optimizer ablation.
func InstructionCount(asmText string) int {
	n := 0
	for _, line := range strings.Split(asmText, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasSuffix(t, ":") || strings.HasPrefix(t, ".") {
			continue
		}
		n++
	}
	return n
}
