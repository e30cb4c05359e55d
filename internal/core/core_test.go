package core

import (
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
)

const fibSrc = `
virtine int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}`

func TestQuickstartFib(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	fib := fns["fib"]
	if fib == nil {
		t.Fatal("fib not compiled")
	}
	got, err := fib.Call(15)
	if err != nil {
		t.Fatal(err)
	}
	if got != 610 {
		t.Fatalf("fib(15) = %d, want 610", got)
	}
}

func TestRepeatCallsUseSnapshot(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	fib := fns["fib"]
	clk1 := cycles.NewClock()
	if _, _, err := fib.CallOn(clk1, 1); err != nil {
		t.Fatal(err)
	}
	clk2 := cycles.NewClock()
	_, res2, err := fib.CallOn(clk2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.SnapshotUsed {
		t.Fatal("second call did not use snapshot")
	}
	if clk2.Now() >= clk1.Now() {
		t.Fatalf("warm call (%d) not cheaper than cold (%d)", clk2.Now(), clk1.Now())
	}
}

func TestSnapshotDisable(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	fib := fns["fib"]
	fib.Snapshot = false
	if _, _, err := fib.CallOn(cycles.NewClock(), 1); err != nil {
		t.Fatal(err)
	}
	_, res, err := fib.CallOn(cycles.NewClock(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotUsed {
		t.Fatal("snapshot used despite being disabled")
	}
}

func TestArgCountChecked(t *testing.T) {
	client := NewClient()
	fns, _ := client.CompileC(fibSrc)
	if _, err := fns["fib"].Call(1, 2); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestMultipleVirtinesShareClient(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(`
virtine int double_(int n) { return n * 2; }
virtine int square(int n) { return n * n; }
`)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := fns["double_"].Call(21)
	s, _ := fns["square"].Call(9)
	if d != 42 || s != 81 {
		t.Fatalf("double_=%d square=%d", d, s)
	}
}

func TestFuncFromImage(t *testing.T) {
	client := NewClient()
	img := guest.MustFromAsm("ret7", guest.WrapLongMode(`
	movi rax, 7
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	f := client.FuncFromImage(img, hypercall.DenyAll{})
	got, _, err := f.CallOn(cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("ret7 = %d", got)
	}
}

func TestPolicyViolationSurfacesToClient(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(`
virtine int sneaky(int n) { puts("x"); return n; }`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fns["sneaky"].Call(1)
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v", err)
	}
}

func TestPinnedEnv(t *testing.T) {
	client := NewClient()
	fns, err := client.CompileC(`
virtine_config(0x2) int hello(int n) {
	write(1, "hi", 2);
	return n;
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := fns["hello"]
	env := hypercall.NewEnv()
	f.Env = env
	if _, _, err := f.CallOn(cycles.NewClock(), 1); err != nil {
		t.Fatal(err)
	}
	if env.Stdout.String() != "hi" {
		t.Fatalf("stdout = %q", env.Stdout.String())
	}
	// Second call resets per-run state.
	if _, _, err := f.CallOn(cycles.NewClock(), 1); err != nil {
		t.Fatal(err)
	}
	if env.Stdout.String() != "hi" {
		t.Fatalf("env not reset between runs: %q", env.Stdout.String())
	}
}

// FuncFromImage wraps a hand-built image (assembly or native workload)
// as a callable virtine — the direct Wasp runtime API path (Fig 10 B).
func (c *Client) FuncFromImage(img *guest.Image, pol hypercall.Policy) *Func {
	return &Func{client: c, Name: img.Name, Image: img, Policy: pol}
}
