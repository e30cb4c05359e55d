package cpu

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// fibSrc is the recursive-fib microbenchmark: call-heavy, so it
// exercises followed calls, speculated returns and the fused stack
// pairs of the trace compiler.
const fibSrc = `
.bits 64
	movi rdi, 15
	call vx_fib
	hlt
vx_fib:
	cmp rdi, 2
	jge vx_fib_rec
	mov rax, rdi
	ret
vx_fib_rec:
	push rdi
	sub rdi, 1
	call vx_fib
	pop rdi
	push rax
	sub rdi, 2
	call vx_fib
	pop rbx
	add rax, rbx
	ret
`

// smcSrc patches an immediate inside its own loop. Five iterations: the
// first is Step's, the second compiles the loop trace, and the patch store
// then lands inside the running trace's own page.
const smcSrc = `
.bits 64
_start:
	movi rcx, 5
loop:
patch:
	movi rbx, 7
	movi rdi, patch
	mov rax, rcx
	store [rdi+2], rax
	add rsi, rbx
	dec rcx
	jnz loop
	hlt
`

// execSrc assembles src into a fresh long-mode CPU and runs it to the
// first exit under the selected engine.
func execSrc(t testing.TB, src string, legacy bool) (*CPU, *Exit, uint64) {
	t.Helper()
	return execBudget(t, src, legacy, 100_000_000)
}

// execBudget is execSrc with an explicit instruction budget.
func execBudget(t testing.TB, src string, legacy bool, budget uint64) (*CPU, *Exit, uint64) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	clk := cycles.NewClock()
	c := New(mem, clk, p.Entry)
	c.Legacy = legacy
	c.SetupLongMode()
	ex := c.Run(budget)
	return c, ex, clk.Now()
}

// The two engines — Step per instruction (Legacy) and compiled traces —
// must agree bit-for-bit on registers, flags, retirement count and
// virtual cycles.
func TestTraceEngineFibParity(t *testing.T) {
	jit, exJ, cyJ := execSrc(t, fibSrc, false)
	legacy, exL, cyL := execSrc(t, fibSrc, true)
	for _, ex := range []*Exit{exJ, exL} {
		if ex.Reason != ExitHalt {
			t.Fatalf("exit %+v", ex)
		}
	}
	if jit.Regs[isa.RAX] != 610 {
		t.Fatalf("fib(15) = %d, want 610", jit.Regs[isa.RAX])
	}
	if cyJ != cyL {
		t.Fatalf("cycles diverge: jit %d, legacy %d", cyJ, cyL)
	}
	if jit.Regs != legacy.Regs {
		t.Fatalf("registers diverge across engines")
	}
	if jit.Retired != legacy.Retired {
		t.Fatalf("retired diverge: jit %d, legacy %d", jit.Retired, legacy.Retired)
	}
	if jit.Flags != legacy.Flags {
		t.Fatalf("flags diverge: jit %+v, legacy %+v", jit.Flags, legacy.Flags)
	}
	if jit.Stats.BlocksCompiled == 0 || jit.Stats.BlockHits == 0 {
		t.Fatalf("trace tier never engaged: %+v", jit.Stats)
	}
	if legacy.Stats != (JITStats{}) {
		t.Fatalf("Legacy touched the trace tier: %+v", legacy.Stats)
	}
}

// A guest store into its own compiled trace must deoptimize: the store
// completes, the trace stops, and the rewritten bytes execute — with
// virtual cycles identical to the legacy engine.
func TestTraceSMCDeoptParity(t *testing.T) {
	jit, exJ, cyJ := execSrc(t, smcSrc, false)
	legacy, exL, cyL := execSrc(t, smcSrc, true)
	if exJ.Reason != ExitHalt || exL.Reason != ExitHalt {
		t.Fatalf("exits: jit %+v legacy %+v", exJ, exL)
	}
	if cyJ != cyL {
		t.Fatalf("cycles diverge: jit %d, legacy %d", cyJ, cyL)
	}
	if jit.Regs != legacy.Regs || jit.Retired != legacy.Retired {
		t.Fatalf("state diverges: jit %v/%d, legacy %v/%d",
			jit.Regs, jit.Retired, legacy.Regs, legacy.Retired)
	}
	if jit.Stats.BlocksCompiled == 0 {
		t.Fatalf("loop trace never compiled: %+v", jit.Stats)
	}
	if jit.Stats.BlockDeopts == 0 {
		t.Fatalf("self-modifying store never deoptimized: %+v", jit.Stats)
	}
}

// A host write (WriteMem) into a compiled page must unhook its traces:
// the next entry re-decodes the patched bytes. The guest OUTs once per
// iteration so the host can patch between resumptions, and the whole
// interleaving must cost exactly the legacy cycles.
func TestTraceHostWritePatchParity(t *testing.T) {
	src := `
.bits 64
_start:
	movi rdi, patch
	out 0x08, rdi
	movi rcx, 4
loop:
patch:
	movi rbx, 5
	add rsi, rbx
	out 0x07, rbx
	dec rcx
	jnz loop
	hlt
`
	exec := func(legacy bool) (*CPU, uint64) {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		clk := cycles.NewClock()
		c := New(mem, clk, p.Entry)
		c.Legacy = legacy
		c.SetupLongMode()
		var patchAddr uint64
		patched := false
		for {
			ex := c.Run(1_000_000)
			if ex.Reason == ExitHalt {
				break
			}
			if ex.Reason != ExitIO {
				t.Fatalf("legacy=%v: exit %+v", legacy, ex)
			}
			switch ex.Port {
			case 0x08:
				// The guest reports the patch site's virtual address.
				patchAddr = c.Regs[ex.Reg]
			case 0x07:
				if !patched {
					// Patch the movi immediate from the host side after
					// the first iteration (the trace is compiled by then
					// in the cached engine).
					if err := c.WriteMem(patchAddr+2, []byte{9, 0, 0, 0, 0, 0, 0, 0}); err != nil {
						t.Fatal(err)
					}
					patched = true
				}
			}
		}
		return c, clk.Now()
	}
	jit, cyJ := exec(false)
	legacy, cyL := exec(true)
	if cyJ != cyL {
		t.Fatalf("cycles diverge: jit %d, legacy %d", cyJ, cyL)
	}
	if jit.Regs != legacy.Regs || jit.Retired != legacy.Retired {
		t.Fatalf("state diverges: jit %v/%d, legacy %v/%d",
			jit.Regs, jit.Retired, legacy.Regs, legacy.Retired)
	}
	// 4 iterations: 5 before the patch lands, 9 after → 5+9+9+9.
	if want := uint64(5 + 9 + 9 + 9); jit.Regs[isa.RSI] != want {
		t.Fatalf("rsi = %d, want %d (host patch not observed)", jit.Regs[isa.RSI], want)
	}
}

// The trace gate (a trace is entered only when the remaining budget covers
// every instruction it can retire) is the engine's only budget mechanism.
// For every budget the two engines must stop on the same instruction in
// the same state: same exit, IP, Retired, registers, flags and clock.
func TestBudgetSweepParity(t *testing.T) {
	for _, corpus := range []struct {
		name, src string
		budgets   uint64
	}{
		{"fib", fibSrc, 400}, // well past the first compiled traces
		{"smc", smcSrc, 40},  // the whole program: it halts at 37
	} {
		traced := false
		for b := uint64(1); b <= corpus.budgets; b++ {
			jit, exJ, cyJ := execBudget(t, corpus.src, false, b)
			legacy, exL, cyL := execBudget(t, corpus.src, true, b)
			if exJ.Reason != exL.Reason || (exJ.Err == nil) != (exL.Err == nil) ||
				(exJ.Err != nil && exJ.Err.Error() != exL.Err.Error()) {
				t.Fatalf("%s budget %d: exits diverge: jit %+v, legacy %+v", corpus.name, b, exJ, exL)
			}
			if jit.IP != legacy.IP || jit.Retired != legacy.Retired || cyJ != cyL {
				t.Fatalf("%s budget %d: jit ip=%#x retired=%d cycles=%d, legacy ip=%#x retired=%d cycles=%d",
					corpus.name, b, jit.IP, jit.Retired, cyJ, legacy.IP, legacy.Retired, cyL)
			}
			if jit.Regs != legacy.Regs || jit.Flags != legacy.Flags {
				t.Fatalf("%s budget %d: registers or flags diverge", corpus.name, b)
			}
			traced = traced || jit.Stats.BlocksCompiled > 0
		}
		if !traced {
			t.Fatalf("%s: no budget compiled a trace; the sweep never exercised the gate", corpus.name)
		}
	}
}

func BenchmarkJITProbeFib(b *testing.B) {
	src := `
.bits 64
	movi rdi, 21
	call vx_fib
	hlt
vx_fib:
	cmp rdi, 2
	jge vx_fib_rec
	mov rax, rdi
	ret
vx_fib_rec:
	push rdi
	sub rdi, 1
	call vx_fib
	pop rdi
	push rax
	sub rdi, 2
	call vx_fib
	pop rbx
	add rax, rbx
	ret
`
	p, err := asm.Assemble(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		c := New(mem, cycles.NewClock(), p.Entry)
		c.SetupLongMode()
		c.Run(100_000_000)
		b.ReportMetric(float64(c.Retired), "instr")
	}
}
