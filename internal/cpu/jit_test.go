package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// fibSrc is the recursive-fib microbenchmark: call-heavy, so it
// exercises the trace compiler's followed calls, speculated returns and
// push/pop steps.
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

// TestTraceStopsMatchStep pins every way a trace ends, at a middle step and
// at the final step: completion, a side exit on a taken forward branch or
// on the fall-through of a followed backward one (a loop exit, the final
// step wherever its period repeats and mid-trace where none does), a store that unhooks the trace's
// own page or another decoded page, a fault, a push, pop, followed call or
// speculated return whose stack access faults, and a deopt. Each
// program runs twice on one CPU per engine (the first pass marks the code,
// the second runs it as traces) and after each pass must match Legacy in
// exit, registers, flags, IP, Retired, clock, memory and dirty pages. TAIL
// is where the middle-step variant puts two more instructions; every
// compiled trace that holds the stopping instruction (vx_stop) must hold it
// where the variant says.
func TestTraceStopsMatchStep(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		bits      int // 64 when 0
		fault     string
		deopt     [2]bool // the second pass deoptimizes: {middle, final}
		noMiddle  bool
		noFinal   bool
		between   func(*CPU)
	}{
		{name: "completion", noMiddle: true, src: `
	movi rax, 1
vx_stop:
	movi rbx, 2
	hlt`},
		{name: "side exit", src: `
	movi r15, 0
	cmpi r15, 0
vx_stop:
	jz vx_taken
TAIL
	hlt
vx_taken:
	movi rsi, 4
	hlt`},
		// A repeated period ends its trace at the back-edge, so the loop
		// leaves one call open per iteration: no period repeats, and the
		// trace reaches the step cap mid-period, after vx_stop.
		{name: "loop exit", noFinal: true, src: `
	movi rsp, 0x7000
	movi rcx, 3
vx_loop:
	call vx_fn
vx_fn:
	addi rax, 1
	dec rcx
vx_stop:
	jnz vx_loop
TAIL
	hlt`},
		// The loop is 96 steps from its head to vx_stop: the trace there
		// follows the jnz back and is full.
		{name: "loop exit at the step cap", noMiddle: true, src: `
	movi rcx, 2
vx_loop:
` + strings.Repeat("\taddi rax, 1\n", maxBlockSteps-2) + `	dec rcx
vx_stop:
	jnz vx_loop
TAIL
	hlt`},
		{name: "store into its own page", deopt: [2]bool{true, false}, src: `
	movi rdi, vx_data
	movi rax, 7
vx_stop:
	store [rdi], rax
TAIL
	hlt
vx_data:
	.zero 8`},
		{name: "store into another decoded page", src: `
	jmp vx_other
vx_back:
	movi rdi, vx_other_data
	movi rax, 7
vx_stop:
	store [rdi], rax
TAIL
	hlt
.align 4096
vx_other:
	jmp vx_back
vx_other_data:
	.zero 8`},
		{name: "fault", fault: "load beyond memory", src: `
	movi rdi, 0x200000
vx_stop:
	load rax, [rdi]
TAIL
	hlt`},
		{name: "divide by zero", fault: "divide by zero", src: `
	movi r15, 0
vx_stop:
	div rax, r15
TAIL
	hlt`},
		{name: "push faults", fault: "push: store beyond memory", src: `
	movi rsp, 0x200000
vx_stop:
	push rax
TAIL
	hlt`},
		{name: "followed call's push faults", fault: "call push: store beyond memory", src: `
	movi rsp, 0x200000
	movi rax, 9
	subi rax, 1
vx_stop:
	call vx_fn
	hlt
vx_fn:
TAIL
	hlt`},
		{name: "pop faults", fault: "pop: load beyond memory", src: `
	movi rsp, 0x200000
vx_stop:
	pop rax
TAIL
	hlt`},
		{name: "speculated ret's pop faults", fault: "ret pop: load beyond memory", src: `
	movi rsp, 0x20000
	movi rdx, 0x200000
	call vx_fn
TAIL
	hlt
vx_fn:
	mov rsp, rdx
vx_stop:
	ret`},
		{name: "deopt", bits: 32, deopt: [2]bool{true, true}, src: `
	movi rdi, 0x6000
	movi rax, 5
vx_stop:
	store [rdi], rax
TAIL
	hlt`,
			// A reset shell: the ident-map latch is clear again, and the
			// compiled store must leave it to Step.
			between: func(c *CPU) { c.sawStore32 = false }},
	} {
		for at, final := range []bool{false, true} {
			if !final && tc.noMiddle || final && tc.noFinal {
				continue
			}
			name := fmt.Sprintf("%s, final step %v", tc.name, final)
			tail := "\tmovi rbx, 2\n\tmovi rdx, 3"
			if final {
				tail = ""
			}
			bits := tc.bits
			if bits == 0 {
				bits = 64
			}
			p, err := asm.Assemble(fmt.Sprintf(".bits %d\n.org 0x8000\n_start:\n\tnop\n%s\n",
				bits, strings.Replace(tc.src, "TAIL", tail, 1)))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			mem := make([]byte, 1<<20)
			copy(mem[p.Origin:], p.Code)
			jit, leg := startCPU(mem, p.Entry, p.StartMode, false), startCPU(mem, p.Entry, p.StartMode, true)
			var deopts uint64
			for pass := 0; pass < 2; pass++ {
				if pass == 1 && tc.between != nil {
					tc.between(jit)
					tc.between(leg)
				}
				jit.IP, jit.Halted, leg.IP, leg.Halted = p.Entry, false, p.Entry, false
				deopts = jit.Stats.BlockDeopts
				j, l := finish(jit, 1000), finish(leg, 1000)
				deopts = jit.Stats.BlockDeopts - deopts
				if d := diffEngines(j, l); d != "" {
					t.Fatalf("%s, pass %d: %s", name, pass, d)
				}
				if tc.fault != "" && (j.ex.Reason != ExitFault || !strings.Contains(j.ex.Err.Error(), tc.fault)) ||
					tc.fault == "" && j.ex.Reason != ExitHalt {
					t.Fatalf("%s, pass %d: exit %+v, want %q", name, pass, j.ex, tc.fault)
				}
			}
			if tc.deopt[at] != (deopts > 0) {
				t.Errorf("%s: %d deopts on the traced pass", name, deopts)
			}
			stop, found := p.Labels["vx_stop"], 0
			for _, s := range jit.bcache {
				for k := 0; s.blk != nil && k < len(s.blk.ops); k++ {
					if s.blk.anchor+uint64(int64(s.blk.ops[k].off)) != stop {
						continue
					}
					found++
					if last := k == len(s.blk.ops)-1; last != final {
						t.Errorf("%s: the trace at %#x holds vx_stop at step %d of %d", name, s.blk.anchor, k, len(s.blk.ops))
					}
				}
			}
			if found == 0 {
				t.Errorf("%s: no compiled trace holds vx_stop", name)
			}
		}
	}
}

// BenchmarkTraceOps times trace dispatch on straight-line code: a counted
// loop over 60 instructions of one kind and its own dec and jnz, one step
// each, and a MOVI variant whose iterations leave the trace by three taken
// forward branches. The steps row is the floor: 60 MOVI steps called from
// a bare Go loop.
func BenchmarkTraceOps(b *testing.B) {
	regs := []string{"rax", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11"}
	movi := func(k int) string { return fmt.Sprintf("movi %s, %d", regs[k%8], k) }
	for _, op := range []struct {
		name  string
		ins   func(k int) string
		sides bool
	}{
		{"MOVI", movi, false},
		{"ADD", func(k int) string { return fmt.Sprintf("add %s, %s", regs[k%8], regs[(k+3)%8]) }, false},
		{"LOAD", func(k int) string { return fmt.Sprintf("load %s, [rbx+%d]", regs[k%8], 8*k) }, false},
		{"STORE", func(k int) string { return fmt.Sprintf("store [rbx+%d], %s", 8*k, regs[k%8]) }, false},
		{"MOVI-side-exits", movi, true},
	} {
		b.Run(op.name, func(b *testing.B) {
			src := ".bits 64\n.org 0x8000\n\tmovi rbx, 0x10000\n\tmovi r15, 0\n\tmovi rcx, 1000\nvx_loop:\n"
			for k := 0; k < 60; k++ {
				if op.sides && k%20 == 19 {
					// Always taken (r15 is 0), onto the next instruction:
					// the trace side-exits and the chain re-probes.
					src += fmt.Sprintf("\tcmpi r15, 0\n\tjz vx_side%d\nvx_side%d:\n", k, k)
				}
				src += "\t" + op.ins(k) + "\n"
			}
			src += "\tdec rcx\n\tjnz vx_loop\n\thlt\n"
			p, err := asm.Assemble(src)
			if err != nil {
				b.Fatal(err)
			}
			mem := make([]byte, 1<<20)
			copy(mem[p.Origin:], p.Code)
			c := startCPU(mem, p.Entry, p.StartMode, false)
			run := func() uint64 {
				r0 := c.Retired
				c.IP, c.Halted = p.Entry, false
				if ex := c.Run(1 << 20); ex.Reason != ExitHalt {
					b.Fatalf("exit %+v", ex)
				}
				return c.Retired - r0
			}
			run() // first visit: Step marks the code, the data page becomes dirty
			per := run()
			if c.Stats.BlocksCompiled == 0 {
				b.Fatal("no trace compiled")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(per), "ns/instr")
		})
	}
	b.Run("steps", func(b *testing.B) {
		ops := make([]step, 60)
		for k := range ops {
			ops[k] = step{fn: opMovi, imm: uint64(k), dst: isa.Reg(k % 8)}
		}
		c := New(make([]byte, 4096), cycles.NewClock(), 0)
		for i := 0; i < b.N; i++ {
			callAll(c, ops)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ops)), "ns/instr")
	})
}

// callAll is BenchmarkTraceOps's floor: nothing but the step calls.
//
//go:noinline
func callAll(c *CPU, ops []step) {
	for i := range ops {
		if s := &ops[i]; s.fn(c, s) != nil {
			panic("step failed")
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
