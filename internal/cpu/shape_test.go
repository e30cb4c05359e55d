package cpu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
)

// traceShape digests every trace compiled on c's pages, in page and key
// order: anchor, each step's offsets and running cost, end, term and the
// total. Two compilers that emit the same traces digest alike.
func traceShape(c *CPU) string {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	traces, steps := 0, 0
	for i, pg := range c.code {
		if pg == nil {
			continue
		}
		for _, e := range pg.blockList() {
			blk := e.blk
			traces++
			steps += len(blk.ops)
			put(int64(i))
			put(int64(e.key))
			put(int64(blk.anchor))
			put(int64(len(blk.ops)))
			for _, s := range blk.ops {
				put(int64(s.off))
				put(int64(s.offEnd))
				put(int64(s.cum))
			}
			put(int64(blk.end))
			put(int64(blk.total))
			if blk.term {
				put(1)
			} else {
				put(0)
			}
		}
	}
	return fmt.Sprintf("traces=%d steps=%d digest=%016x", traces, steps, h.Sum64())
}

// countedLoopSrc is a four-instruction counted loop: its trace is one
// four-step period up to the step cap.
const countedLoopSrc = `
.bits 64
	movi rcx, 1000
	movi rbx, 3
loop:
	add rax, rbx
	addi rdx, 5
	dec rcx
	jnz loop
	hlt
`

// jmpLoopSrc's loop exits forward and closes with a followed JMP.
const jmpLoopSrc = `
.bits 64
	movi rax, 0
loop:
	addi rax, 1
	cmpi rax, 100
	jge out
	jmp loop
out:
	hlt
`

// openCallSrc branches back from inside a followed call whose RET never
// runs: every period leaves one more return site on the compile-time
// return stack, so no period repeats the one before.
const openCallSrc = `
.bits 64
	movi rcx, 20
top:
	call fn
fn:
	addi rax, 1
	dec rcx
	jnz top
	hlt
`

// dipSrc jumps back into f with the return stack as deep as when f was
// first compiled, but holding a different return site: its RET popped the
// first one in between. The period from f must be compiled again, while
// the whole loop from again repeats.
const dipSrc = `
.bits 64
	movi rcx, 30
again:
	call f
	call g
	dec rcx
	jnz again
	hlt
f:
	addi rax, 1
	ret
g:
	jmp f
`

// staleSrc's trace at H first compiles jl T before T is compiled, as a
// forward-falling branch; the jmp back to H then closes a period whose
// recompile would follow jl T backwards instead. Only the period from T
// repeats.
const staleSrc = `
.bits 64
	movi rax, 0
	jmp H
T:
	addi rbx, 1
	cmpi rbx, 40
	jge done
	jmp H
H:
	addi rax, 1
	cmpi rax, 3
	jl T
	movi rax, 0
	jmp T
done:
	hlt
`

// TestTraceShapePins runs programs in all three modes, including the §4.2
// boot, and pins the digest of every trace they compile. The pins are also
// the traces of a compiler that, where a period would repeat, decodes and
// compiles it afresh as many whole times as fit under the step cap and
// stops at its head, so copying periods must emit exactly its traces. A
// loop trace ends at its loop head, where the next iteration re-enters
// it. fib runs no loop, so no period repeats in it.
func TestTraceShapePins(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"fib64", fibSrc, "traces=4 steps=37 digest=141233dcfc1e20a1"},
		{"fib32", fibAsm("32", 12), "traces=4 steps=37 digest=f3882f3aed472081"},
		{"fib16", fibAsm("16", 12), "traces=4 steps=37 digest=dfc23c05c15b1a79"},
		{"counted loop", countedLoopSrc, "traces=2 steps=189 digest=b14f4cc500376ce4"},
		{"jmp loop", jmpLoopSrc, "traces=1 steps=96 digest=57b9e6226741870d"},
		{"open call", openCallSrc, "traces=1 steps=96 digest=112a3d13aeae850d"},
		{"return-stack dip", dipSrc, "traces=1 steps=90 digest=81ba4c295a75c856"},
		{"stale back-edge test", staleSrc, "traces=3 steps=274 digest=889a1998389bd757"},
		{"boot", bootToLongMode, "traces=10 steps=481 digest=a32b285d820d9968"},
	} {
		c, ex := run(t, tc.src)
		wantHalt(t, ex)
		if got := traceShape(c); got != tc.want {
			t.Errorf("%s: %q, want %q", tc.name, got, tc.want)
		}
	}
}

// compileAt assembles src into a fresh long-mode CPU and returns it with
// the address of label, where a trace is to be compiled (the identity map
// makes it the physical address too).
func compileAt(t *testing.T, src, label string) (*CPU, uint64) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	c := New(mem, cycles.NewClock(), p.Entry)
	c.SetupLongMode()
	return c, p.Labels[label]
}

// A loop trace compiles its body once. The counted loop's 96 steps are its
// four-step period (add, addi, dec, jnz) 24 times, each repeat a copy of
// the first period's step at its offsets with the cost running on. A
// compile allocates the cblock and its steps and nothing per step,
// whether the loop repeats a period, closes with a JMP or, with an open
// call, is compiled step by step.
func TestLoopTraceRepeats(t *testing.T) {
	c, at := compileAt(t, countedLoopSrc, "loop")
	blk := c.compileBlock(at, at)
	if len(blk.ops) != maxBlockSteps {
		t.Fatalf("the loop trace has %d steps, want %d", len(blk.ops), maxBlockSteps)
	}
	const period = 4
	first := blk.ops[period-1].cum
	for k := period; k < len(blk.ops); k++ {
		s, p := blk.ops[k], blk.ops[k-period]
		if reflect.ValueOf(s.fn).Pointer() != reflect.ValueOf(p.fn).Pointer() ||
			s.imm != p.imm || s.dst != p.dst || s.src != p.src ||
			s.off != p.off || s.offEnd != p.offEnd || s.cum != p.cum+first {
			t.Fatalf("step %d %+v does not repeat step %d %+v", k, s, k-period, p)
		}
	}
	if blk.end != 0 || blk.term || blk.total != uint32(blk.ops[maxBlockSteps-1].cum) {
		t.Fatalf("end %d, term %v, total %d", blk.end, blk.term, blk.total)
	}
	for _, tc := range []struct{ name, src, label string }{
		{"counted loop", countedLoopSrc, "loop"},
		{"JMP-closed loop", jmpLoopSrc, "loop"},
		{"open-call loop", openCallSrc, "top"},
	} {
		c, at := compileAt(t, tc.src, tc.label)
		if n := testing.AllocsPerRun(20, func() { c.compileBlock(at, at) }); n != 2 {
			t.Errorf("compiling the %s makes %v allocations, want 2", tc.name, n)
		}
	}
}
