package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
)

// fuzzSeedBody generates one random-but-halting program body in the style
// of differential_test.go's corpus: ALU work, guarded divides, balanced
// stack traffic, word and byte memory traffic around a page boundary,
// compares and counters each branching forward on every condition, a
// patch of its own code, a counted store loop (random stride and
// counter, its base near a page boundary or the end of memory), and one
// bounded self-patching loop the trace engine compiles.
func fuzzSeedBody(rng *rand.Rand) string {
	regs := []string{"rax", "rbx", "rdx", "rsi", "rdi", "r8", "r9"}
	reg := func() string { return regs[rng.Intn(len(regs))] }
	body := "\tmovi rbp, 0x5F00\n"
	for _, r := range regs {
		body += fmt.Sprintf("\tmovi %s, %d\n", r, rng.Intn(1<<12))
	}
	for i, n := 0, 8+rng.Intn(16); i < n; i++ {
		switch rng.Intn(10) {
		case 0:
			body += fmt.Sprintf("\tadd %s, %s\n", reg(), reg())
		case 1:
			body += fmt.Sprintf("\tmul %s, %s\n", reg(), reg())
		case 2:
			r := reg()
			body += fmt.Sprintf("\tmovi %s, %d\n\tdiv %s, %s\n", r, 1+rng.Intn(9), reg(), r)
		case 3:
			body += fmt.Sprintf("\tshrv %s, %s\n", reg(), reg())
		case 4:
			r := reg()
			body += fmt.Sprintf("\tpush %s\n\tinc %s\n\tpop %s\n", r, r, r)
		case 5:
			body += fmt.Sprintf("\tstore [rbp+%d], %s\n", rng.Intn(512), reg())
		case 6:
			body += fmt.Sprintf("\tload %s, [rbp+%d]\n", reg(), rng.Intn(512))
		case 7:
			body += fmt.Sprintf("\tstoreb [rbp+%d], %s\n", rng.Intn(512), reg())
		case 8:
			body += fmt.Sprintf("\tloadb %s, [rbp+%d]\n", reg(), rng.Intn(512))
		case 9:
			// A flag-setter, then a branch over one instruction: taken it
			// leaves the trace, not taken it runs on inside it.
			for _, jcc := range []string{"jz", "jnz", "jl", "jg", "jle", "jge", "jb", "jae"} {
				switch rng.Intn(4) {
				case 0:
					body += fmt.Sprintf("\tcmp %s, %s\n", reg(), reg())
				case 1:
					body += fmt.Sprintf("\tcmpi %s, %d\n", reg(), rng.Intn(1<<12))
				case 2:
					body += fmt.Sprintf("\tinc %s\n", reg())
				case 3:
					body += fmt.Sprintf("\tdec %s\n", reg())
				}
				over := fmt.Sprintf("vx_seed_over%d", len(body)) // body only grows: unique
				body += fmt.Sprintf("\t%s %s\n\taddi %s, 1\n%s:\n", jcc, over, reg(), over)
			}
		}
	}
	base := 0x5FC0 + rng.Intn(64) // climbs across a page boundary
	if rng.Intn(4) == 0 {
		base = 0x3FF00 + rng.Intn(128) // walks off the fuzz target's 256 KiB (0xFF00 in real mode: wraps)
	}
	strides := []int{0, 2, 4, 8, 12, 4096, -8}
	body += fmt.Sprintf(`	movi rdi, %d
	movi rcx, %d
vx_seed_fill:
	store [rdi+%d], rcx
	store [rdi], rax
	add rdi, %d
	dec rcx
	jnz vx_seed_fill
`, base, 3+rng.Intn(200), rng.Intn(16), strides[rng.Intn(len(strides))])
	return body + fmt.Sprintf(`	movi rcx, %d
vx_seed_loop:
vx_seed_patch:
	movi rbx, 7
	add rax, rbx
	store [rbp+%d], rax
	movi rdi, vx_seed_patch
	storeb [rdi+2], rcx
	dec rcx
	jnz vx_seed_loop
	hlt
`, 3+rng.Intn(20), rng.Intn(512))
}

// FuzzEngineDifferential is the hostile-guest check on the engine seam:
// arbitrary bytes at 0x8000, entered in each start mode under a step
// budget, must leave three engines in the same state — the test-only
// reference interpreter (reference_test.go), Step (Legacy) and the traces:
// exit and error text, registers, flags, IP, memory, clock, Retired and the
// dirty-page set — after every exit, and none may panic.
func FuzzEngineDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		body := fuzzSeedBody(rng)
		for _, src := range []string{
			".bits 16\n.org 0x8000\n_start:\n" + body,
			guest.WrapProtected(body),
			guest.WrapLongMode(body),
		} {
			f.Add(guest.MustFromAsm("seed", src).Code)
		}
	}
	for _, src := range []string{bootToLongMode, ".org 0x8000\n" + fibSrc, ".org 0x8000\n" + smcSrc} {
		p, err := asm.Assemble(src)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Code)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		const (
			memBytes = 256 << 10
			origin   = 0x8000
			budget   = 20000
		)
		mem := make([]byte, memBytes)
		copy(mem[origin:], code)
		for _, mode := range []isa.Mode{isa.Mode16, isa.Mode32, isa.Mode64} {
			jit := startCPU(mem, origin, mode, false)
			leg := startCPU(mem, origin, mode, true)
			ref := startCPU(mem, origin, mode, true)
			// Resume past a few port exits so a hypercall early in the
			// bytes does not end the comparison.
			for exits := 0; exits < 4; exits++ {
				j, l := finish(jit, budget), finish(leg, budget)
				r := engineRun{name: "reference", c: ref, ex: ref.refRun(budget), cy: ref.Clock.Now()}
				for _, d := range []string{diffEngines(r, l), diffEngines(l, j)} {
					if d != "" {
						t.Fatalf("start mode %v, exit %d: %s", mode, exits, d)
					}
				}
				if j.ex.Reason != ExitIO {
					break
				}
			}
		}
	})
}
