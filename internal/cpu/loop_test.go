package cpu

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/isa"
)

// loopCase is one counted-store-loop program and how to run it.
type loopCase struct {
	name   string
	src    string
	mem    int
	budget uint64
	prep   func(*CPU)
	// adopt runs the trace engine on a CPU that adopted a donor's compiled
	// pages, so the kernel is live from the loop's first entry (and, in
	// Mode32, before the ident-map latch is set).
	adopt bool
}

// runLoopCase runs tc under both engines and returns the trace engine's
// run after requiring bit-exact agreement with Legacy.
func runLoopCase(t *testing.T, tc loopCase) engineRun {
	t.Helper()
	p, err := asm.Assemble(tc.src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", tc.name, err, tc.src)
	}
	mem := make([]byte, tc.mem)
	copy(mem[p.Origin:], p.Code)
	start := func(legacy bool) *CPU {
		c := startCPU(mem, p.Entry, p.StartMode, legacy)
		if tc.prep != nil {
			tc.prep(c)
		}
		return c
	}
	jit, leg := start(false), start(true)
	if tc.adopt {
		donor := start(false)
		donor.Run(tc.budget)
		jit.AdoptCode(donor.ShareCode())
	}
	j, l := finish(jit, tc.budget), finish(leg, tc.budget)
	if d := diffEngines(j, l); d != "" {
		t.Fatalf("%s (budget %d, adopt %v): %s\n%s", tc.name, tc.budget, tc.adopt, d, tc.src)
	}
	return j
}

// loopTail reads the flags the loop's last DEC left.
const loopTail = `
	jb vx_t1
	add r9, 1
vx_t1:
	jl vx_t2
	add r9, 2
vx_t2:
	hlt
`

// The named corners, each required to reach the kernel: page, memory and
// 2 MiB boundaries, the loop's own code page, the counter and a stepped
// register as store sources, overlapping stores, huge and negative
// strides, the Mode32 gates, and every counter class.
func TestLoopKernelMatchesStepDirected(t *testing.T) {
	prog := func(bits int, org uint64, setup, body string) string {
		return fmt.Sprintf(".bits %d\n.org %#x\n%svx_loop:\n%s\tdec rcx\n\tjnz vx_loop\n%s", bits, org, setup, body, loopTail)
	}
	set := func(kv ...any) string {
		s := ""
		for i := 0; i < len(kv); i += 2 {
			s += fmt.Sprintf("\tmovi %s, %#x\n", kv[i], kv[i+1])
		}
		return s
	}
	noGDT := func(c *CPU) { c.GDTLimit = 0 }
	for _, tc := range []struct {
		loopCase
		minLoop uint64 // instructions the kernel must retire
		fault   string
		deopt   bool // the stream overwrites the loop itself: any exit, but it must deoptimize
	}{
		{loopCase: loopCase{name: "page crossing, clean pages", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 0x5F00, "rcx", 2000, "rax", 7), "\tstore [rdi], rax\n\tadd rdi, 4\n")}, minLoop: 5000},
		{loopCase: loopCase{name: "straddling stores", mem: 1 << 20,
			src: prog(64, 0x8000, set("rdi", 0x5FF9, "rcx", 3000, "rax", 7), "\tstore [rdi], rax\n\tadd rdi, 3\n")}, minLoop: 5000},
		{loopCase: loopCase{name: "counter and stepped register as sources, overlapping", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 0x6000, "rcx", 900, "rax", 1, "rbx", 0x10001),
				"\tstore [rdi], rcx\n\tstore [rdi+2], rax\n\tstore [rcx+0x7000], rdi\n\tadd rax, rbx\n\tstore [rdi+1], rax\n\tadd rdi, 6\n")}, minLoop: 5000},
		{loopCase: loopCase{name: "walks off the end of memory", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 1<<20-4096, "rcx", 5000, "rax", 7), "\tstore [rdi], rax\n\tadd rdi, 4\n")},
			minLoop: 3000, fault: "store beyond memory"},
		{loopCase: loopCase{name: "mode16 walks off the end of memory", mem: 0xC000,
			src: prog(16, 0x2000, set("rdi", 0xB000, "rcx", 5000, "rax", 7), "\tstore [rdi], rax\n\tadd rdi, 2\n")},
			minLoop: 3000, fault: "store beyond memory"},
		{loopCase: loopCase{name: "mode16 wraps at 64K", mem: 1 << 20,
			src: prog(16, 0x2000, set("rdi", 0xF000, "rcx", 0x3000, "rax", 7), "\tstore [rdi], rax\n\tadd rdi, 2\n")},
			minLoop: 6000, deopt: true}, // wraps to 0 and runs up into its own code
		{loopCase: loopCase{name: "crosses a 2 MiB boundary", mem: 4 << 20,
			src: prog(64, 0x8000, set("rdi", 2<<20-4096, "rcx", 1500, "rax", 7), "\tstore [rdi], rax\n\tadd rdi, 8\n")}, minLoop: 3000},
		{loopCase: loopCase{name: "runs into its own code page", mem: 1 << 20,
			src: prog(64, 0x8000, set("rdi", 0x7000, "rcx", 600, "rax", 0), "\tstore [rdi], rax\n\tadd rdi, 8\n")},
			minLoop: 1000, deopt: true}, // the zeroes it wrote decode as NOPs and it keeps going
		{loopCase: loopCase{name: "negative stride down to zero and below", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 0x2000, "rcx", 5000, "rax", 7), "\tstore [rdi], rax\n\tsub rdi, 4\n")},
			minLoop: 3000, fault: "store beyond memory"},
		{loopCase: loopCase{name: "stride of two pages, register SUB", mem: 1 << 20,
			src: prog(64, 0x8000, set("rdi", 0xF0000, "rcx", 100, "rax", 7, "rbx", 0x2000), "\tstore [rdi], rax\n\tsub rdi, rbx\n")}, minLoop: 150},
		{loopCase: loopCase{name: "stride zero", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 0x6000, "rcx", 3000), "\tstore [rdi], rcx\n")}, minLoop: 5000},
		{loopCase: loopCase{name: "counter zero runs to the budget", mem: 1 << 20, budget: 20000,
			src: prog(64, 0x8000, set("rdi", 0x6000, "rcx", 0), "\tstore [rdi], rcx\n")}, minLoop: 15000, fault: "budget"},
		{loopCase: loopCase{name: "mode16 counter zero is 65536 iterations", mem: 1 << 20,
			src: prog(16, 0x2000, set("rdi", 0x6000, "rcx", 0), "\tstore [rdi], rcx\n")}, minLoop: 190000},
		{loopCase: loopCase{name: "counter one", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 0x6000, "rcx", 1), "\tstore [rdi], rcx\n")}},
		{loopCase: loopCase{name: "counter two", mem: 1 << 20,
			src: prog(32, 0x8000, set("rdi", 0x6000, "rcx", 2), "\tstore [rdi], rcx\n")}},
		// Without a GDT not even the fetch translates; the kernel's own GDT
		// gate mirrors fastStore32's and is as unreachable through Run.
		{loopCase: loopCase{name: "mode32 without a GDT", mem: 1 << 20, prep: noGDT,
			src: prog(32, 0x8000, set("rdi", 0x6000, "rcx", 100), "\tadd rdi, 4\n\tstore [rdi], rcx\n")}, fault: "no GDT"},
		// A special before the head ends the preceding trace there, so the
		// adopter enters the head trace — kernel first — with the latch unset.
		{loopCase: loopCase{name: "mode32 latch unset on an adopting CPU", mem: 1 << 20, adopt: true,
			src: prog(32, 0x8000, set("rdi", 0x6000, "rcx", 1000)+"\trdcr r10, cr0\n", "\tadd rdi, 4\n\tstore [rdi], rcx\n")}, minLoop: 3000},
		// The loop's own page begins (ends) exactly where the stream's
		// straddling store lands: the word's far bytes rewrite the head
		// (the JNZ), so a clamp that let the kernel take that store would
		// leave the stale trace running.
		{loopCase: loopCase{name: "straddles up into the head of its own loop", mem: 1 << 20, src: `
.bits 64
.org 0x8000
	movi rdi, 0x9F00
	movi rcx, 200
	movi rax, 0
	jmp vx_loop
.align 4096
.zero 4096
vx_loop:
	store [rdi], rax
	add rdi, 3
	dec rcx
	jnz vx_loop
` + loopTail}, minLoop: 200, deopt: true},
		{loopCase: loopCase{name: "straddles down into the tail of its own loop", mem: 1 << 20, src: `
.bits 64
.org 0x8000
	movi rdi, 0xA100
	movi rcx, 200
	movi rax, 0x0101010101010101
	jmp vx_loop
.align 4096
.zero 4065
vx_loop:
	store [rdi], rax
	sub rdi, 3
	dec rcx
	jnz vx_loop
vx_next_page:
	hlt
`}, minLoop: 200, deopt: true},
		{loopCase: loopCase{name: "two streams in different 2 MiB pages miss the one-entry TLB", mem: 4 << 20,
			src: prog(64, 0x8000, set("rdi", 0x6000, "rcx", 300, "rax", 0), "\tstore [rdi], rax\n\tstore [rdi+0x200000], rax\n\tadd rdi, 8\n")}},
	} {
		if tc.budget == 0 {
			tc.budget = 1_000_000
		}
		r := runLoopCase(t, tc.loopCase)
		switch {
		case tc.fault != "" && (r.ex.Reason != ExitFault || !strings.Contains(r.ex.Err.Error(), tc.fault)):
			t.Errorf("%s: exit %+v, want a %q fault", tc.name, r.ex, tc.fault)
		case tc.fault == "" && !tc.deopt && r.ex.Reason != ExitHalt:
			t.Errorf("%s: exit %+v, want halt", tc.name, r.ex)
		}
		if r.c.Stats.LoopRetired < tc.minLoop || (tc.minLoop == 0 && r.c.Stats.LoopRetired != 0) {
			t.Errorf("%s: kernel retired %d of %d instructions, want at least %d (and none when 0)",
				tc.name, r.c.Stats.LoopRetired, r.c.Retired, tc.minLoop)
		}
		if tc.deopt && r.c.Stats.BlockDeopts == 0 {
			t.Errorf("%s: the store into the loop's own page never deoptimized: %+v", tc.name, r.c.Stats)
		}
	}
}

// randomLoop builds one seeded affine loop for the given mode: random
// body, strides (0, small, ≥ 4096, negative), counter class, store
// sources, and bases aimed at a page boundary, the end of memory, the
// 2 MiB boundary, the loop's own code page or open data. One body in ten
// breaks the shape (a stepped source, the counter as an ALU operand or
// destination), so
// the recogniser's refusals are exercised too.
func randomLoop(rng *rand.Rand, mode isa.Mode) loopCase {
	tc := loopCase{mem: 1 << 20, budget: 30_000}
	org, top := uint64(0x8000), uint64(1<<20)
	switch mode {
	case isa.Mode16:
		org, tc.mem, top = 0x2000, 0xC000, 0xC000
	case isa.Mode64:
		tc.mem, top = 4<<20, 4<<20
	}
	pick := func(v ...uint64) uint64 { return v[rng.Intn(len(v))] }
	stride := func() uint64 {
		return pick(0, 1, 2, 4, 8, uint64(1+rng.Intn(16)), 4096, 4100, 8192, uint64(rng.Intn(1<<14)))
	}
	anchor := func() uint64 {
		near := int64(rng.Intn(96)) - 64
		switch rng.Intn(12) { // the code-page anchors are rare: every store there re-decodes the page
		case 0:
			return uint64(int64(0x6000) + near)
		case 1:
			return uint64(int64(top) + near)
		case 2:
			if mode == isa.Mode64 {
				return uint64(int64(2<<20) + near)
			}
		case 3:
			return uint64(int64(org) - 64 + near) // climbs into the code page
		case 4:
			return uint64(int64(org) + 0x1000 + near) // descends into it
		}
		return uint64(0x4000 + rng.Intn(0x3000))
	}
	stepped := []string{"rdi", "rsi", "rax"}
	fixed := []string{"rbx", "rdx", "r8"}
	all := append(append([]string{"rcx"}, stepped...), fixed...)
	from := func(s []string) string { return s[rng.Intn(len(s))] }

	src := fmt.Sprintf(".bits %d\n.org %#x\n", mode.Width()*8, org)
	for _, r := range stepped {
		src += fmt.Sprintf("\tmovi %s, %#x\n", r, anchor())
	}
	for _, r := range fixed {
		v := stride()
		if rng.Intn(4) == 0 {
			v = -v
		}
		src += fmt.Sprintf("\tmovi %s, %d\n", r, int64(v))
	}
	special := ""
	if rng.Intn(3) == 0 {
		special = "\trdcr r10, cr0\n" // Step's: the head trace is entered directly
	}
	src += fmt.Sprintf("\tmovi rcx, %d\n%svx_loop:\n", pick(0, 1, 2, 3, uint64(rng.Intn(40)), uint64(rng.Intn(3000)), 5000), special)
	stores := 0
	for i, n := 0, 1+rng.Intn(6); i < n || stores == 0; i++ {
		disp := int64(rng.Intn(24)) - 8
		switch op := rng.Intn(8); {
		case op < 3 || (i >= n && stores == 0):
			base := from(stepped)
			if rng.Intn(8) == 0 {
				base, disp = from(all), int64(0x4000+rng.Intn(0x2000))
			}
			src += fmt.Sprintf("\tstore [%s%+d], %s\n", base, disp, from(all))
			stores++
		case op == 3:
			s := from(fixed)
			if rng.Intn(10) == 0 {
				s = from(all[:4]) // not affine: the kernel must refuse
			}
			src += fmt.Sprintf("\tadd %s, %s\n", from(stepped), s)
		case op == 4:
			src += fmt.Sprintf("\tsub %s, %s\n", from(stepped), from(fixed))
		default:
			dst := from(stepped)
			if rng.Intn(12) == 0 {
				dst = "rcx" // a second writer of the counter: refuse
			}
			src += fmt.Sprintf("\t%s %s, %d\n", from([]string{"add", "sub"}), dst, stride())
		}
	}
	tc.src = src + "\tdec rcx\n\tjnz vx_loop\n" + loopTail
	if rng.Intn(2) == 0 {
		tc.budget = 1 + uint64(rng.Intn(6000))
	}
	tc.adopt = rng.Intn(3) == 0
	if mode == isa.Mode32 && rng.Intn(12) == 0 {
		tc.prep = func(c *CPU) { c.GDTLimit = 0 }
	}
	return tc
}

// The kernel's oracle: seeded random affine loops through both engines in
// all three modes. Every run must agree with Legacy on exit, registers,
// flags, IP, memory, clock, Retired, events and the dirty set; half run
// under a random budget, so TestBudgetSweepParity's property — the budget
// fault lands on the instruction Step puts it on — holds mid-kernel.
func TestLoopKernelMatchesStep(t *testing.T) {
	cases := 250
	if testing.Short() {
		cases = 60
	}
	for _, mode := range []isa.Mode{isa.Mode16, isa.Mode32, isa.Mode64} {
		rng := rand.New(rand.NewSource(16 + int64(mode)))
		var kernel, faults, budgets, deopts int
		for i := 0; i < cases; i++ {
			tc := randomLoop(rng, mode)
			tc.name = fmt.Sprintf("%v case %d", mode, i)
			r := runLoopCase(t, tc)
			if r.c.Stats.LoopRetired == 0 {
				continue
			}
			kernel++
			if r.ex.Reason == ExitFault {
				if strings.Contains(r.ex.Err.Error(), "budget") {
					budgets++
				} else {
					faults++
				}
			}
			if r.c.Stats.BlockDeopts > 0 {
				deopts++
			}
		}
		t.Logf("%v: kernel ran in %d of %d cases (%d then faulted, %d hit the budget, %d deoptimized)",
			mode, kernel, cases, faults, budgets, deopts)
		if kernel < cases/4 || faults == 0 || budgets == 0 || deopts == 0 {
			t.Errorf("%v: the corpus does not exercise the kernel: %d/%d ran it, %d faults, %d budget stops, %d deopts",
				mode, kernel, cases, faults, budgets, deopts)
		}
	}
}

// bootMinimal boots guest.MinimalHalt under Legacy, or on the trace engine
// over cc's frozen pages (as a pooled shell adopts them from Wasp's
// registry).
func bootMinimal(cc CodeCache, legacy bool) engineRun {
	im := guest.MinimalHalt()
	mem := make([]byte, im.MemBytes())
	copy(mem[im.Origin:], im.Code)
	c := startCPU(mem, im.Entry, im.Mode, legacy)
	c.AdoptCode(cc)
	return finish(c, 1<<20)
}

// warmBootCache boots twice and freezes the pages: the first boot compiles
// the loops (on their second iteration), the second the straight-line
// traces around them, which only look hot once their marks arrive adopted.
func warmBootCache(t *testing.T) CodeCache {
	t.Helper()
	var cc CodeCache
	for i := 0; i < 2; i++ {
		r := bootMinimal(cc, false)
		wantHalt(t, r.ex)
		cc = cc.Merge(r.c.ShareCode())
	}
	return cc
}

// A warm boot retires nearly all of vx_pdloop and vx_zloop (8,192
// instructions) in the kernel — everything but each loop's first
// iterations, which run inside the preceding trace, and its last, which is
// always the closures' — and ends where Legacy does: boot events, clock,
// Retired, registers, memory and dirty set.
func TestBootLoopsRetireInKernel(t *testing.T) {
	cc := warmBootCache(t)
	jit, leg := bootMinimal(cc, false), bootMinimal(CodeCache{}, true)
	wantHalt(t, jit.ex)
	if d := diffEngines(jit, leg); d != "" {
		t.Fatal(d)
	}
	if jit.c.Events[EvIdentMapStart] == 0 || jit.c.Events[EvFirstInstr64] == 0 {
		t.Fatalf("boot events missing: %v", jit.c.Events)
	}
	if got := jit.c.Stats.LoopRetired; got < 8000 || got > 8192 {
		t.Fatalf("kernel retired %d instructions of the two loops' 8192 (total %d), want at least 8000", got, jit.c.Retired)
	}
	if jit.c.Stats.BlocksCompiled != 0 {
		t.Fatalf("warm boot compiled %d traces", jit.c.Stats.BlocksCompiled)
	}
}

// Sixteen CPUs adopt one image's frozen pages and run the same kernel
// trace at once (under -race in CI): the kernel hangs off the shared
// cblock and must keep every per-run value to itself.
func TestLoopKernelSharedAcrossCPUs(t *testing.T) {
	cc := warmBootCache(t)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jit, leg := bootMinimal(cc, false), bootMinimal(CodeCache{}, true)
			if d := diffEngines(jit, leg); d != "" {
				t.Error(d)
			}
			if jit.c.Stats.LoopRetired < 8000 {
				t.Errorf("kernel retired %d instructions, want at least 8000", jit.c.Stats.LoopRetired)
			}
		}()
	}
	wg.Wait()
}
