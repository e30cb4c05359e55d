package cpu

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// Edge-case and fault-path coverage for the executor.

func TestInInstruction(t *testing.T) {
	c, ex := run(t, `
.bits 64
	in rax, 0x11
	hlt
`)
	if ex.Reason != ExitIO || !ex.In || ex.Port != 0x11 || ex.Reg != isa.RAX {
		t.Fatalf("exit = %+v", ex)
	}
	// The VMM writes the result into the destination register.
	c.Regs[ex.Reg] = 0xBEEF
	ex2 := c.Run(10)
	wantHalt(t, ex2)
	if c.Regs[isa.RAX] != 0xBEEF {
		t.Fatal("IN result lost")
	}
}

func TestModNegativeOperands(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rax, -7
	movi rbx, 3
	mod rax, rbx
	movi rcx, 7
	movi rdx, -3
	mod rcx, rdx
	hlt
`)
	wantHalt(t, ex)
	// Go-style truncated semantics: -7 % 3 = -1, 7 % -3 = 1.
	if int64(c.Regs[isa.RAX]) != -1 || int64(c.Regs[isa.RCX]) != 1 {
		t.Fatalf("mod = %d, %d", int64(c.Regs[isa.RAX]), int64(c.Regs[isa.RCX]))
	}
}

func TestVariableShifts(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rax, 1
	movi rbx, 12
	shlv rax, rbx      ; 4096
	movi rcx, -64
	movi rdx, 3
	sarv rcx, rdx      ; -8
	movi rsi, 0x8000
	movi rdi, 15
	shrv rsi, rdi      ; 1
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RAX] != 4096 || int64(c.Regs[isa.RCX]) != -8 || c.Regs[isa.RSI] != 1 {
		t.Fatalf("shifts: %d %d %d", c.Regs[isa.RAX], int64(c.Regs[isa.RCX]), c.Regs[isa.RSI])
	}
}

func TestUnsignedBranches(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rax, 0
	movi rbx, -1       ; unsigned max
	cmp rbx, 1
	jb below           ; must NOT take: 0xFFFF.. > 1 unsigned
	or rax, 1
below:
	cmp rbx, 1
	jae above          ; must take
	jmp done
above:
	or rax, 2
done:
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RAX] != 3 {
		t.Fatalf("mask = %d, want 3", c.Regs[isa.RAX])
	}
}

func TestMemoryFaults(t *testing.T) {
	cases := []struct{ name, src string }{
		{"load beyond memory", `
.bits 64
	movi rbx, 0x10000000
	load rax, [rbx]
	hlt`},
		{"store beyond memory", `
.bits 64
	movi rbx, 0x10000000
	store [rbx], rax
	hlt`},
		{"byte load beyond memory", `
.bits 64
	movi rbx, 0x10000000
	loadb rax, [rbx]
	hlt`},
	}
	for _, tc := range cases {
		_, ex := run(t, tc.src)
		if ex.Reason != ExitFault {
			t.Errorf("%s: exit = %+v, want fault", tc.name, ex)
		}
	}
}

func TestPageFaultOnUnmappedHighAddress(t *testing.T) {
	// Long mode maps the first 1 GB; an access above that walks to a
	// non-present PDPT entry and faults.
	src := strings.Replace(bootToLongMode, `long:
	movi rax, 0x2A
	hlt`, `long:
	movi rbx, 0x40000000
	load rax, [rbx]
	hlt`, 1)
	_, ex := run(t, src)
	if ex.Reason != ExitFault || !strings.Contains(ex.Err.Error(), "not present") {
		t.Fatalf("exit = %+v, want page fault", ex)
	}
}

func TestHaltedCPUStaysHalted(t *testing.T) {
	c, ex := run(t, ".bits 64\n\thlt\n")
	wantHalt(t, ex)
	if ex2 := c.Step(); ex2.Reason != ExitHalt {
		t.Fatal("stepping a halted CPU should report halt")
	}
}

func TestEventDeltaEdgeCases(t *testing.T) {
	c, _ := run(t, bootToLongMode)
	if c.EventDelta(EvLjmp64, EvLgdt) != 0 {
		t.Fatal("reversed delta should be 0")
	}
	if c.EventDelta(EvLgdt, Event(NumEvents-1)) != 0 && c.Events[NumEvents-1] == 0 {
		t.Fatal("missing event delta should be 0")
	}
}

func TestNoTLBChargesEveryAccess(t *testing.T) {
	prog := strings.Replace(bootToLongMode, `	movi rax, 0x2A
	hlt`, `	movi rcx, 100
	movi rbx, 0x6000
tl:
	load rax, [rbx]
	dec rcx
	jnz tl
	hlt`, 1)
	cost := func(noTLB bool) uint64 {
		p, err := asm.Assemble(prog)
		if err != nil {
			t.Fatal(err)
		}
		mem := make([]byte, 2<<20)
		copy(mem[p.Origin:], p.Code)
		c := New(mem, cycles.NewClock(), p.Entry)
		c.NoTLB = noTLB
		if ex := c.Run(50_000_000); ex.Reason != ExitHalt {
			t.Fatalf("exit %+v", ex)
		}
		return c.Clock.Now()
	}
	with := cost(false)
	without := cost(true)
	if without <= with {
		t.Fatalf("NoTLB (%d) should cost more than TLB (%d)", without, with)
	}
}

func TestWriteIdentityTablesCoversFirstGB(t *testing.T) {
	mem := make([]byte, 1<<20)
	WriteIdentityTables(mem, DefaultTableBase)
	c := New(mem, cycles.NewClock(), 0)
	c.SetupLongMode()
	// Probe translations across the first GB (virtual == physical for
	// addresses within guest memory; walks succeed beyond it too).
	for _, va := range []uint64{0, 0x1000, 0x80000, 0xFFFFF} {
		pa, err := c.Translate(va, false)
		if err != nil {
			t.Fatalf("translate %#x: %v", va, err)
		}
		if pa != va {
			t.Fatalf("identity violated: %#x -> %#x", va, pa)
		}
	}
}

func TestRestoreClearsHalt(t *testing.T) {
	c, ex := run(t, ".bits 64\n\tmovi rax, 5\n\thlt\n")
	wantHalt(t, ex)
	st := c.Save()
	c.Restore(st)
	if c.Halted {
		t.Fatal("restore must clear the halt latch")
	}
}

func TestRealModeAddressWraps(t *testing.T) {
	// Real mode masks addresses to 20 bits.
	p, err := asm.Assemble(`
.bits 16
	movi rbx, 0x1234
	movi rax, 0x42
	storeb [rbx], rax
	loadb rcx, [rbx]
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	c := New(mem, cycles.NewClock(), p.Entry)
	if ex := c.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("exit %+v", ex)
	}
	if c.Regs[isa.RCX] != 0x42 {
		t.Fatal("real-mode store/load failed")
	}
}
