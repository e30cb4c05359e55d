package cpu

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// run assembles src, loads it into a fresh 2 MB guest, and executes until
// the first exit.
func run(t *testing.T, src string) (*CPU, *Exit) {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 2<<20)
	copy(mem[p.Origin:], p.Code)
	c := New(mem, cycles.NewClock(), p.Entry)
	switch p.StartMode {
	case isa.Mode32:
		c.SetupProtected()
	case isa.Mode64:
		c.SetupLongMode()
	}
	ex := c.Run(50_000_000)
	return c, ex
}

func wantHalt(t *testing.T, ex *Exit) {
	t.Helper()
	if ex.Reason != ExitHalt {
		t.Fatalf("exit = %+v, want halt", ex)
	}
}

func TestArithmetic(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rax, 10
	movi rbx, 3
	mov rcx, rax
	add rcx, rbx    ; 13
	sub rax, rbx    ; 7
	mul rax, rbx    ; 21
	movi rdx, 21
	div rdx, rbx    ; 7
	movi rsi, 22
	mod rsi, rbx    ; 1
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RCX] != 13 || c.Regs[isa.RAX] != 21 || c.Regs[isa.RDX] != 7 || c.Regs[isa.RSI] != 1 {
		t.Fatalf("regs: rcx=%d rax=%d rdx=%d rsi=%d", c.Regs[isa.RCX], c.Regs[isa.RAX], c.Regs[isa.RDX], c.Regs[isa.RSI])
	}
}

func TestLogicAndShifts(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rax, 0xF0
	and rax, 0x3C    ; 0x30
	movi rbx, 1
	shl rbx, 8       ; 256
	movi rcx, 0x100
	shr rcx, 4       ; 16
	movi rdx, -16
	sar rdx, 2       ; -4
	movi rsi, 5
	neg rsi          ; -5
	movi rdi, 0
	not rdi          ; all ones
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RAX] != 0x30 || c.Regs[isa.RBX] != 256 || c.Regs[isa.RCX] != 16 {
		t.Fatal("and/shl/shr wrong")
	}
	if int64(c.Regs[isa.RDX]) != -4 || int64(c.Regs[isa.RSI]) != -5 {
		t.Fatalf("sar/neg wrong: %d %d", int64(c.Regs[isa.RDX]), int64(c.Regs[isa.RSI]))
	}
	if c.Regs[isa.RDI] != ^uint64(0) {
		t.Fatal("not wrong")
	}
}

func TestConditionalJumps(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rax, 0      ; result bitmask of taken branches
	movi rbx, 5
	cmp rbx, 5
	jz eq
	jmp fail
eq:
	or rax, 1
	cmp rbx, 7
	jl lt
	jmp fail
lt:
	or rax, 2
	movi rcx, -1
	cmp rcx, 1
	jl slt           ; signed: -1 < 1
	jmp fail
slt:
	or rax, 4
	cmp rcx, 1
	jae uge          ; unsigned: 0xFFFF.. >= 1
	jmp fail
uge:
	or rax, 8
	hlt
fail:
	movi rax, -1
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RAX] != 15 {
		t.Fatalf("branch mask = %d, want 15", c.Regs[isa.RAX])
	}
}

func TestCallRetAndStack(t *testing.T) {
	c, ex := run(t, `
.bits 64
_start:
	movi rdi, 20
	call double
	hlt
double:
	push rbx
	mov rbx, rdi
	add rbx, rdi
	mov rax, rbx
	pop rbx
	ret
`)
	wantHalt(t, ex)
	if c.Regs[isa.RAX] != 40 {
		t.Fatalf("double(20) = %d", c.Regs[isa.RAX])
	}
	if c.Regs[isa.RSP] != uint64(len(c.Mem)) {
		t.Fatal("stack imbalanced")
	}
}

func TestFib16BitRealMode(t *testing.T) {
	// Recursive fib in real mode — the paper's Fig 3 microbenchmark.
	c, ex := run(t, fibAsm("16", 10))
	wantHalt(t, ex)
	if c.Regs[isa.RAX]&0xFFFF != 55 {
		t.Fatalf("fib(10) = %d, want 55", c.Regs[isa.RAX]&0xFFFF)
	}
}

// fibAsm builds the recursive fib benchmark at the given bit width.
func fibAsm(bits string, n int) string {
	return `
.bits ` + bits + `
_start:
	movi rdi, ` + itoa(n) + `
	call fib
	hlt
fib:
	cmp rdi, 2
	jge rec
	mov rax, rdi
	ret
rec:
	push rdi
	sub rdi, 1
	call fib
	pop rdi
	push rax
	sub rdi, 2
	call fib
	pop rbx
	add rax, rbx
	ret
`
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestMemoryLoadStore(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rbx, 0x100000
	movi rax, 0x1122334455667788
	store [rbx], rax
	load rcx, [rbx]
	loadb rdx, [rbx+1]   ; second byte, 0x77
	movi rsi, 0xFF
	storeb [rbx+2], rsi
	loadb rdi, [rbx+2]
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RCX] != 0x1122334455667788 {
		t.Fatalf("load = %#x", c.Regs[isa.RCX])
	}
	if c.Regs[isa.RDX] != 0x77 {
		t.Fatalf("loadb = %#x", c.Regs[isa.RDX])
	}
	if c.Regs[isa.RDI] != 0xFF {
		t.Fatalf("storeb/loadb = %#x", c.Regs[isa.RDI])
	}
}

func TestHypercallExit(t *testing.T) {
	c, ex := run(t, `
.bits 64
	movi rdi, 1234
	out 0x07, rdi
	hlt
`)
	if ex.Reason != ExitIO {
		t.Fatalf("exit = %+v, want IO", ex)
	}
	if ex.Port != 0x07 || ex.Reg != isa.RDI {
		t.Fatalf("port=%#x reg=%v", ex.Port, ex.Reg)
	}
	if c.Regs[ex.Reg] != 1234 {
		t.Fatal("hypercall value wrong")
	}
	// Resume: the VMM would service the call, then continue.
	ex2 := c.Run(100)
	wantHalt(t, ex2)
}

func TestDivideByZeroFaults(t *testing.T) {
	_, ex := run(t, `
.bits 64
	movi rax, 1
	movi rbx, 0
	div rax, rbx
	hlt
`)
	if ex.Reason != ExitFault {
		t.Fatalf("exit = %+v, want fault", ex)
	}
}

func TestRunawayGuestFaults(t *testing.T) {
	p, err := asm.Assemble(".bits 64\nloop:\n\tjmp loop\n")
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	c := New(mem, cycles.NewClock(), p.Entry)
	c.SetupLongMode()
	ex := c.Run(1000)
	if ex.Reason != ExitFault || !strings.Contains(ex.Err.Error(), "budget") {
		t.Fatalf("exit = %+v, want budget fault", ex)
	}
}

func TestLongModeRequiresSetup(t *testing.T) {
	// Jumping to 64-bit code without long mode active must fault.
	_, ex := run(t, `
.bits 16
	ljmp64 nowhere
nowhere:
	hlt
`)
	if ex.Reason != ExitFault {
		t.Fatalf("exit = %+v, want fault", ex)
	}
}

func TestProtectedModeRequiresPE(t *testing.T) {
	_, ex := run(t, `
.bits 16
	ljmp32 x
x:
	hlt
`)
	if ex.Reason != ExitFault {
		t.Fatal("ljmp32 without CR0.PE must fault")
	}
}

func TestLongModeRequiresPAE(t *testing.T) {
	_, ex := run(t, `
.bits 16
	lgdt gdt_desc
	rdcr rax, efer
	or rax, 0x100
	movcr efer, rax
	rdcr rax, cr0
	or rax, 1
	movcr cr0, rax
	ljmp32 prot
.bits 32
prot:
	rdcr rax, cr0
	movi rbx, 0x80000000
	or rax, rbx
	movcr cr0, rax   ; PG with LME but no PAE: fault
	hlt
.align 8
gdt:
	.dq 0
	.dq 0x00CF9A000000FFFF
gdt_desc:
	.dw 15
	.dq gdt
`)
	if ex.Reason != ExitFault || !strings.Contains(ex.Err.Error(), "PAE") {
		t.Fatalf("exit = %+v, want PAE fault", ex)
	}
}

// bootToLongMode is the minimal boot sequence from §4.2: real mode →
// lgdt → protected mode → build identity-mapped page tables (2MB pages,
// first 1 GB, three 4 KiB tables = 12 KiB of stores) → long mode.
const bootToLongMode = `
.bits 16
.org 0x8000
_start:
	cli
	lgdt gdt_desc
	rdcr rax, cr0
	or rax, 1
	movcr cr0, rax
	ljmp32 prot

.bits 32
prot:
	; fill the page directory at 0x3000: 512 entries mapping 2MB pages
	movi rdi, 0x3000
	movi rcx, 512
	movi rax, 0x83        ; addr 0 | PS | W | P
	movi rbx, 0
	movi rdx, 0x200000
pdloop:
	store [rdi], rax
	store [rdi+4], rbx
	add rax, rdx
	add rdi, 8
	dec rcx
	jnz pdloop
	; zero PML4 (0x1000) and PDPT (0x2000): 1024 entries
	movi rdi, 0x1000
	movi rcx, 1024
zloop:
	store [rdi], rbx
	store [rdi+4], rbx
	add rdi, 8
	dec rcx
	jnz zloop
	; PML4[0] -> PDPT, PDPT[0] -> PD
	movi rdi, 0x1000
	movi rax, 0x2003
	store [rdi], rax
	movi rdi, 0x2000
	movi rax, 0x3003
	store [rdi], rax
	; load cr3
	movi rax, 0x1000
	movcr cr3, rax
	; CR4.PAE
	rdcr rax, cr4
	or rax, 0x20
	movcr cr4, rax
	; EFER.LME
	rdcr rax, efer
	or rax, 0x100
	movcr efer, rax
	; CR0.PG
	rdcr rax, cr0
	movi rbx, 0x80000000
	or rax, rbx
	movcr cr0, rax
	lgdt gdt_desc
	ljmp64 long

.bits 64
long:
	movi rax, 0x2A
	hlt

.align 8
gdt:
	.dq 0
	.dq 0x00CF9A000000FFFF
	.dq 0x00AF9A000000FFFF
gdt_desc:
	.dw 23
	.dq gdt
`

func TestBootToLongMode(t *testing.T) {
	c, ex := run(t, bootToLongMode)
	wantHalt(t, ex)
	if c.Mode != isa.Mode64 {
		t.Fatalf("mode = %v, want long", c.Mode)
	}
	if c.Regs[isa.RAX] != 0x2A {
		t.Fatalf("rax = %#x", c.Regs[isa.RAX])
	}
	if c.EFER&isa.EFERLMA == 0 {
		t.Fatal("LMA not set")
	}
	// Every milestone must have been recorded.
	for _, e := range []Event{EvLgdt, EvProtected, EvLjmp32, EvLongActive, EvLjmp64, EvFirstInstr64, EvCR3Load, EvIdentMapStart} {
		if c.Events[e] == 0 {
			t.Fatalf("event %v not recorded", e)
		}
	}
	// Milestones must be ordered.
	order := []Event{EvLgdt, EvProtected, EvLjmp32, EvIdentMapStart, EvCR3Load, EvLongActive, EvLjmp64, EvFirstInstr64}
	for i := 1; i < len(order); i++ {
		if c.Events[order[i]] < c.Events[order[i-1]] {
			t.Fatalf("event %v (%d) before %v (%d)", order[i], c.Events[order[i]], order[i-1], c.Events[order[i-1]])
		}
	}
}

func TestBootBreakdownMatchesTable1(t *testing.T) {
	c, ex := run(t, bootToLongMode)
	wantHalt(t, ex)
	// Identity mapping should dominate at roughly 28 K cycles (Table 1:
	// 28109). Our executed loop lands within 15%.
	ident := c.EventDelta(EvIdentMapStart, EvCR3Load)
	if ident < 24_000 || ident > 33_000 {
		t.Fatalf("ident-map = %d cycles, want ≈28K", ident)
	}
	// Total boot should be under 100K cycles but above the ident map.
	boot := c.Events[EvFirstInstr64]
	if boot < ident || boot > 100_000 {
		t.Fatalf("boot = %d cycles", boot)
	}
}

func TestLongModePagingTranslates(t *testing.T) {
	// After boot, long-mode loads/stores go through the guest-built page
	// tables; addresses beyond the mapped 1 GB fault.
	src := strings.Replace(bootToLongMode, `long:
	movi rax, 0x2A
	hlt`, `long:
	movi rbx, 0x1F0000
	movi rax, 0x5A
	store [rbx], rax
	load rcx, [rbx]
	hlt`, 1)
	c, ex := run(t, src)
	wantHalt(t, ex)
	if c.Regs[isa.RCX] != 0x5A {
		t.Fatalf("paged load = %#x", c.Regs[isa.RCX])
	}
	if c.TLBSize() == 0 {
		t.Fatal("TLB should have cached translations")
	}
}

func TestSaveRestore(t *testing.T) {
	c, ex := run(t, bootToLongMode)
	wantHalt(t, ex)
	st := c.Save()
	c2 := New(c.Mem, cycles.NewClock(), 0)
	c2.Restore(st)
	if c2.Mode != isa.Mode64 || c2.Regs[isa.RAX] != 0x2A || c2.CR3 != c.CR3 {
		t.Fatal("restore did not reinstate state")
	}
	if c2.Halted {
		t.Fatal("restore must clear halt")
	}
}

func TestWidth16Wraps(t *testing.T) {
	c, ex := run(t, `
.bits 16
	movi rax, 0x7FFF
	add rax, 1
	hlt
`)
	wantHalt(t, ex)
	if c.Regs[isa.RAX] != 0x8000 {
		t.Fatalf("rax = %#x", c.Regs[isa.RAX])
	}
	if !c.Flags.OF {
		t.Fatal("16-bit signed overflow should set OF")
	}
}

func TestClockAdvances(t *testing.T) {
	c, ex := run(t, ".bits 64\n\tnop\n\tnop\n\thlt\n")
	wantHalt(t, ex)
	if c.Clock.Now() == 0 {
		t.Fatal("clock did not advance")
	}
	if c.Retired != 3 {
		t.Fatalf("retired = %d, want 3", c.Retired)
	}
}

func TestModeCostOrdering(t *testing.T) {
	// Fig 3's structural claim: the cost to reach and run a workload is
	// 16-bit < 32-bit ≈ 64-bit, because protected/long setup dominates.
	cost := func(src string) uint64 {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		mem := make([]byte, 2<<20)
		copy(mem[p.Origin:], p.Code)
		c := New(mem, cycles.NewClock(), p.Entry)
		if p.StartMode == isa.Mode64 {
			c.SetupLongMode()
		}
		if ex := c.Run(50_000_000); ex.Reason != ExitHalt {
			t.Fatalf("exit %+v", ex)
		}
		return c.Clock.Now()
	}
	real16 := cost(fibAsm("16", 15))
	long64 := cost(strings.Replace(bootToLongMode, `	movi rax, 0x2A
	hlt`, fibBody(15), 1))
	if real16 >= long64 {
		t.Fatalf("real-mode fib (%d) should be cheaper than long-mode boot+fib (%d)", real16, long64)
	}
}

func fibBody(n int) string {
	return `	movi rdi, ` + itoa(n) + `
	call fib
	hlt
fib:
	cmp rdi, 2
	jge fibrec
	mov rax, rdi
	ret
fibrec:
	push rdi
	sub rdi, 1
	call fib
	pop rdi
	push rax
	sub rdi, 2
	call fib
	pop rbx
	add rax, rbx
	ret`
}

// WriteMem writes b at guest-virtual vaddr.
func (c *CPU) WriteMem(vaddr uint64, b []byte) error {
	for i := range b {
		p, err := c.Translate(vaddr+uint64(i), true)
		if err != nil {
			return err
		}
		if p >= uint64(len(c.Mem)) {
			return fmt.Errorf("write beyond memory at %#x", p)
		}
		c.Mem[p] = b[i]
		c.StoreBarrier(p, 1)
	}
	c.Clock.Advance(cycles.MemStore * uint64(1+(len(b)-1)/8))
	return nil
}

// TLBSize reports the number of cached large-page translations.
func (c *CPU) TLBSize() int { return len(c.tlb) }

// EventDelta returns the cycles between two recorded events, or 0 if
// either is missing.
func (c *CPU) EventDelta(from, to Event) uint64 {
	a, b := c.Events[from], c.Events[to]
	if a == 0 || b == 0 || b < a {
		return 0
	}
	return b - a
}
