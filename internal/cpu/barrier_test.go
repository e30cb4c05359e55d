package cpu

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// engineRun is one engine's view of a finished run: everything the
// engines must agree on.
type engineRun struct {
	name string // the engine: traces, Step or the reference
	c    *CPU
	ex   *Exit
	cy   uint64
}

// startCPU builds a CPU over a private copy of mem, entered at entry in
// the given start mode the way vmm.Context.Load would.
func startCPU(mem []byte, entry uint64, mode isa.Mode, legacy bool) *CPU {
	c := New(append([]byte(nil), mem...), cycles.NewClock(), entry)
	c.Legacy = legacy
	switch mode {
	case isa.Mode32:
		c.SetupProtected()
	case isa.Mode64:
		c.SetupLongMode()
	}
	return c
}

// finish runs c to its next exit: Step alone on a Legacy CPU, otherwise
// traces and Step.
func finish(c *CPU, budget uint64) engineRun {
	name := "traces"
	if c.Legacy {
		name = "Step"
	}
	ex := c.Run(budget)
	return engineRun{name: name, c: c, ex: ex, cy: c.Clock.Now()}
}

// diffEngines reports the first architectural difference between two
// engines' runs of the same guest, or "".
func diffEngines(a, b engineRun) string {
	errText := func(ex *Exit) string {
		if ex.Err == nil {
			return ""
		}
		return ex.Err.Error()
	}
	var what string
	var va, vb any
	switch {
	case a.ex.Reason != b.ex.Reason || errText(a.ex) != errText(b.ex):
		what, va, vb = "exits", fmt.Sprintf("%v %q", a.ex.Reason, errText(a.ex)), fmt.Sprintf("%v %q", b.ex.Reason, errText(b.ex))
	case a.ex.Port != b.ex.Port || a.ex.In != b.ex.In || a.ex.Reg != b.ex.Reg:
		what, va, vb = "io exits", *a.ex, *b.ex
	case a.cy != b.cy:
		what, va, vb = "clock", a.cy, b.cy
	case a.c.IP != b.c.IP || a.c.Retired != b.c.Retired:
		what = "ip, retired"
		va, vb = fmt.Sprintf("%#x, %d", a.c.IP, a.c.Retired), fmt.Sprintf("%#x, %d", b.c.IP, b.c.Retired)
	case a.c.Regs != b.c.Regs:
		what, va, vb = "registers", fmt.Sprintf("%x", a.c.Regs), fmt.Sprintf("%x", b.c.Regs)
	case a.c.Flags != b.c.Flags:
		what, va, vb = "flags", a.c.Flags, b.c.Flags
	case a.c.Mode != b.c.Mode || a.c.Events != b.c.Events:
		what, va, vb = "mode, boot events", fmt.Sprint(a.c.Mode, a.c.Events), fmt.Sprint(b.c.Mode, b.c.Events)
	case !reflect.DeepEqual(a.c.DirtyPages(), b.c.DirtyPages()):
		what, va, vb = "dirty pages", a.c.DirtyPages(), b.c.DirtyPages()
	case !bytes.Equal(a.c.Mem, b.c.Mem):
		return fmt.Sprintf("memory: %s and %s differ", a.name, b.name)
	default:
		return ""
	}
	return fmt.Sprintf("%s: %s %+v, %s %+v", what, a.name, va, b.name, vb)
}

// bothEngines assembles src, runs it to its first exit under each engine
// (prep, when given, adjusts each CPU before the run) and requires the two
// to agree; it returns the trace engine's run.
func bothEngines(t *testing.T, src string, memBytes int, prep func(*CPU)) engineRun {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, memBytes)
	copy(mem[p.Origin:], p.Code)
	var runs [2]engineRun
	for i, legacy := range []bool{false, true} {
		c := startCPU(mem, p.Entry, p.StartMode, legacy)
		if prep != nil {
			prep(c)
		}
		runs[i] = finish(c, 1_000_000)
	}
	if d := diffEngines(runs[0], runs[1]); d != "" {
		t.Fatal(d)
	}
	return runs[0]
}

// Guest stores — word, byte and stack — mark exactly the pages they
// touch; nothing else of the guest's memory becomes dirty.
func TestStoreBarrierObservesGuestWrites(t *testing.T) {
	r := bothEngines(t, `
.bits 64
	movi rbx, 0x6000
	movi rax, 1
	store [rbx], rax
	storeb [rbx+8], rax
	push rax
	hlt
`, 1<<20, nil)
	wantHalt(t, r.ex)
	if got, want := r.c.DirtyPages(), []int{6, 255}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dirty pages %v, want %v (the stored page and the stack top)", got, want)
	}
	if r.c.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", r.c.DirtyCount())
	}
}

// A store that straddles a page boundary marks both pages, including when
// the first of them is already armed and the loop has been compiled.
func TestStoreBarrierStraddlesPages(t *testing.T) {
	for _, bits := range []string{"16", "32", "64"} {
		r := bothEngines(t, `
.bits `+bits+`
.org 0x800
	movi rdi, 0x6000
	store [rdi], rdi     ; arms page 6 alone
	movi rcx, 6
	movi rdi, 0x6FFF
loop:
	store [rdi], rcx     ; every width crosses into page 7
	dec rcx
	jnz loop
	hlt
`, 1<<20, nil)
		wantHalt(t, r.ex)
		if r.c.Stats.BlocksCompiled == 0 {
			t.Fatalf("bits %s: the loop never compiled", bits)
		}
		pages := r.c.DirtyPages()
		if len(pages) != 2 || pages[0] != 6 || pages[1] != 7 {
			t.Fatalf("bits %s: dirty pages %v, want [6 7]", bits, pages)
		}
	}
}

// A new restore point disarms every page: the same compiled store must
// take the barrier again and re-mark its page.
func TestClearDirtyRearmsBarrier(t *testing.T) {
	p, err := asm.Assemble(`
.bits 32
.org 0x8000
	movi rdi, 0x6000
	movi rcx, 8
loop:
	store [rdi], rcx
	storeb [rdi+0x1000], rcx
	add rdi, 4
	dec rcx
	jnz loop
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	c := startCPU(mem, p.Entry, p.StartMode, false)
	for round := 0; round < 3; round++ {
		c.ClearDirty()
		if n := c.DirtyCount(); n != 0 {
			t.Fatalf("round %d: %d pages dirty after ClearDirty", round, n)
		}
		c.IP, c.Halted = p.Entry, false
		wantHalt(t, c.Run(1000))
		if got, want := c.DirtyPages(), []int{6, 7}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: dirty pages %v, want %v", round, got, want)
		}
	}
	if c.Stats.BlockHits == 0 {
		t.Fatal("later rounds never entered the compiled loop")
	}
}

// "A decode can be newer than the dirty bit": a page that was armed as
// data and then had code decoded onto it must still take the barrier —
// the patch store deopts the running trace and the patched bytes execute.
func TestStoreToArmedPageAfterDecodeDeopts(t *testing.T) {
	arm := func(c *CPU) { c.StoreBarrier(0, len(c.Mem)) }
	r := bothEngines(t, smcSrc, 1<<20, arm)
	wantHalt(t, r.ex)
	if r.c.Stats.BlockDeopts == 0 {
		t.Fatalf("self-modifying store onto a pre-armed page never deoptimized: %+v", r.c.Stats)
	}
}

// The same through AdoptCode: decode state installed from a registry onto
// armed pages re-arms the barrier, so the adopter's first patch store
// drops the adopted traces instead of running them stale.
func TestStoreToArmedPageAfterAdoptDeopts(t *testing.T) {
	p, err := asm.Assemble(smcSrc)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	// The donor stops before its first patch store: its frozen page marks
	// every instruction of the unmodified image, so the adopter decodes
	// nothing itself — only AdoptCode can have set the page's decode bit.
	donor := startCPU(mem, p.Entry, p.StartMode, false)
	if ex := donor.Run(4); ex.Reason != ExitFault || !strings.Contains(ex.Err.Error(), "budget") {
		t.Fatalf("donor: %+v", ex)
	}
	cc := donor.ShareCode()
	adopt := func(legacy bool) engineRun {
		c := startCPU(mem, p.Entry, p.StartMode, legacy)
		c.StoreBarrier(0, len(c.Mem))
		if !legacy {
			c.AdoptCode(cc)
			if c.CodePages() == 0 {
				t.Fatal("nothing adopted")
			}
		}
		return finish(c, 1000)
	}
	jit, leg := adopt(false), adopt(true)
	if d := diffEngines(jit, leg); d != "" {
		t.Fatal(d)
	}
	if jit.c.Stats.BlockDeopts == 0 {
		t.Fatalf("patch store never dropped the adopted page: %+v", jit.c.Stats)
	}
}

// WriteMem (the CPU-level host path) and StoreBarrier (vmm.HostWrite)
// mark the pages a guest store of the same bytes marks, and drop decoded
// code the same way.
func TestHostWritesAgreeWithGuestStores(t *testing.T) {
	guest := bothEngines(t, `
.bits 64
	movi rdi, 0x6FFC
	movi rax, 0x1122334455667788
	store [rdi], rax
	hlt
`, 1<<20, nil)
	wantHalt(t, guest.ex)

	val := []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}
	viaWriteMem := startCPU(make([]byte, 1<<20), 0, isa.Mode64, false)
	if err := viaWriteMem.WriteMem(0x6FFC, val); err != nil {
		t.Fatal(err)
	}
	viaBarrier := startCPU(make([]byte, 1<<20), 0, isa.Mode64, false)
	copy(viaBarrier.Mem[0x6FFC:], val)
	viaBarrier.StoreBarrier(0x6FFC, len(val))
	for name, c := range map[string]*CPU{"WriteMem": viaWriteMem, "StoreBarrier": viaBarrier} {
		if !reflect.DeepEqual(c.DirtyPages(), guest.c.DirtyPages()) {
			t.Fatalf("%s marked %v, the guest store %v", name, c.DirtyPages(), guest.c.DirtyPages())
		}
		if !bytes.Equal(c.Mem[0x6FF0:0x7010], guest.c.Mem[0x6FF0:0x7010]) {
			t.Fatalf("%s wrote different bytes than the guest store", name)
		}
	}
	// Out-of-range host writes are ignored, not a panic.
	viaBarrier.StoreBarrier(uint64(len(viaBarrier.Mem)), 8)
	viaBarrier.StoreBarrier(uint64(len(viaBarrier.Mem))-1, 1<<20)
	viaBarrier.StoreBarrier(1<<63, -1)
}

// The flat-mode fast paths keep Step's faults: message, faulting IP,
// retirement and cycles, whether the fault is the first store (Step) or
// arrives inside a compiled loop.
func TestFlatModeStoreFaultsMatchStep(t *testing.T) {
	walkOff := func(bits, op string, top int) string {
		return fmt.Sprintf(`
.bits %s
.org 0x1000
	movi rdi, %#x
	movi rcx, 64
loop:
	%s
	add rdi, 2
	dec rcx
	jnz loop
	hlt
`, bits, top-24, op)
	}
	for _, tc := range []struct {
		name, src, want string
		mem             int
		prep            func(*CPU)
	}{
		{"mode32 store beyond memory", walkOff("32", "store [rdi], rcx", 1<<20), "store beyond memory", 1 << 20, nil},
		{"mode32 storeb beyond memory", walkOff("32", "storeb [rdi], rcx", 1<<20), "byte store beyond memory", 1 << 20, nil},
		{"mode32 load beyond memory", walkOff("32", "load rax, [rdi]", 1<<20), "load beyond memory", 1 << 20, nil},
		{"mode32 loadb beyond memory", walkOff("32", "loadb rax, [rdi]", 1<<20), "byte load beyond memory", 1 << 20, nil},
		{"mode16 store beyond memory", walkOff("16", "store [rdi], rcx", 0x4000), "store beyond memory", 0x4000, nil},
		{"mode16 storeb beyond memory", walkOff("16", "storeb [rdi], rcx", 0x4000), "byte store beyond memory", 0x4000, nil},
		{"mode32 no GDT", walkOff("32", "store [rdi], rcx", 1<<20), "no GDT", 1 << 20,
			func(c *CPU) { c.GDTLimit = 0 }},
	} {
		r := bothEngines(t, tc.src, tc.mem, tc.prep)
		if r.ex.Reason != ExitFault || !strings.Contains(r.ex.Err.Error(), tc.want) {
			t.Fatalf("%s: exit %+v, want a %q fault", tc.name, r.ex, tc.want)
		}
		if tc.prep == nil && r.c.Stats.BlocksCompiled == 0 {
			t.Fatalf("%s: faulted before the loop compiled", tc.name)
		}
	}
}

// A block-cache slot outlives Reset, so a later tenant's different code
// at the same address, mode and anchor must miss it — the page pointer it
// names is gone — while the same image adopted again runs its own traces.
func TestBlockCacheSurvivesResetSafely(t *testing.T) {
	loop := func(step int) string {
		return fmt.Sprintf(`
.bits 64
_start:
	movi rcx, 50
loop:
	add rax, %d
	dec rcx
	jnz loop
	hlt
`, step)
	}
	load := func(c *CPU, src string) uint64 {
		p, err := asm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.Mem {
			c.Mem[i] = 0
		}
		copy(c.Mem[p.Origin:], p.Code)
		c.Reset(p.Entry)
		c.SetupLongMode()
		return p.Entry
	}
	c := New(make([]byte, 1<<20), cycles.NewClock(), 0)
	load(c, loop(3))
	wantHalt(t, c.Run(1000))
	if c.Regs[isa.RAX] != 150 || c.Stats.BlocksCompiled == 0 {
		t.Fatalf("first tenant: rax=%d stats=%+v", c.Regs[isa.RAX], c.Stats)
	}
	first := c.ShareCode()
	filled := 0
	for i := range c.bcache {
		if c.bcache[i].blk != nil {
			filled++
		}
	}
	if filled == 0 {
		t.Fatal("first tenant left no block-cache slots to go stale")
	}

	// Different bytes, same addresses: every stale slot must miss.
	load(c, loop(5))
	wantHalt(t, c.Run(1000))
	if c.Regs[isa.RAX] != 250 {
		t.Fatalf("second tenant ran a stale trace: rax=%d, want 250", c.Regs[isa.RAX])
	}

	// The first image again, its frozen pages adopted: the page pointers
	// the oldest slots name are installed once more, over the same bytes.
	load(c, loop(3))
	c.AdoptCode(first)
	wantHalt(t, c.Run(1000))
	if c.Regs[isa.RAX] != 150 || c.Stats.BlockHits == 0 {
		t.Fatalf("readopted tenant: rax=%d stats=%+v", c.Regs[isa.RAX], c.Stats)
	}
}

// BenchmarkStoreLoop times the boot stub's two table-building loops
// (vx_pdloop and vx_zloop: 3,072 stores over 12 KiB) on a shell that has
// run them before: the store steps on the barrier's fast path.
func BenchmarkStoreLoop(b *testing.B) {
	const loops = `
.org 0x8000
	movi rdi, 0x13000
	movi rcx, 512
	movi rax, 0x83
	movi rbx, 0
	movi rdx, 0x200000
pdloop:
	store [rdi], rax
	store [rdi+4], rbx
	add rax, rdx
	add rdi, 8
	dec rcx
	jnz pdloop
	movi rdi, 0x11000
	movi rcx, 1024
zloop:
	store [rdi], rbx
	store [rdi+4], rbx
	add rdi, 8
	dec rcx
	jnz zloop
	hlt
`
	for _, bits := range []string{"32", "64"} {
		b.Run("mode"+bits, func(b *testing.B) {
			p, err := asm.Assemble(".bits " + bits + loops)
			if err != nil {
				b.Fatal(err)
			}
			mem := make([]byte, 2<<20)
			copy(mem[p.Origin:], p.Code)
			c := startCPU(mem, p.Entry, p.StartMode, false)
			run := func() {
				c.IP, c.Halted = p.Entry, false
				if ex := c.Run(1 << 20); ex.Reason != ExitHalt {
					b.Fatalf("exit %+v", ex)
				}
			}
			run() // first visit: Step marks the loops, the pages become dirty
			run() // second: the loop traces compile
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/3072, "ns/store")
		})
	}
}
