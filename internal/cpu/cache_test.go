package cpu

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// Pages reports the number of frozen pages.
func (cc CodeCache) Pages() int {
	n := 0
	for _, pg := range cc.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// Self-modifying code: a guest that rewrites an already-executed
// instruction must observe the new bytes on the next execution. This is
// the decoded-cache invalidation regression test — a stale cache would
// re-run the old instruction.
func TestSelfModifyingImmediate(t *testing.T) {
	// The loop body's first instruction is `movi rbx, 1`; the first pass
	// overwrites its 8-byte immediate with 42, so the second pass must
	// load 42.
	src := `
.bits 64
_start:
	movi rcx, 2
loop:
patch:
	movi rbx, 1
	movi rdi, patch
	movi rax, 42
	store [rdi+2], rax
	dec rcx
	jnz loop
	hlt
`
	c, ex := run(t, src)
	wantHalt(t, ex)
	if c.Regs[isa.RBX] != 42 {
		t.Fatalf("rbx = %d after self-modify, want 42 (stale decoded cache?)", c.Regs[isa.RBX])
	}
}

// Self-modifying opcode via a byte store: the first pass executes
// `inc rbx`, then patches its opcode byte to DEC; the second pass must
// decrement, leaving rbx back at 0.
func TestSelfModifyingOpcode(t *testing.T) {
	src := fmt.Sprintf(`
.bits 64
_start:
	movi rcx, 2
loop:
patch:
	inc rbx
	movi rdi, patch
	movi rax, %d
	storeb [rdi], rax
	dec rcx
	jnz loop
	hlt
`, int(isa.DEC))
	c, ex := run(t, src)
	wantHalt(t, ex)
	if c.Regs[isa.RBX] != 0 {
		t.Fatalf("rbx = %d after opcode patch, want 0", c.Regs[isa.RBX])
	}
}

// The legacy interpreter must agree with the cached engine on the
// self-modifying program, including virtual cycles.
func TestSelfModifyLegacyParity(t *testing.T) {
	src := `
.bits 64
_start:
	movi rcx, 3
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
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(legacy bool) (*CPU, uint64) {
		mem := make([]byte, 2<<20)
		copy(mem[p.Origin:], p.Code)
		clk := cycles.NewClock()
		c := New(mem, clk, p.Entry)
		c.Legacy = legacy
		c.SetupLongMode()
		if ex := c.Run(1_000_000); ex.Reason != ExitHalt {
			t.Fatalf("legacy=%v: exit %+v", legacy, ex)
		}
		return c, clk.Now()
	}
	fast, fastCy := exec(false)
	slow, slowCy := exec(true)
	if fastCy != slowCy {
		t.Fatalf("cycles diverge: cached %d, legacy %d", fastCy, slowCy)
	}
	if fast.Regs != slow.Regs || fast.Retired != slow.Retired {
		t.Fatalf("state diverges: cached %v/%d, legacy %v/%d",
			fast.Regs, fast.Retired, slow.Regs, slow.Retired)
	}
}

// Host writes into guest memory (WriteMem is the CPU-level host path)
// must invalidate decoded code as well.
func TestHostWriteInvalidates(t *testing.T) {
	src := `
.bits 64
_start:
patch:
	movi rbx, 1
	hlt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 2<<20)
	copy(mem[p.Origin:], p.Code)
	c := New(mem, cycles.NewClock(), p.Entry)
	c.SetupLongMode()
	if ex := c.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("first run: %+v", ex)
	}
	if c.CodePages() == 0 {
		t.Fatal("no decoded pages after first run")
	}
	// Host rewrites the immediate, then the guest re-executes.
	if err := c.WriteMem(p.Entry+2, []byte{99, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	c.Halted = false
	c.IP = p.Entry
	if ex := c.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("second run: %+v", ex)
	}
	if c.Regs[isa.RBX] != 99 {
		t.Fatalf("rbx = %d after host write, want 99", c.Regs[isa.RBX])
	}
}

// ShareCode/AdoptCode: frozen pages install only where the target memory
// matches the bytes they were decoded from.
func TestShareAdoptVerifiesContent(t *testing.T) {
	src := `
.bits 64
_start:
	movi rbx, 5
	hlt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	donor := New(mem, cycles.NewClock(), p.Entry)
	donor.SetupLongMode()
	if ex := donor.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("donor: %+v", ex)
	}
	cc := donor.ShareCode()
	if cc.Empty() || cc.Pages() == 0 {
		t.Fatal("donor shared no pages")
	}

	// Same content: pages adopt.
	mem2 := make([]byte, 1<<20)
	copy(mem2[p.Origin:], p.Code)
	twin := New(mem2, cycles.NewClock(), p.Entry)
	twin.AdoptCode(cc)
	if twin.CodePages() != cc.Pages() {
		t.Fatalf("twin adopted %d pages, want %d", twin.CodePages(), cc.Pages())
	}

	// Mutated content: the touched page must be rejected.
	mem3 := make([]byte, 1<<20)
	copy(mem3[p.Origin:], p.Code)
	mem3[p.Origin+2] ^= 0xFF
	other := New(mem3, cycles.NewClock(), p.Entry)
	other.AdoptCode(cc)
	if other.CodePages() != 0 {
		t.Fatalf("stale page adopted into mismatched memory (%d pages)", other.CodePages())
	}
}

// A shared page is never mutated: a CPU that decodes into an adopted page
// clones it first, leaving the frozen copy intact for other adopters.
func TestSharedPageCloneOnWrite(t *testing.T) {
	src := `
.bits 64
_start:
	movi rbx, 5
	hlt
`
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := make([]byte, 1<<20)
	copy(mem[p.Origin:], p.Code)
	donor := New(mem, cycles.NewClock(), p.Entry)
	donor.SetupLongMode()
	if ex := donor.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("donor: %+v", ex)
	}
	cc := donor.ShareCode()
	page := p.Origin / codePageSize
	frozen := cc.pages[page]
	before := frozen.ents

	// The donor re-executes the same bytes in protected mode. The cached
	// entries carry long-mode decodes, so the mode mismatch forces a
	// fresh decode into the shared page — which must clone, not mutate.
	donor.Halted = false
	donor.IP = p.Entry
	donor.SetupProtected()
	if ex := donor.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("donor mode32 rerun: %+v", ex)
	}
	if frozen.ents != before {
		t.Fatal("frozen shared page was mutated by the donor")
	}
	if donor.code[page] == frozen {
		t.Fatal("donor still points at the frozen page after writing into it")
	}
}

// manyLoopsSrc runs 48 counted loops one after another on one page:
// each loop head is dispatched again and compiles its own trace, so a
// run publishes a few dozen traces, one at a time, on the page.
func manyLoopsSrc() string {
	src := ".bits 64\n_start:\n"
	for i := 0; i < 48; i++ {
		src += fmt.Sprintf("\tmovi rcx, 4000\nl%d:\n\taddi rax, 1\n\tdec rcx\n\tjnz l%d\n", i, i)
	}
	return src + "\thlt\n"
}

// One CPU publishes traces on a shared, frozen page while a reader walks
// the page's blocks as dispatch (block) and the registry's Footprint do,
// with no lock. Every array a reader loads must be whole: its count, its
// sorted keys and every block written before the store that published
// it. Under -race this is the data-race check on that store; a
// publication that stores the array before writing it fails here.
func TestTracePublishOnSharedPage(t *testing.T) {
	p, err := asm.Assemble(manyLoopsSrc())
	if err != nil {
		t.Fatal(err)
	}
	page := p.Origin / codePageSize
	if p.Origin%codePageSize+uint64(len(p.Code)) > codePageSize {
		t.Fatalf("program spans pages: %d bytes at %#x", len(p.Code), p.Origin)
	}
	load := func() []byte {
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		return mem
	}
	// The donor executes one instruction: the page's entries are marked
	// (predecode runs to the page's end), no trace is compiled.
	donor := New(load(), cycles.NewClock(), p.Entry)
	donor.SetupLongMode()
	donor.Run(1)
	cc := donor.ShareCode()
	frozen := cc.pages[page]
	if frozen == nil || frozen.blockList() != nil {
		t.Fatal("donor froze no page, or one that already holds traces")
	}

	writer := New(load(), cycles.NewClock(), p.Entry)
	writer.SetupLongMode()
	writer.AdoptCode(cc)

	check := func(bs []pageBlock) {
		for i, e := range bs {
			if e.blk == nil || len(e.blk.ops) == 0 || (i > 0 && bs[i-1].key >= e.key) {
				t.Errorf("published array holds a torn entry %d of %d: %+v", i, len(bs), e)
				return
			}
			if frozen.block(e.key) == nil {
				t.Errorf("key %#x listed but not found", e.key)
				return
			}
		}
	}
	started, done := make(chan struct{}), make(chan struct{})
	seen := map[int]bool{}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		close(started)
		for {
			bs := frozen.blockList()
			check(bs)
			seen[len(bs)] = true
			cc.Footprint()
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	<-started
	if ex := writer.Run(1 << 20); ex.Reason != ExitHalt {
		t.Fatalf("writer: %+v", ex)
	}
	close(done)
	<-readerDone

	if writer.code[page] != frozen {
		t.Fatal("writer cloned the page: its traces were not published on the shared one")
	}
	final := frozen.blockList()
	check(final)
	if uint64(len(final)) != writer.Stats.BlocksCompiled || len(final) < 48 {
		t.Fatalf("page holds %d traces, writer compiled %d; want one per loop at least (48)", len(final), writer.Stats.BlocksCompiled)
	}
	t.Logf("%d traces published; the reader loaded arrays of %d distinct lengths", len(final), len(seen))
}

// A fetch beyond physical memory must fault exactly like the legacy
// engine — not panic (regression: predecode once indexed the page table
// with an out-of-range page).
func TestFetchBeyondMemoryFaults(t *testing.T) {
	// Real-mode jump past the end of an 8-page guest: both engines must
	// fault with the same message and cycle count.
	p, err := asm.Assemble(".bits 16\n.org 0x8000\n_start:\n\tjmp 0x9000\n")
	if err != nil {
		t.Fatal(err)
	}
	run := func(legacy bool) (string, uint64) {
		mem := make([]byte, 32<<10)
		copy(mem[p.Origin:], p.Code)
		clk := cycles.NewClock()
		c := New(mem, clk, p.Entry)
		c.Legacy = legacy
		ex := c.Run(100)
		if ex.Reason != ExitFault || ex.Err == nil {
			t.Fatalf("legacy=%v: exit %+v, want fault", legacy, ex)
		}
		return ex.Err.Error(), clk.Now()
	}
	fmsg, fcy := run(false)
	smsg, scy := run(true)
	if fmsg != smsg || fcy != scy {
		t.Fatalf("divergence: cached (%q, %d) vs legacy (%q, %d)", fmsg, fcy, smsg, scy)
	}
}

// Merge upgrades a sparse frozen page with a fuller one decoded from the
// same bytes (input-dependent jumps reach code the first freeze never
// executed), but never lets a page frozen from different (self-modified)
// bytes displace the registered version.
func TestMergeUpgradesSamesourcePages(t *testing.T) {
	// The 0xFF data byte is an invalid opcode: forward predecode from
	// _start stops there, so vx_extra's entries exist only in caches
	// whose CPU actually jumped into it.
	p, err := asm.Assemble(`
.bits 64
_start:
	movi rbx, 5
	hlt
	.db 0xFF
vx_extra:
	movi rdx, 9
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	mkCPU := func() *CPU {
		mem := make([]byte, 1<<20)
		copy(mem[p.Origin:], p.Code)
		c := New(mem, cycles.NewClock(), p.Entry)
		c.SetupLongMode()
		return c
	}
	a := mkCPU()
	if ex := a.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("a: %+v", ex)
	}
	sparse := a.ShareCode()

	// b executes the extra entry point too, so its page holds strictly
	// more entries decoded from identical bytes.
	b := mkCPU()
	if ex := b.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("b: %+v", ex)
	}
	b.Halted = false
	b.IP = p.Labels["vx_extra"]
	if ex := b.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("b extra: %+v", ex)
	}
	fuller := b.ShareCode()

	page := p.Origin / codePageSize
	merged := sparse.Merge(fuller)
	if merged.pages[page] != fuller.pages[page] {
		t.Fatal("merge kept the sparse page despite a same-source superset")
	}
	if sparse.pages[page] == merged.pages[page] {
		t.Fatal("merge mutated the receiver's slice")
	}

	// A page frozen from modified bytes must not displace the original.
	c := mkCPU()
	c.Mem[p.Origin+2] = 77 // patch the immediate before any decode
	if ex := c.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("c: %+v", ex)
	}
	c.Halted = false
	c.IP = p.Labels["vx_extra"]
	if ex := c.Run(100); ex.Reason != ExitHalt {
		t.Fatalf("c extra: %+v", ex)
	}
	modified := c.ShareCode()
	kept := merged.Merge(modified)
	if kept.pages[page] != merged.pages[page] {
		t.Fatal("merge let a modified-source page displace the canonical one")
	}
}
