package vmm

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// storeCorpus generates one random store-heavy long-mode program:
// scattered word/byte stores across the data region (some adjacent, some
// descending, some straddling a page boundary), push/pop traffic, and a
// store loop iterated enough to compile a trace, so the trace closures'
// fast paths — armed pages after the first touch — carry most stores.
func storeCorpus(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString(".bits 64\n_start:\n")
	base := uint64(0x80000)
	for i := 0; i < 40; i++ {
		addr := base + uint64(rng.Intn(0x100000))&^7
		if rng.Intn(5) == 0 {
			addr = addr&^0xFFF + 0xFF9 + uint64(rng.Intn(7)) // word store crosses the page end
		}
		fmt.Fprintf(&b, "\tmovi rdi, %#x\n\tmovi rax, %d\n", addr, rng.Intn(1<<30))
		if rng.Intn(3) == 0 {
			b.WriteString("\tstoreb [rdi], rax\n")
		} else {
			b.WriteString("\tstore [rdi], rax\n")
		}
		if rng.Intn(2) == 0 {
			// Adjacent follow-up store in a random direction.
			fmt.Fprintf(&b, "\tmovi rdi, %#x\n\tstore [rdi], rax\n",
				addr+8-uint64(rng.Intn(2))*16)
		}
	}
	stride := uint64(8 + 8*rng.Intn(600))
	fmt.Fprintf(&b, `
	movi rcx, %d
	movi rdi, %#x
loop:
	store [rdi], rcx
	storeb [rdi+%d], rcx
	add rdi, %d
	push rcx
	pop rbx
	dec rcx
	jnz loop
	hlt
`, 16+rng.Intn(48), base, rng.Intn(0x2000), stride)
	return b.String()
}

// Property test for the first-touch store barrier: over a random store
// corpus the trace engine — whose stores skip the barrier on armed pages —
// must report exactly the dirty pages Legacy's per-store barrier reports,
// at exactly the same virtual-cycle cost, at every point the VMM can look:
// the runs are cut into instruction-budget slices and compared after each,
// and a new restore point (ClearDirty) is taken partway through.
func TestPageStateMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		p, err := asm.Assemble(storeCorpus(rng))
		if err != nil {
			t.Fatal(err)
		}
		slice := uint64(97 + rng.Intn(400))
		boot := func(legacy bool) *Context {
			ctx := Create(2<<20, cycles.NewClock())
			if err := ctx.Load(p.Code, p.Origin, p.Entry, isa.Mode64); err != nil {
				t.Fatal(err)
			}
			ctx.CPU.Legacy = legacy
			// Isolate guest stores: drop the image-load dirt.
			ctx.ClearDirty()
			return ctx
		}
		fast, slow := boot(false), boot(true)
		for n := 0; ; n++ {
			exF, exL := fast.Run(slice), slow.Run(slice)
			if exF.Reason != exL.Reason {
				t.Fatalf("trial %d slice %d: exits diverge: cached %+v, legacy %+v", trial, n, exF, exL)
			}
			if fast.Clock.Now() != slow.Clock.Now() {
				t.Fatalf("trial %d slice %d: cycles diverge: cached %d, legacy %d",
					trial, n, fast.Clock.Now(), slow.Clock.Now())
			}
			if fp, lp := fast.DirtyPages(), slow.DirtyPages(); !reflect.DeepEqual(fp, lp) {
				t.Fatalf("trial %d slice %d: dirty page sets diverge:\ncached: %v\nlegacy: %v", trial, n, fp, lp)
			}
			if fast.DirtyCount() != len(fast.DirtyPages()) {
				t.Fatalf("trial %d: DirtyCount %d, DirtyPages %d", trial, fast.DirtyCount(), len(fast.DirtyPages()))
			}
			if fast.CPU.Regs != slow.CPU.Regs || fast.CPU.Retired != slow.CPU.Retired || fast.CPU.IP != slow.CPU.IP {
				t.Fatalf("trial %d slice %d: architectural state diverges", trial, n)
			}
			if exF.Reason == cpu.ExitHalt {
				break
			}
			if exF.Reason != cpu.ExitFault || !strings.Contains(exF.Err.Error(), "budget") {
				t.Fatalf("trial %d slice %d: exit %+v", trial, n, exF)
			}
			if n == 2 {
				fast.ClearDirty()
				slow.ClearDirty()
			}
		}
		if fast.CPU.Stats.BlockHits == 0 {
			t.Fatalf("trial %d: the trace engine never ran a trace", trial)
		}
	}
}

// Host writes go through the same barrier as guest stores: HostWrite marks
// the pages a guest store of the same range marks, and a page the guest
// has armed is still re-marked by a host write after ClearDirty.
func TestHostWriteSharesGuestPageState(t *testing.T) {
	p, err := asm.Assemble(`
.bits 64
	movi rdi, 0x6FFC
	store [rdi], rdi
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx := Create(1<<20, cycles.NewClock())
	if err := ctx.Load(p.Code, p.Origin, p.Entry, isa.Mode64); err != nil {
		t.Fatal(err)
	}
	ctx.ClearDirty()
	if ex := ctx.Run(100); ex.Reason != cpu.ExitHalt {
		t.Fatalf("exit %+v", ex)
	}
	guest := ctx.DirtyPages()
	if want := []int{6, 7}; !reflect.DeepEqual(guest, want) {
		t.Fatalf("guest store marked %v, want %v", guest, want)
	}
	ctx.ClearDirty()
	if n := ctx.DirtyCount(); n != 0 {
		t.Fatalf("%d pages dirty after ClearDirty", n)
	}
	ctx.HostWrite(0x6FFC, 8)
	if host := ctx.DirtyPages(); !reflect.DeepEqual(host, guest) {
		t.Fatalf("HostWrite marked %v, the guest store %v", host, guest)
	}
	// Degenerate and out-of-range host writes are ignored.
	ctx.HostWrite(0x9000, 0)
	ctx.HostWrite(uint64(len(ctx.Mem)), 4096)
	if host := ctx.DirtyPages(); !reflect.DeepEqual(host, guest) {
		t.Fatalf("degenerate HostWrites changed the dirty set to %v", host)
	}
}
