package cpu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cycles"
)

// resumeBoot is the §4.2 boot followed by long-mode accesses to two 2 MB
// pages, so a cut somewhere in it leaves each part of a resume point
// that Save leaves out in a state a continuation depends on: the
// ident-map latch set, a FirstInstr64 charge pending (right after the
// ljmp64), milestones recorded, TLB entries that spare the walks.
var resumeBoot = strings.Replace(bootToLongMode, "long:\n\tmovi rax, 0x2A\n\thlt", `long:
	movi rbx, 0x1F0000
	movi rax, 0x5A
	store [rbx], rax
	movi rbx, 0x3F0000
	store [rbx], rax
	load rcx, [rbx]
	movi rbx, 0x1F0000
	load rdx, [rbx]
	hlt`, 1)

// A CPU resumed from another's checkpoint — at a later clock, on a copy
// of its memory, with none of its host-side caches — continues exactly
// as the original does: same registers, retire count, clock and boot
// milestones (shifted by the clock offset), under both engines, wherever
// the original was cut. And checkpointing the resumed CPU gives back the
// point it resumed.
func TestResumePointContinuesTheRun(t *testing.T) {
	p, err := asm.Assemble(resumeBoot)
	if err != nil {
		t.Fatal(err)
	}
	load := func(clk *cycles.Clock, legacy bool) *CPU {
		mem := make([]byte, 4<<20)
		copy(mem[p.Origin:], p.Code)
		c := New(mem, clk, p.Entry)
		c.Legacy = legacy
		return c
	}
	ref := load(cycles.NewClock(), true)
	wantHalt(t, ref.Run(1<<24))
	total := ref.Retired
	cuts := []uint64{300, 1000, 4000, 6000, 8000}
	for k := uint64(1); k < 40; k++ {
		cuts = append(cuts, k, total-k)
	}
	const shift = 1_000_003
	var pending, latched, tlb bool
	for _, legacy := range []bool{true, false} {
		for _, k := range cuts {
			a := load(cycles.NewClock(), legacy)
			if ex := a.Run(k); ex.Reason != ExitFault {
				t.Fatalf("legacy=%v cut %d: exit %+v, want the budget fault", legacy, k, ex)
			}
			r := a.Checkpoint(0)
			pending, latched, tlb = pending || r.pendFirst, latched || r.sawStore32, tlb || len(r.tlb) > 0
			clk := cycles.NewClock()
			clk.Advance(a.Clock.Now() + shift)
			b := New(append([]byte(nil), a.Mem...), clk, 0)
			b.Legacy = legacy
			b.Resume(r, shift)
			if got := b.Checkpoint(shift); !reflect.DeepEqual(got, r) {
				t.Fatalf("legacy=%v cut %d: resumed CPU checkpoints as %+v, resumed from %+v", legacy, k, got, r)
			}
			wantHalt(t, a.Run(1<<24))
			wantHalt(t, b.Run(1<<24))
			if a.Regs != b.Regs || a.Flags != b.Flags || a.IP != b.IP || a.Retired != b.Retired || a.Clock.Now()+shift != b.Clock.Now() {
				t.Fatalf("legacy=%v cut %d: resumed run ends at ip=%#x retired=%d cycle=%d, the original at ip=%#x retired=%d cycle=%d+%d",
					legacy, k, b.IP, b.Retired, b.Clock.Now(), a.IP, a.Retired, a.Clock.Now(), uint64(shift))
			}
			for e, at := range a.Events {
				if want := at + shift; at != 0 && b.Events[e] != want || at == 0 && b.Events[e] != 0 {
					t.Fatalf("legacy=%v cut %d: %v at %d, want %d", legacy, k, Event(e), b.Events[e], want)
				}
			}
		}
	}
	if !pending || !latched || !tlb {
		t.Fatalf("cuts never left a pending FirstInstr64 (%v), a set latch (%v) or TLB entries (%v)", pending, latched, tlb)
	}
}
