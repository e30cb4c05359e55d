package wasp

import (
	"bytes"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/vmm"
)

// Boot replay (internal/vmm/README.md): a boot stub reads nothing of the
// arguments before its hand-off (guest/boot.go), so up to the hand-off a
// cold boot is a function of its image and memory size alone. Each
// backend records one per (content, memory size) in its content registry
// (forest.go) and replays it, with the executed prefix's charges, for
// every later boot of the same bytes.

// bootRecord is one cold boot up to its hand-off, immutable once in its
// backend's content registry; one with no layer is yet to be made.
type bootRecord struct {
	img        guest.Image      // compared byte for byte: ContentKey is a 64-bit hash
	layer      *vmm.Layer       // memory at the hand-off, in the backend's forest
	dirty      []int            // pages dirty at the hand-off
	cpu        *cpu.ResumePoint // milestones relative to the entry's start
	firstEntry uint64           // FirstEntry less the entry's start
	cost       uint64           // the clock delta from before the entry to the hand-off
}

// bootFor returns the recording a cold boot of img replays — the same
// bytes, its prefix inside cfg's budget — with its layer retained for the
// caller; or, when the key has none, a record for the boot to make; else
// nil.
func (w *Wasp) bootFor(be *backend, img *guest.Image, cfg *RunConfig, memBytes int) *bootRecord {
	if w.legacyInterp || img.Handoff == 0 {
		return nil
	}
	r := be.content.boot(contentKey{img.ContentKey(), memBytes})
	if r == nil {
		return &bootRecord{}
	}
	if r.img.Origin == img.Origin && r.img.Entry == img.Entry && r.img.Mode == img.Mode && r.img.Handoff == img.Handoff &&
		r.cpu.Retired <= cfg.MaxSteps && bytes.Equal(r.img.Code, img.Code) {
		return r
	}
	r.layer.Release()
	return nil
}

// enter makes a run's first guest entry. A boot through a stub (handoff
// non-zero) stops at the hand-off — replayed from its recording, or
// executed and, when boot is a record to make, recorded there without
// disturbing the shell — takes its arguments, and runs on with the rest
// of the budget, charged the exit but not a second entry.
func (w *Wasp) enter(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, boot *bootRecord, handoff uint64, clk *cycles.Clock) *cpu.Exit {
	start := clk.Now()
	if boot != nil && boot.layer != nil {
		ctx.CPU.Resume(boot.cpu, start)
		ctx.FirstEntry = start + boot.firstEntry
		ctx.Entries++
		clk.Advance(boot.cost)
	} else {
		ctx.CPU.Handoff = handoff
		ex := ctx.Run(cfg.MaxSteps)
		ctx.CPU.Handoff = 0
		if ex.Reason != cpu.ExitHandoff {
			return ex
		}
		if boot != nil {
			boot.img = *img
			boot.img.Code = bytes.Clone(img.Code)
			boot.layer, boot.dirty = ctx.Freeze(be.forest), ctx.DirtyPages()
			boot.cpu, boot.firstEntry = ctx.CPU.Checkpoint(start), ctx.FirstEntry-start
			boot.cost = clk.Now() - start
			be.content.setBoot(contentKey{img.ContentKey(), len(ctx.Mem)}, boot)
			boot.layer.Release() // Freeze's: the registry holds its own, unless a concurrent boot recorded first
		}
	}
	writeArgs(ctx, cfg.Args)
	// The shell's Retired counts from this run's boot: a cold boot Loads,
	// which resets the vCPU, and a replay resumes the recording's count.
	return ctx.Continue(cfg.MaxSteps - ctx.CPU.Retired)
}

// writeArgs marshals args at guest.ArgAddr (§6.1). RunOn charges the copy
// before the first entry and checks its size.
func writeArgs(ctx *vmm.Context, args []byte) {
	if len(args) > 0 {
		copy(ctx.Mem[guest.ArgAddr:], args)
		ctx.HostWrite(guest.ArgAddr, len(args))
	}
}

// firstExitGate is a test seam run at each run's first exit; nil outside tests.
var firstExitGate func(*vmm.Context)
