package wasp

import (
	"bytes"

	"repro/internal/cpu"
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

// bootFor returns the recording a cold boot of the run's image replays —
// the same bytes, its prefix inside the run's budget — with its layer
// retained for the caller; or, when the key has none, a record for the
// boot to make; else nil.
func (r *run) bootFor() *bootRecord {
	img := r.img
	if r.w.legacyInterp || img.Handoff == 0 {
		return nil
	}
	b := r.be.content.boot(contentKey{img.ContentKey(), len(r.gm.mem)})
	if b == nil {
		return &bootRecord{}
	}
	if b.img.Origin == img.Origin && b.img.Entry == img.Entry && b.img.Mode == img.Mode && b.img.Handoff == img.Handoff &&
		b.cpu.Retired <= r.cfg.MaxSteps && bytes.Equal(b.img.Code, img.Code) {
		return b
	}
	b.layer.Release()
	return nil
}

// enter makes a run's first guest entry. A boot through a stub (a
// non-zero r.handoff) stops at the hand-off — replayed from its
// recording, or executed and, when r.boot is a record to make, recorded
// there without disturbing the shell — takes its arguments, and runs on
// with the rest of the budget, charged the exit but not a second entry.
func (r *run) enter() *cpu.Exit {
	ctx, boot, clk, maxSteps := r.gm.ctx, r.boot, r.clk, r.cfg.MaxSteps
	start := clk.Now()
	if boot != nil && boot.layer != nil {
		ctx.CPU.Resume(boot.cpu, start)
		ctx.FirstEntry = start + boot.firstEntry
		ctx.Entries++
		clk.Advance(boot.cost)
	} else {
		ctx.CPU.Handoff = r.handoff
		ex := ctx.Run(maxSteps)
		ctx.CPU.Handoff = 0
		if ex.Reason != cpu.ExitHandoff {
			return ex
		}
		if boot != nil {
			boot.img = *r.img
			boot.img.Code = bytes.Clone(r.img.Code)
			boot.layer, boot.dirty = ctx.Freeze(r.be.forest), ctx.DirtyPages()
			boot.cpu, boot.firstEntry = ctx.CPU.Checkpoint(start), ctx.FirstEntry-start
			boot.cost = clk.Now() - start
			r.be.content.setBoot(contentKey{r.img.ContentKey(), len(ctx.Mem)}, boot)
			boot.layer.Release() // Freeze's: the registry holds its own, unless a concurrent boot recorded first
		}
	}
	writeArgs(ctx, r.cfg.Args)
	// The shell's Retired counts from this run's boot: a cold boot Loads,
	// which resets the vCPU, and a replay resumes the recording's count.
	return ctx.Continue(maxSteps - ctx.CPU.Retired)
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
