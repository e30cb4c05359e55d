package wasp

import (
	"bytes"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/vmm"
)

// Boot replay (internal/vmm/README.md): until its first hypercall a cold
// boot is a function of its image, memory size and arguments, so each
// backend records one per (content, memory size) in its content registry
// (forest.go) and replays it, with the executed boot's charges, for
// byte-equal inputs.

// bootRecord is one cold boot up to its first IO exit, immutable once in
// its backend's content registry; one with no layer is yet to be made.
type bootRecord struct {
	img        guest.Image // compared byte for byte: ContentKey is a 64-bit hash
	args       []byte
	layer      *vmm.Layer       // memory at the exit, in the backend's forest
	dirty      []int            // pages dirty at the exit
	cpu        *cpu.ResumePoint // milestones relative to the entry's start
	firstEntry uint64           // FirstEntry less the entry's start
	cost       uint64           // the entry's clock delta: entry, guest, exit
	exit       cpu.Exit
}

// bootFor returns the recording a cold boot of img replays — byte-equal
// inputs, its exit inside cfg's budget — with its layer retained for the
// caller; or, when the key has none, a record for the boot to make; else
// nil.
func (w *Wasp) bootFor(be *backend, img *guest.Image, cfg *RunConfig, memBytes int) *bootRecord {
	if w.legacyInterp {
		return nil
	}
	r := be.content.boot(contentKey{img.ContentKey(), memBytes})
	if r == nil {
		return &bootRecord{}
	}
	if r.img.Origin == img.Origin && r.img.Entry == img.Entry && r.img.Mode == img.Mode &&
		r.cpu.Retired <= cfg.MaxSteps && bytes.Equal(r.args, cfg.Args) && bytes.Equal(r.img.Code, img.Code) {
		return r
	}
	r.layer.Release()
	return nil
}

// enter makes a run's first guest entry. A replayed boot resumes the vCPU
// where its recording left it and is charged what the recorded entry
// cost; a boot making its key's record executes and, stopped at a
// hypercall other than exit(), records without disturbing the shell.
func (w *Wasp) enter(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, boot *bootRecord, clk *cycles.Clock) *cpu.Exit {
	start := clk.Now()
	if boot != nil && boot.layer != nil {
		ctx.CPU.Resume(boot.cpu, start)
		ctx.FirstEntry = start + boot.firstEntry
		ctx.Entries++
		ctx.ExitsIO++
		clk.Advance(boot.cost)
		ex := boot.exit
		return &ex
	}
	ex := ctx.Run(cfg.MaxSteps)
	if boot != nil && ex.Reason == cpu.ExitIO && ex.Port != hypercall.NrExit {
		boot.img, boot.args = *img, bytes.Clone(cfg.Args)
		boot.img.Code = bytes.Clone(img.Code)
		boot.layer, boot.dirty = ctx.Freeze(be.forest), ctx.DirtyPages()
		boot.cpu, boot.firstEntry = ctx.CPU.Checkpoint(start), ctx.FirstEntry-start
		boot.cost, boot.exit = clk.Now()-start, *ex
		be.content.setBoot(contentKey{img.ContentKey(), len(ctx.Mem)}, boot)
		boot.layer.Release() // Freeze's: the registry holds its own, unless a concurrent boot recorded first
	}
	return ex
}

// firstExitGate is a test seam run at each run's first exit; nil outside tests.
var firstExitGate func(*vmm.Context)
