package wasp

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// RunConfig parameterizes one virtine execution.
type RunConfig struct {
	// Policy gates hypercalls; nil means deny-all (§5.1). Exit, mark and
	// snapshot are hypervisor mechanisms and bypass policy.
	Policy hypercall.Policy
	// Env is the host environment the canned handlers act on; nil
	// provisions a fresh empty environment.
	Env *hypercall.Env
	// Handler overrides the canned handlers; nil uses Env.Handle — the
	// client-implemented hypercall handler hook of §5.1.
	Handler hypercall.Handler
	// Args is marshalled into guest memory at guest.ArgAddr before
	// entry (§6.1).
	Args []byte
	// RetBytes is how many bytes of the return-value region to copy out
	// after exit.
	RetBytes int
	// Snapshot enables the snapshot fast path for this image.
	Snapshot bool
	// MaxSteps bounds guest execution (runaway protection).
	MaxSteps uint64
}

// Result reports one virtine execution.
type Result struct {
	// Cycles is the end-to-end virtual-cycle cost of the invocation,
	// including provisioning, image/snapshot copy, execution and exits.
	Cycles uint64
	// ExitCode is the guest's exit status.
	ExitCode uint64
	// Ret is the raw return-value region (RetBytes long).
	Ret []byte
	// DataOut is the §6.5 return_data payload, if any.
	DataOut []byte
	// NetOut is what the guest sent on the virtual socket.
	NetOut []byte
	// Stdout is captured std-stream output.
	Stdout []byte
	// Marks are guest milestone timestamps (Fig 4).
	Marks []hypercall.Mark
	// Entries and IOExits count guest entries and hypercall exits.
	Entries uint64
	IOExits uint64
	// Retired counts guest instructions retired by this run (native
	// workloads retire only their boot stub).
	Retired uint64
	// BootEvents are the CPU's Table 1 milestone timestamps (absolute
	// clock values; subtract GuestEntry for in-guest offsets).
	BootEvents [cpu.NumEvents]uint64
	// GuestEntry is the clock value at the first guest entry.
	GuestEntry uint64
	// JIT is this run's compiled-tier activity delta (traces
	// compiled/entered/deoptimized).
	JIT cpu.JITStats
	// SnapshotUsed reports whether this run restored from a snapshot.
	SnapshotUsed bool
	// COWPages is the number of dirty pages a copy-on-write reset copied
	// back and was charged for (0 when the full snapshot was restored).
	COWPages int

	// retBuf backs Ret for the common small-RetBytes case so the
	// copy-out does not allocate separately from the Result itself.
	retBuf [64]byte

	// residentOn is the snapshot the run's shell is a dirty-page delta
	// over — the one restored, or the last one captured. RunOn's epilogue
	// hands it to the COW registry and clears it before the caller sees
	// the Result.
	residentOn *snapshot
}

const defaultMaxSteps = 200_000_000

// Run executes one virtine on the default backend: provision a context,
// populate it (image boot or snapshot restore), marshal arguments, enter
// the guest, interpose on every hypercall, and tear down. All costs land
// on clk.
func (w *Wasp) Run(img *guest.Image, cfg RunConfig, clk *cycles.Clock) (*Result, error) {
	return w.RunOn("", img, cfg, clk)
}

// RunOn executes one virtine on a named hypervisor backend ("" for the
// default). The run draws shells from, and returns them to, that
// backend's pools and registries exclusively; the platform's Fig 5
// create/entry/exit costs are charged on clk. The scheduler's
// platform-affine workers call this with their pinned backend.
func (w *Wasp) RunOn(platform string, img *guest.Image, cfg RunConfig, clk *cycles.Clock) (*Result, error) {
	be, err := w.backendFor(platform)
	if err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		cfg.Policy = hypercall.DenyAll{}
	}
	if cfg.Env == nil {
		cfg.Env = hypercall.NewEnv()
	}
	if cfg.Handler == nil {
		cfg.Handler = cfg.Env
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = defaultMaxSteps
	}
	cfg.Env.NowCycles = clk.Now
	cfg.Env.Charge = clk.Advance

	start := clk.Now()
	res := &Result{}
	var snap *snapshot
	if cfg.Snapshot && w.snapEnable {
		// get retains the snapshot's layer for the life of this run, so
		// a concurrent re-capture of the same image can never release
		// store pages this restore still reads from.
		snap = be.snapshots.get(img.Name)
		defer snap.release()
	}
	res.residentOn = snap

	// COW resets apply to interpreted guests with snapshotting on.
	cow := w.cow && cfg.Snapshot && w.snapEnable && img.Native == nil
	ctx, resident, err := w.acquire(be, img, snap, cow, clk)
	if err != nil {
		return nil, err
	}
	// Tier transitions (trace compiles, deopts) batch into the CPU's
	// bounded log during the run and drain into the tracer at run end
	// (drainTierLog), so the guest hot loop never pays an emit.
	ctx.CPU.TierTrace = w.tracer.Enabled()
	ctx.CPU.Legacy = w.legacyInterp
	// One way out for the shell, error returns included: drain the tier
	// log while this run still owns the context, then release it, parked
	// for the image's next COW reset if the run completed and left one.
	// A panic unwinding through the run (perhaps mid-Rebase, with a stale
	// content record) leaves the shell's state unknown: it is dropped, and
	// the panic goes on.
	parkCOW := false
	defer func() {
		w.drainTierLog(ctx)
		if p := recover(); p != nil {
			w.poolDrops.Add(1)
			panic(p)
		}
		on := res.residentOn
		res.residentOn = nil
		if !parkCOW {
			on = nil
		}
		w.release(ctx, img, on)
	}()

	ctx.FirstEntry = 0
	// Shells are reused (a COW shell is not even reset), so the context's
	// counters are cumulative: results report this run's delta.
	entries0, ioExits0 := ctx.Entries, ctx.ExitsIO
	retired0 := ctx.CPU.Retired
	stats0 := ctx.CPU.Stats

	boot, err := w.populate(be, ctx, img, &cfg, snap, resident, res, clk)
	if err != nil {
		return nil, err
	}

	// Adopt the image's predecoded code pages (decode once per content,
	// not once per run — renamed tenant clones share the entry). Adoption
	// verifies page content against guest memory, so it is sound for cold
	// loads, snapshot restores, and COW resets alike; under the legacy
	// interpreter the cache is unused.
	if !w.legacyInterp {
		if cc := w.codes.get(img.ContentKey()); !cc.Empty() {
			ctx.CPU.AdoptCode(cc)
		}
	}

	// Marshal arguments at guest.ArgAddr (§6.1).
	if len(cfg.Args) > 0 {
		if len(cfg.Args) > guest.ArgMax {
			return nil, fmt.Errorf("wasp: argument blob %d exceeds %d", len(cfg.Args), guest.ArgMax)
		}
		copy(ctx.Mem[guest.ArgAddr:], cfg.Args)
		ctx.HostWrite(guest.ArgAddr, len(cfg.Args))
		clk.Advance(cycles.MemcpyCost(len(cfg.Args)))
	}

	gm := &guestMem{mem: ctx.Mem, clk: clk, mark: ctx.HostWrite}

	// Native images restored from a post-boot snapshot skip the CPU
	// entirely; otherwise run the guest (boot stub or full program).
	restoredNative := snap != nil && snap.booted && img.Native != nil
	if !restoredNative {
		if err := w.runGuest(be, ctx, img, &cfg, gm, res, boot, clk); err != nil {
			return nil, err
		}
	}

	if img.Native != nil && !cfg.Env.Exited {
		nctx := &NativeCtx{
			wasp: w, be: be, img: img, ctx: ctx, cfg: &cfg, clk: clk,
			env: cfg.Env, gm: gm, res: res,
		}
		if snap != nil {
			nctx.restored = snap.native
		}
		// The workload writes through its Mem slice, behind the store
		// barrier and possibly after a TakeSnapshot, so however it
		// returns, the shell's content is unknown from then on.
		defer ctx.Forget()
		clk.Advance(be.platform.EntryCost())
		if ctx.FirstEntry == 0 {
			ctx.FirstEntry = clk.Now()
		}
		ctx.Entries++
		if err := img.Native(nctx); err != nil {
			return nil, fmt.Errorf("wasp: native workload: %w", err)
		}
		clk.Advance(be.platform.ExitCost())
	}

	if cfg.RetBytes > 0 {
		if cfg.RetBytes > guest.RetMax {
			return nil, fmt.Errorf("wasp: return size %d exceeds %d", cfg.RetBytes, guest.RetMax)
		}
		src := ctx.Mem[guest.RetAddr : guest.RetAddr+uint64(cfg.RetBytes)]
		if cfg.RetBytes <= len(res.retBuf) {
			copy(res.retBuf[:], src)
			res.Ret = res.retBuf[:cfg.RetBytes:cfg.RetBytes]
		} else {
			res.Ret = append([]byte(nil), src...)
		}
	}
	res.ExitCode = cfg.Env.ExitCode
	res.DataOut = cfg.Env.DataOut
	res.NetOut = append([]byte(nil), cfg.Env.NetOut.Bytes()...)
	res.Stdout = append([]byte(nil), cfg.Env.Stdout.Bytes()...)
	// Milestones are measured "inside the virtual context" (Fig 4):
	// rebase them on the first guest entry of this run.
	res.Marks = append([]hypercall.Mark(nil), cfg.Env.Marks...)
	for i := range res.Marks {
		if res.Marks[i].Cycle >= ctx.FirstEntry {
			res.Marks[i].Cycle -= ctx.FirstEntry
		}
	}
	res.Entries = ctx.Entries - entries0
	res.IOExits = ctx.ExitsIO - ioExits0
	res.Retired = ctx.CPU.Retired - retired0
	res.BootEvents = ctx.CPU.Events
	res.GuestEntry = ctx.FirstEntry
	res.Cycles = clk.Now() - start
	// Compiled-tier activity: contexts are pooled, so the per-CPU
	// counters are cumulative across tenants — report this run's delta
	// and fold it into the Wasp-lifetime aggregate.
	res.JIT = cpu.JITStats{
		BlocksCompiled: ctx.CPU.Stats.BlocksCompiled - stats0.BlocksCompiled,
		BlockHits:      ctx.CPU.Stats.BlockHits - stats0.BlockHits,
		BlockDeopts:    ctx.CPU.Stats.BlockDeopts - stats0.BlockDeopts,
		LoopRetired:    ctx.CPU.Stats.LoopRetired - stats0.LoopRetired,
	}
	w.jitCompiled.Add(res.JIT.BlocksCompiled)
	w.jitHits.Add(res.JIT.BlockHits)
	w.jitDeopts.Add(res.JIT.BlockDeopts)
	w.jitLoop.Add(res.JIT.LoopRetired)
	if tr := w.tracer; tr.Enabled() {
		// One summary span per guest run: the interp/JIT tier activity
		// (arg0 = traces compiled, arg1 = deopts) over the run's whole
		// virtual window.
		tr.Span(obs.ControlLane, obs.KindGuest, img.Name,
			start, clk.Now(), 0, res.JIT.BlocksCompiled, res.JIT.BlockDeopts)
	}
	// Harvest newly decoded pages into the per-image registry so the
	// next run — on any shell — starts predecoded. On the warm path
	// every page was adopted and nothing new was decoded, so the
	// freeze/merge (and its registry write lock) is skipped entirely.
	if !w.legacyInterp && ctx.CPU.CodeNew() {
		w.codes.merge(img.ContentKey(), ctx.CPU.ShareCode())
	}
	parkCOW = cow
	return res, nil
}

// drainTierLog moves the run's batched tier transitions into the tracer
// and resets the CPU's log and flag. Contexts are pooled, so it must run
// before the shell reaches the pool or the COW registry — from there the
// next run owns it.
func (w *Wasp) drainTierLog(ctx *vmm.Context) {
	if !ctx.CPU.TierTrace {
		return
	}
	for _, te := range ctx.CPU.TierLog {
		name := "jit-compile"
		if te.Deopt {
			name = "jit-deopt"
		}
		w.tracer.Instant(obs.ControlLane, obs.KindTier, name, te.Cycle, 0, te.PC, 0)
	}
	ctx.CPU.TierLog = ctx.CPU.TierLog[:0]
	ctx.CPU.TierTrace = false
}

// populate brings the shell to where the run starts: a snapshot restore
// or COW reset, or a cold boot replayed (boot.go) or loaded onto zeroed
// memory. It returns the boot record the first entry replays or makes.
func (w *Wasp) populate(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, snap *snapshot, resident bool, res *Result, clk *cycles.Clock) (*bootRecord, error) {
	if snap != nil {
		// Restore (Fig 7) and COW reset (§7.2) are one operation: Rebase
		// rewrites only the pages that differ from the snapshot — dirty,
		// unknown, or holding another layer's page — and starts the new
		// restore point. The charges stay the paper's: a restore copies
		// the captured footprint; a COW reset copies back the pages
		// dirtied since the snapshot point. Neither depends on how the
		// forest shares pages or on what the shell held before.
		dirty := ctx.DirtyCount()
		written := be.pages.add(ctx.Rebase(snap.layer))
		name, arg := "snap-restore", uint64(snap.captured)
		if resident {
			clk.Advance(cycles.MemcpyCost(dirty * vmm.PageSize))
			clk.Advance(uint64(dirty) * cycles.COWResetPerPage)
			res.COWPages = dirty
			name, arg = "snap-cow-reset", uint64(dirty)
		} else {
			clk.Advance(cycles.MemcpyCost(snap.captured))
		}
		if tr := w.tracer; tr.Enabled() {
			tr.Instant(obs.ControlLane, obs.KindSnapshot, name, clk.Now(), 0, arg, uint64(written))
		}
		ctx.CPU.Restore(snap.state)
		clk.Advance(cycles.GuestLoadSetup)
		res.SnapshotUsed = true
		return nil, nil
	}
	boot := w.bootFor(be, img, cfg, len(ctx.Mem))
	if boot != nil && boot.layer != nil {
		// Memory and dirty set as the recorded boot left them; the first
		// entry resumes the vCPU. Charged as the image copy it replaces.
		written := be.pages.add(ctx.Rebase(boot.layer))
		for _, p := range boot.dirty {
			ctx.HostWrite(uint64(p)*vmm.PageSize, vmm.PageSize)
		}
		clk.Advance(cycles.MemcpyCost(len(img.Code)))
		be.boots.replays.Add(1)
		if tr := w.tracer; tr.Enabled() {
			tr.Instant(obs.ControlLane, obs.KindSnapshot, "boot-replay", clk.Now(), 0, boot.cpu.Retired, uint64(written))
		}
	} else {
		be.pages.add(ctx.Rebase(nil)) // boot on zeroed memory
		if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
			return nil, err
		}
	}
	// Padding is part of the image payload (Fig 12): it is copied with
	// the image even though it is all zeros.
	clk.Advance(cycles.MemcpyCost(img.Pad))
	clk.Advance(cycles.GuestLoadSetup)
	return boot, nil
}

// runGuest drives the vCPU until halt or guest exit(), interposing on
// every hypercall.
func (w *Wasp) runGuest(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, gm *guestMem, res *Result, boot *bootRecord, clk *cycles.Clock) error {
	ex := w.enter(be, ctx, img, cfg, boot, clk)
	if firstExitGate != nil {
		firstExitGate(ctx)
	}
	for ; ; ex = ctx.Run(cfg.MaxSteps) {
		switch ex.Reason {
		case cpu.ExitHalt:
			return nil
		case cpu.ExitFault:
			return fmt.Errorf("wasp: virtine %s faulted: %w", img.Name, ex.Err)
		case cpu.ExitIO:
			done, err := w.serviceHypercall(be, ctx, img, cfg, gm, res, ex, clk)
			if err != nil {
				return err
			}
			if done {
				return nil
			}
		default:
			return fmt.Errorf("wasp: virtine %s: unexpected exit %v", img.Name, ex.Reason)
		}
	}
}

// serviceHypercall is the interposition layer (§5.1): decode the call
// from the vCPU registers, consult the client policy, dispatch to the
// handler, write the result into RAX, and resume.
func (w *Wasp) serviceHypercall(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, gm *guestMem, res *Result, ex *cpu.Exit, clk *cycles.Clock) (done bool, err error) {
	clk.Advance(cycles.HypercallDispatch)
	regs := &ctx.CPU.Regs
	call := hypercall.Args{
		Nr: ex.Port,
		A0: regs[isa.RDI], A1: regs[isa.RSI], A2: regs[isa.RDX],
		A3: regs[isa.R10], A4: regs[isa.R8], A5: regs[isa.R9],
	}

	// Mechanism calls bypass policy: exit is always available (§5.1),
	// mark is hypervisor instrumentation, and snapshot is the §5.2
	// mechanism the language extensions rely on by default.
	mechanism := call.Nr == hypercall.NrExit || call.Nr == hypercall.NrMark || call.Nr == hypercall.NrSnapshot
	if !mechanism && !cfg.Policy.Allow(call.Nr) {
		return false, fmt.Errorf("wasp: virtine %s: %s: %w", img.Name, hypercall.Name(call.Nr), hypercall.ErrDenied)
	}

	if call.Nr == hypercall.NrSnapshot && cfg.Snapshot && w.snapEnable {
		// Capture the reset state: guest memory up to the image
		// footprint plus the stack, and the architectural state. The
		// copy is charged — the paper's Fig 11 snapshot bars include
		// the initial capture overhead.
		snap, err := w.capture(be, ctx, img, nil, false, clk)
		if err != nil {
			return false, err
		}
		res.residentOn = snap
	}

	ret, herr := cfg.Handler.Handle(call, gm)
	if herr != nil {
		return false, fmt.Errorf("wasp: virtine %s: %s failed: %w", img.Name, hypercall.Name(call.Nr), herr)
	}
	if ex.In {
		regs[ex.Reg] = ret
	} else {
		regs[isa.RAX] = ret
	}
	if cfg.Env.Exited {
		return true, nil
	}
	return false, nil
}

// capture stores a snapshot of the context for img in the backend's
// registry. The memory captured is the image footprint plus the stack
// region — what the paper's memcpy-based reset copies (§6.2); the
// charged cost scales with image size regardless of representation.
//
// The capture goes into the backend's content-addressed snapshot
// forest: deduplicated against every page already stored and — when the
// backend already holds a base layer for this image *content* —
// recorded as a thin delta owning only the pages that differ from the
// base. The first capture of a content becomes its shared base layer,
// so tenant clones made with guest.Image.WithName cost their delta, not
// the image. A page the shell's content record already knows is taken
// from the record, and one equal to the base's is compared, not hashed
// (vmm.Context.Capture), so a capture hashes its delta.
func (w *Wasp) capture(be *backend, ctx *vmm.Context, img *guest.Image, native any, booted bool, clk *cycles.Clock) (*snapshot, error) {
	windows, captured := captureWindows(img, len(ctx.Mem))
	base := be.bases.get(img.ContentKey())
	if base != nil && base.MemLen() != len(ctx.Mem) {
		// Same content at a different geometry (e.g. a WithPad
		// variant): capture standalone rather than misgraft.
		base = nil
	}
	if captureGate != nil {
		captureGate(ctx)
	}
	layer, hashed, reused, err := ctx.Capture(be.forest, base, windows)
	if err != nil {
		return nil, err
	}
	be.pages.hashed.Add(uint64(hashed))
	be.pages.reused.Add(uint64(reused))
	snap := &snapshot{
		layer:      layer,
		contentKey: img.ContentKey(),
		captured:   captured,
		state:      ctx.CPU.Save(),
		native:     native,
		booted:     booted,
	}
	if base == nil {
		be.bases.register(img.ContentKey(), snap.layer)
	}
	clk.Advance(cycles.MemcpyCost(captured))
	be.snapshots.put(img.Name, snap)
	if tr := w.tracer; tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindSnapshot, "snap-capture",
			clk.Now(), 0, uint64(captured), uint64(hashed))
	}
	return snap, nil
}

// captureWindows returns what a snapshot of img captures from guest
// memory of memLen bytes — the image footprint plus the stack region —
// and the byte count the capture is charged for.
func captureWindows(img *guest.Image, memLen int) ([]vmm.Window, int) {
	foot := min(img.Footprint()+img.ExtraHeap, memLen)
	stackStart := max(memLen-guest.StackReserve, foot)
	return []vmm.Window{{Lo: 0, Hi: foot}, {Lo: stackStart, Hi: memLen}}, foot + memLen - stackStart
}

// captureGate, when non-nil, runs on a shell just before its capture
// trusts the shell's content record — a test seam for checking that
// record at exactly that point. Always nil outside tests.
var captureGate func(*vmm.Context)
