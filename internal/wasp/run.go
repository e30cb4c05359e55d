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
	// over — the one restored, or the last one captured. A completed COW
	// run parks its shell on it; RunOn clears it before the caller sees
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
	s, resident, err := w.acquire(be, img, snap, cow, clk)
	if err != nil {
		return nil, err
	}
	ctx := s.ctx
	// Tier transitions (trace compiles, deopts) batch into the CPU's
	// bounded log during the run and drain into the tracer at run end
	// (drainTierLog), so the guest hot loop never pays an emit.
	ctx.CPU.TierTrace = w.tracer.Enabled()
	ctx.CPU.Legacy = w.legacyInterp
	// One way out for the shell, error returns included: drain the tier
	// log while this run still owns the context, clear the run's frame,
	// then release the shell, parked on its snapshot for the image's next
	// COW reset if the run completed and left one. A panic unwinding
	// through the run (perhaps mid-Rebase, with a stale content record)
	// leaves the shell's state unknown: it is dropped, and the panic goes
	// on.
	var park *snapshot // set when the run completes
	defer func() {
		w.drainTierLog(ctx)
		if p := recover(); p != nil {
			w.poolDrops.Add(1)
			panic(p)
		}
		s.end()
		w.release(s, park)
	}()
	rc, gm := s.begin(&cfg, clk)

	ctx.FirstEntry = 0
	// Shells are reused (a COW shell is not even reset), so the context's
	// counters are cumulative: res holds them as the run starts, and
	// finish turns them into this run's deltas.
	res.Entries, res.IOExits, res.Retired, res.JIT = ctx.Entries, ctx.ExitsIO, ctx.CPU.Retired, ctx.CPU.Stats

	boot, err := w.populate(be, ctx, img, rc, snap, resident, res, clk)
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

	// Marshal arguments at guest.ArgAddr (§6.1), charged here. A boot
	// through a stub gets them at its hand-off (enter), so no recording
	// of the stub's prefix ever holds them.
	if len(rc.Args) > guest.ArgMax {
		return nil, fmt.Errorf("wasp: argument blob %d exceeds %d", len(rc.Args), guest.ArgMax)
	}
	if len(rc.Args) > 0 {
		clk.Advance(cycles.MemcpyCost(len(rc.Args)))
	}
	var handoff uint64
	if snap == nil {
		handoff = img.Handoff
	}
	if handoff == 0 {
		writeArgs(ctx, rc.Args)
	}

	// Native images restored from a post-boot snapshot skip the CPU
	// entirely; otherwise run the guest (boot stub or full program).
	restoredNative := snap != nil && snap.booted && img.Native != nil
	if !restoredNative {
		if err := w.runGuest(be, ctx, img, rc, gm, res, boot, handoff, clk); err != nil {
			return nil, err
		}
	}
	if img.Native != nil && !rc.Env.Exited {
		if err := w.runNative(be, ctx, img, rc, gm, snap, clk); err != nil {
			return nil, err
		}
	}
	if err := w.finish(ctx, img, rc, res, start, clk); err != nil {
		return nil, err
	}
	if cow {
		park = res.residentOn
	}
	res.residentOn = nil
	return res, nil
}

// fill supplies cfg's defaults and points its environment at clk.
func (cfg *RunConfig) fill(clk *cycles.Clock) {
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
	cfg.Env.Clock = clk
}

// runNative enters a native image's workload (§6.5) with virtine
// semantics: the platform's entry and exit costs around it, the restored
// workload state when the run restored a snapshot.
func (w *Wasp) runNative(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, gm *guestMem, snap *snapshot, clk *cycles.Clock) error {
	nctx := &NativeCtx{wasp: w, be: be, img: img, ctx: ctx, cfg: cfg, clk: clk, gm: gm}
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
		return fmt.Errorf("wasp: native workload: %w", err)
	}
	clk.Advance(be.platform.ExitCost())
	return nil
}

// finish copies a completed run's outputs into res — the return region,
// the environment's outputs, milestones rebased on the first guest entry,
// and the shell counters' deltas since the start res holds — and
// harvests newly decoded code.
func (w *Wasp) finish(ctx *vmm.Context, img *guest.Image, cfg *RunConfig, res *Result, start uint64, clk *cycles.Clock) error {
	if cfg.RetBytes > 0 {
		if cfg.RetBytes > guest.RetMax {
			return fmt.Errorf("wasp: return size %d exceeds %d", cfg.RetBytes, guest.RetMax)
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
	res.Entries = ctx.Entries - res.Entries
	res.IOExits = ctx.ExitsIO - res.IOExits
	res.Retired = ctx.CPU.Retired - res.Retired
	res.BootEvents = ctx.CPU.Events
	res.GuestEntry = ctx.FirstEntry
	res.Cycles = clk.Now() - start
	// Compiled-tier activity: contexts are pooled, so the per-CPU
	// counters are cumulative across tenants — report this run's delta
	// and fold it into the Wasp-lifetime aggregate.
	st := &ctx.CPU.Stats
	res.JIT = cpu.JITStats{
		BlocksCompiled: st.BlocksCompiled - res.JIT.BlocksCompiled,
		BlockHits:      st.BlockHits - res.JIT.BlockHits,
		BlockDeopts:    st.BlockDeopts - res.JIT.BlockDeopts,
	}
	w.jitCompiled.Add(res.JIT.BlocksCompiled)
	w.jitHits.Add(res.JIT.BlockHits)
	w.jitDeopts.Add(res.JIT.BlockDeopts)
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
	return nil
}

// drainTierLog moves the run's batched tier transitions into the tracer
// and resets the CPU's log and flag. Contexts are pooled, so it must run
// before the shell reaches the pool or parks on a snapshot — from there
// the next run owns it.
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
//
// All four are one Rebase onto the snapshot's layer, the recording's, or
// nil: it rewrites only the pages that differ from the target — dirty,
// unknown, or holding another layer's page. The charges stay the paper's
// and each kind's own: a restore copies the captured footprint; a COW
// reset copies back the pages dirtied since the snapshot point; a replay
// is charged as the image copy it replaces. None depends on how the
// forest shares pages or on what the shell held before.
func (w *Wasp) populate(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, snap *snapshot, resident bool, res *Result, clk *cycles.Clock) (*bootRecord, error) {
	var target *vmm.Layer
	var boot *bootRecord
	if snap != nil {
		target = snap.layer
	} else if boot = w.bootFor(be, img, cfg, len(ctx.Mem)); boot != nil {
		target = boot.layer // nil for a boot yet to record
		defer target.Release()
	}
	dirty := ctx.DirtyCount()
	written := be.pages.add(ctx.Rebase(target))
	var event string
	var arg uint64
	switch {
	case snap != nil && resident:
		clk.Advance(cycles.MemcpyCost(dirty * vmm.PageSize))
		clk.Advance(uint64(dirty) * cycles.COWResetPerPage)
		res.COWPages = dirty
		event, arg = "snap-cow-reset", uint64(dirty)
	case snap != nil:
		clk.Advance(cycles.MemcpyCost(snap.captured))
		event, arg = "snap-restore", uint64(snap.captured)
	case target != nil:
		// Memory and dirty set as the recorded boot left them; the first
		// entry resumes the vCPU.
		for _, p := range boot.dirty {
			ctx.HostWrite(uint64(p)*vmm.PageSize, vmm.PageSize)
		}
		clk.Advance(cycles.MemcpyCost(len(img.Code)))
		be.content.replays.Add(1)
		event, arg = "boot-replay", boot.cpu.Retired
	default: // boot on zeroed memory
		if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
			return nil, err
		}
	}
	if tr := w.tracer; tr.Enabled() && event != "" {
		tr.Instant(obs.ControlLane, obs.KindSnapshot, event, clk.Now(), 0, arg, uint64(written))
	}
	if snap != nil {
		ctx.CPU.Restore(snap.state)
		res.SnapshotUsed = true
	} else {
		// Padding is part of the image payload (Fig 12): it is copied with
		// the image even though it is all zeros.
		clk.Advance(cycles.MemcpyCost(img.Pad))
	}
	clk.Advance(cycles.GuestLoadSetup)
	return boot, nil
}

// runGuest drives the vCPU until halt or guest exit(), interposing on
// every hypercall.
func (w *Wasp) runGuest(be *backend, ctx *vmm.Context, img *guest.Image, cfg *RunConfig, gm *guestMem, res *Result, boot *bootRecord, handoff uint64, clk *cycles.Clock) error {
	ex := w.enter(be, ctx, img, cfg, boot, handoff, clk)
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
			if done, err := w.serviceHypercall(be, ctx, img, cfg, gm, res, ex, clk); done || err != nil {
				return err
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
	return cfg.Env.Exited, nil
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
	// The key carries the geometry: the same content at another size
	// (e.g. a WithPad variant) has a base of its own.
	key := contentKey{img.ContentKey(), len(ctx.Mem)}
	base := be.content.base(key)
	defer base.Release()
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
		be.content.setBase(key, snap.layer)
	}
	clk.Advance(cycles.MemcpyCost(captured))
	w.release(be.snapshots.put(img.Name, snap), nil)
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
