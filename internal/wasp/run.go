package wasp

import (
	"errors"
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
	// Snapshot enables the snapshot fast path (§5.2) for this run: the
	// guest's snapshot hypercall captures, and later runs of the image
	// restore. It is the runtime's only snapshot switch.
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
}

const defaultMaxSteps = 200_000_000

// run is one virtine execution's frame, which every phase of RunOn
// reads and writes. It lives in the run's shell (shell.begin fills it,
// shell.end clears it), so a run allocates no frame, and a native
// workload receives it as its NativeCtx.
type run struct {
	w       *Wasp
	be      *backend
	img     *guest.Image
	snap    *snapshot // restored by the run and retained until RunOn returns; nil: a boot
	parkOn  *snapshot // what the shell's memory is a delta over: snap, or the last capture
	res     *Result
	clk     *cycles.Clock
	start   uint64      // clk when RunOn began: Result.Cycles counts from here
	boot    *bootRecord // the boot the first entry replays or records (populate)
	handoff uint64      // the stub's hand-off the arguments wait for; 0: the first entry
	cfg     RunConfig   // the caller's, defaults filled
	gm      guestMem    // the window handlers get; gm.ctx is the shell's context
	callErr error       // the last error NativeCtx.Hypercall returned, already named
}

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
	// Oversized transfers fail before the run takes a shell, charges the
	// clock or registers a snapshot.
	if len(cfg.Args) > guest.ArgMax {
		return nil, fmt.Errorf("wasp: argument blob %d exceeds %d", len(cfg.Args), guest.ArgMax)
	}
	if cfg.RetBytes > guest.RetMax {
		return nil, fmt.Errorf("wasp: return size %d exceeds %d", cfg.RetBytes, guest.RetMax)
	}

	start := clk.Now()
	var snap *snapshot
	if cfg.Snapshot {
		// get retains the snapshot's layer for the life of this run, so
		// a concurrent re-capture of the same image can never release
		// store pages this restore still reads from.
		snap = be.snapshots.get(img.Name)
		defer snap.release()
	}

	cow := w.cow && cfg.Snapshot && img.Native == nil // COW resets serve interpreted guests
	s, resident, err := w.acquire(be, img, snap, cow, clk)
	if err != nil {
		return nil, err
	}
	r := s.begin(run{w: w, be: be, img: img, snap: snap, clk: clk, start: start, cfg: cfg})
	// One way out for the shell, error returns included: drain the tier
	// log while this run still owns the context, clear the run's frame,
	// then release the shell, parked on its snapshot for the image's next
	// COW reset if the run completed and left one. A panic unwinding
	// through the run (perhaps mid-Rebase, with a stale content record)
	// leaves the shell's state unknown: it is dropped, and the panic goes
	// on.
	var park *snapshot // set when the run completes
	defer func() {
		w.drainTierLog(s.ctx)
		if p := recover(); p != nil {
			w.poolDrops.Add(1)
			panic(p)
		}
		s.end()
		w.release(s, park)
	}()

	if err := r.populate(resident); err != nil {
		return nil, err
	}

	// Adopt the image's predecoded code pages (decode once per content,
	// not once per run — renamed tenant clones share the entry). Adoption
	// verifies page content against guest memory, so it is sound for cold
	// loads, snapshot restores, and COW resets alike; under the legacy
	// interpreter the cache is unused.
	if !w.legacyInterp {
		if cc := w.codes.get(img.ContentKey()); !cc.Empty() {
			s.ctx.CPU.AdoptCode(cc)
		}
	}

	// Marshal arguments at guest.ArgAddr (§6.1), charged here. A boot
	// through a stub gets them at its hand-off (enter), so no recording
	// of the stub's prefix ever holds them.
	if len(r.cfg.Args) > 0 {
		clk.Advance(cycles.MemcpyCost(len(r.cfg.Args)))
	}
	if r.handoff == 0 {
		writeArgs(s.ctx, r.cfg.Args)
	}

	// Native images restored from a post-boot snapshot skip the CPU
	// entirely; otherwise run the guest (boot stub or full program).
	if snap == nil || !snap.booted || img.Native == nil {
		if err := r.runGuest(); err != nil {
			return nil, err
		}
	}
	if img.Native != nil && !r.cfg.Env.Exited {
		if err := r.runNative(); err != nil {
			return nil, err
		}
	}
	r.finish()
	if cow {
		park = r.parkOn
	}
	return r.res, nil
}

// runNative enters a native image's workload (§6.5) with virtine
// semantics: the platform's entry and exit costs around it, and the
// frame itself as the workload's NativeCtx, which sees the restored
// workload state when the run restored a snapshot. A hypercall error the
// workload passes on, bare or wrapped, is already named with the virtine
// (bare, it reads as an interpreted guest's); its own errors are named
// with the virtine here. The exit charged
// after the workload returns is one an interpreted guest does not pay:
// NativeCtx.Hypercall re-enters after the workload's NrExit, so a native
// run makes one entry/exit pair more than an interpreted exit().
func (r *run) runNative() error {
	ctx := r.gm.ctx
	// The workload writes through its Mem slice, behind the store
	// barrier and possibly after a TakeSnapshot, so however it
	// returns, the shell's content is unknown from then on.
	defer ctx.Forget()
	r.clk.Advance(r.be.platform.EntryCost())
	if ctx.FirstEntry == 0 {
		ctx.FirstEntry = r.clk.Now()
	}
	ctx.Entries++
	if err := r.img.Native((*NativeCtx)(r)); err != nil {
		if r.callErr == nil || !errors.Is(err, r.callErr) {
			err = fmt.Errorf("wasp: virtine %s: %w", r.img.Name, err)
		}
		return err
	}
	r.clk.Advance(r.be.platform.ExitCost())
	return nil
}

// finish copies a completed run's outputs into res — the return region,
// the environment's outputs, milestones rebased on the first guest entry,
// and the shell counters' deltas since the start res holds — and
// harvests newly decoded code.
func (r *run) finish() {
	ctx, cfg, res, w := r.gm.ctx, &r.cfg, r.res, r.w
	if cfg.RetBytes > 0 {
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
	res.Cycles = r.clk.Now() - r.start
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
		tr.Span(obs.ControlLane, obs.KindGuest, r.img.Name,
			r.start, r.clk.Now(), 0, res.JIT.BlocksCompiled, res.JIT.BlockDeopts)
	}
	// Harvest newly decoded pages into the per-image registry so the
	// next run — on any shell — starts predecoded. On the warm path
	// every page was adopted and nothing new was decoded, so the
	// freeze/merge (and its registry write lock) is skipped entirely.
	if !w.legacyInterp && ctx.CPU.CodeNew() {
		w.codes.merge(r.img.ContentKey(), ctx.CPU.ShareCode())
	}
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
// or COW reset (resident: the shell is a delta over the run's snapshot),
// or a cold boot replayed (boot.go) or loaded onto zeroed memory. A boot
// leaves the record its first entry replays or makes in r.boot, and its
// stub's hand-off in r.handoff.
//
// All four are one Rebase onto the snapshot's layer, the recording's, or
// nil: it rewrites only the pages that differ from the target — dirty,
// unknown, or holding another layer's page. The charges stay the paper's
// and each kind's own: a restore copies the captured footprint; a COW
// reset copies back the pages dirtied since the snapshot point; a replay
// is charged as the image copy it replaces. None depends on how the
// forest shares pages or on what the shell held before.
func (r *run) populate(resident bool) error {
	ctx, img, snap, clk := r.gm.ctx, r.img, r.snap, r.clk
	var target *vmm.Layer
	if snap != nil {
		target = snap.layer
	} else if r.boot = r.bootFor(); r.boot != nil {
		target = r.boot.layer // nil for a boot yet to record
		defer target.Release()
	}
	dirty := ctx.DirtyCount()
	written := r.be.pages.add(ctx.Rebase(target))
	var event string
	var arg uint64
	switch {
	case snap != nil && resident:
		clk.Advance(cycles.MemcpyCost(dirty * vmm.PageSize))
		clk.Advance(uint64(dirty) * cycles.COWResetPerPage)
		r.res.COWPages = dirty
		event, arg = "snap-cow-reset", uint64(dirty)
	case snap != nil:
		clk.Advance(cycles.MemcpyCost(snap.captured))
		event, arg = "snap-restore", uint64(snap.captured)
	case target != nil:
		// Memory and dirty set as the recorded boot left them; the first
		// entry resumes the vCPU.
		for _, p := range r.boot.dirty {
			ctx.HostWrite(uint64(p)*vmm.PageSize, vmm.PageSize)
		}
		clk.Advance(cycles.MemcpyCost(len(img.Code)))
		r.be.content.replays.Add(1)
		event, arg = "boot-replay", r.boot.cpu.Retired
	default: // boot on zeroed memory
		if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
			return err
		}
	}
	if tr := r.w.tracer; tr.Enabled() && event != "" {
		tr.Instant(obs.ControlLane, obs.KindSnapshot, event, clk.Now(), 0, arg, uint64(written))
	}
	if snap != nil {
		ctx.CPU.Restore(snap.state)
		r.res.SnapshotUsed = true
	} else {
		// Padding is part of the image payload (Fig 12): it is copied with
		// the image even though it is all zeros.
		clk.Advance(cycles.MemcpyCost(img.Pad))
		r.handoff = img.Handoff
	}
	clk.Advance(cycles.GuestLoadSetup)
	return nil
}

// runGuest drives the vCPU until halt or guest exit(), interposing on
// every hypercall.
func (r *run) runGuest() error {
	ctx := r.gm.ctx
	ex := r.enter()
	if firstExitGate != nil {
		firstExitGate(ctx)
	}
	for ; ; ex = ctx.Run(r.cfg.MaxSteps) {
		switch ex.Reason {
		case cpu.ExitHalt:
			return nil
		case cpu.ExitFault:
			return fmt.Errorf("wasp: virtine %s faulted: %w", r.img.Name, ex.Err)
		case cpu.ExitIO:
			if done, err := r.serviceHypercall(ex); done || err != nil {
				return err
			}
		default:
			return fmt.Errorf("wasp: virtine %s: unexpected exit %v", r.img.Name, ex.Reason)
		}
	}
}

// serviceHypercall services an interpreted guest's hypercall exit:
// decode the call from the vCPU registers, capture the reset state on a
// snapshot call, interpose, write the result into the register the exit
// names, and resume.
func (r *run) serviceHypercall(ex *cpu.Exit) (done bool, err error) {
	r.clk.Advance(cycles.HypercallDispatch)
	regs := &r.gm.ctx.CPU.Regs
	call := hypercall.Args{
		Nr: ex.Port,
		A0: regs[isa.RDI], A1: regs[isa.RSI], A2: regs[isa.RDX],
		A3: regs[isa.R10], A4: regs[isa.R8], A5: regs[isa.R9],
	}
	if call.Nr == hypercall.NrSnapshot && r.cfg.Snapshot {
		// Capture the reset state: guest memory up to the image
		// footprint plus the stack, and the architectural state. The
		// copy is charged — the paper's Fig 11 snapshot bars include
		// the initial capture overhead.
		snap, err := r.capture(nil, false)
		if err != nil {
			return false, err
		}
		r.parkOn = snap
	}
	ret, err := r.interpose(call)
	if err != nil {
		return false, err
	}
	if ex.In {
		regs[ex.Reg] = ret
	} else {
		regs[isa.RAX] = ret
	}
	return r.cfg.Env.Exited, nil
}

// interpose is the interposition layer (§5.1) every hypercall crosses,
// an interpreted guest's and a native workload's alike: consult the
// client policy and dispatch to the handler. Mechanism calls bypass
// policy: exit is always available (§5.1), mark is hypervisor
// instrumentation, and snapshot is the §5.2 mechanism the language
// extensions rely on by default.
func (r *run) interpose(call hypercall.Args) (uint64, error) {
	mechanism := call.Nr == hypercall.NrExit || call.Nr == hypercall.NrMark || call.Nr == hypercall.NrSnapshot
	if !mechanism && !r.cfg.Policy.Allow(call.Nr) {
		return 0, fmt.Errorf("wasp: virtine %s: %s: %w", r.img.Name, hypercall.Name(call.Nr), hypercall.ErrDenied)
	}
	ret, err := r.cfg.Handler.Handle(call, &r.gm)
	if err != nil {
		return 0, fmt.Errorf("wasp: virtine %s: %s failed: %w", r.img.Name, hypercall.Name(call.Nr), err)
	}
	return ret, nil
}

// capture stores a snapshot of the shell for the run's image in the
// backend's registry, with a native workload's opaque state. The memory
// captured is the image footprint plus the stack region — what the
// paper's memcpy-based reset copies (§6.2); the charged cost scales with
// image size regardless of representation.
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
func (r *run) capture(native any, booted bool) (*snapshot, error) {
	ctx, img, be, clk := r.gm.ctx, r.img, r.be, r.clk
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
	r.w.release(be.snapshots.put(img.Name, snap), nil)
	if tr := r.w.tracer; tr.Enabled() {
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
