// Package wasp implements the Wasp embeddable micro-hypervisor runtime
// (§5): a userspace library that virtine clients link against to run
// individual functions in isolated virtual contexts.
//
// Wasp provides the mechanisms — context provisioning, image loading,
// snapshotting, hypercall interposition — while the virtine client
// supplies policy: which hypercalls are permitted and how they are
// serviced. The default is deny-all (§5.1).
//
// Two optimizations from §5.2 are implemented for real:
//
//   - Pooling/caching: returned contexts are cached as "shells";
//     acquiring a cached shell costs pool bookkeeping instead of
//     KVM_CREATE_VM. A released shell is pooled dirty and cleaned on its
//     next acquire (vCPU reset, then the populate step's Rebase rewrites
//     every page that differs from what the run needs, preventing
//     information leakage). The zeroing cost is charged on the acquiring
//     request's clock (Wasp+C) or on the Cleaner's dedicated virtual
//     cleaner core, never on a request path (Wasp+CA; see cleaner.go).
//     Each size class caches at most 64 shells and gives one back to the
//     host after a streak of completions the scheduler saw no queue for
//     (ObserveLoadOn; see pool.go).
//   - Snapshotting: a virtine may capture its state after initialization;
//     subsequent executions of the same image restore the snapshot (one
//     memcpy) and resume at the snapshot point, skipping boot and runtime
//     init (Fig 7).
//
// One Wasp may span several hosted-hypervisor backends (Fig 5: KVM on
// Linux, Hyper-V/WHP on Windows) via WithPlatforms. Mutable runtime
// state — shell pools, the snapshot registry (whose snapshots hold their
// parked COW shells), the content registry of base layers and boot
// recordings, the cleaner's ledger — is partitioned per backend: a shell
// created on KVM is never handed to a Hyper-V run, and each backend's
// pools shrink on their own telemetry. Only the decoded-code registry
// is shared, because decoded guest code depends on image content
// alone, not on the hypervisor underneath. The placement layer
// (internal/placement) and the scheduler's platform-affine workers
// decide which backend an invocation lands on; RunOn is the per-backend
// entry point.
package wasp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// Wasp is the hypervisor runtime. It is safe for concurrent use; each
// Run advances its own caller-supplied clock, so concurrent runs model
// independent cores. Mutable state is split into independently locked
// pieces (see pool.go), partitioned per hypervisor backend, so
// concurrent Runs on different images, size classes, or platforms never
// contend on a single runtime-wide lock.
type Wasp struct {
	backends []*backend
	byPlat   map[string]*backend
	codes    codeRegistry // shared: decoded code is platform-independent

	pooling      bool
	asyncClean   bool
	cow          bool
	legacyInterp bool
	platforms    []vmm.Platform

	poolDrops atomic.Uint64 // sync-clean shells dropped at the capacity bound, and shells of panicked runs

	// Lifetime compiled-tier activity, aggregated from per-run deltas
	// (contexts are pooled, so per-CPU counters alone mean nothing).
	jitCompiled atomic.Uint64
	jitHits     atomic.Uint64
	jitDeopts   atomic.Uint64

	// tracer is the flight recorder (internal/obs) set by WithTracer and
	// never changed after New; nil or disabled, every instrumentation
	// site costs one atomic load.
	tracer *obs.Tracer
}

// backend is one hosted-hypervisor's slice of the runtime: its shell
// pools, its two registries over the snapshot forest — snapshots by image
// name, each holding the COW shell parked on it, and base layers and
// boot recordings by content (forest.go) — and (under Wasp+CA) its own
// cleaner. Everything keyed by guest-memory content or VM state lives
// here; a backend's shells and snapshots never serve another platform.
type backend struct {
	platform  vmm.Platform
	pools     shellPools
	snapshots snapRegistry
	content   contentRegistry
	cleaner   *Cleaner       // non-nil iff pooling && asyncClean
	forest    *vmm.PageStore // content-addressed page store behind all snapshots
	pages     shellPages     // what populating and capturing shells did
}

// shellPages tallies vmm.Context.Rebase and Capture over one backend's
// shells: pages rewritten and pages found already holding their target;
// captured pages hashed and pages taken from the content record.
type shellPages struct{ written, kept, hashed, reused atomic.Uint64 }

func (s *shellPages) add(written, kept int) int {
	s.written.Add(uint64(written))
	s.kept.Add(uint64(kept))
	return written
}

// shell is the record of one vmm.Context for as long as the context
// lives: the pool, the snapshot a shell parks on and the cleaner all
// hold this same record, so handing a shell around allocates nothing.
//
// While a run owns the shell, the record also holds that run's frame
// (run): runtime, backend, image, restored snapshot, the snapshot the
// shell parks on, Result, clock, start time, boot record, hand-off,
// RunConfig and guest-memory window. end clears it and release drops the
// context's clock before the shell is pooled or parked, so a resting
// shell pins nothing of a finished run: no environment, handler,
// arguments, Result or clock, only up to maxScratch bytes of the window's
// ReadGuest scratch.
type shell struct {
	ctx    *vmm.Context
	dirty  bool
	owedIn uint64 // the cleaner's settlement period that owes this release; 0: none
	// restedAt is the virtual time release last parked or pooled it at.
	restedAt uint64

	run
}

// maxScratch bounds the ReadGuest scratch a resting shell keeps: a run
// that read more in one hypercall leaves it for the collector.
const maxScratch = 16 << 10

// begin makes f the frame of the run that has just acquired the shell:
// f's config gets its defaults, its environment and the context go on
// f's clock, and the run gets a window over the context's memory and a
// Result holding its cumulative counters, which finish turns into this
// run's deltas. The context's tier log goes on if the tracer is, and its
// first entry is unset. The frame is valid until end.
func (s *shell) begin(f run) *run {
	ctx, cfg := s.ctx, &f.cfg
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
	cfg.Env.Clock = f.clk
	ctx.Clock, ctx.CPU.Clock = f.clk, f.clk
	f.parkOn = f.snap
	f.res = &Result{Entries: ctx.Entries, IOExits: ctx.ExitsIO, Retired: ctx.CPU.Retired, JIT: ctx.CPU.Stats}
	f.gm = guestMem{ctx: ctx, mem: ctx.Mem, clk: f.clk, scratch: s.gm.scratch}
	s.run = f
	// Tier transitions batch into the CPU's bounded log during the run
	// and drain into the tracer at run end (drainTierLog).
	ctx.CPU.TierTrace = f.w.tracer.Enabled()
	ctx.CPU.Legacy = f.w.legacyInterp
	ctx.FirstEntry = 0
	return &s.run
}

// end clears the run frame, keeping the window's scratch up to
// maxScratch bytes.
func (s *shell) end() {
	scratch := s.gm.scratch
	if cap(scratch) > maxScratch {
		scratch = nil
	}
	s.run = run{gm: guestMem{scratch: scratch}}
}

// snapshot is one image's reset point: a content-addressed layer whose
// pages live in the backend's shared store, so tenant clones of one
// binary are thin deltas over a shared base layer.
type snapshot struct {
	layer      *vmm.Layer // page table into the shared store
	contentKey string     // image content key
	captured   int        // bytes actually captured (restore cost basis)
	state      cpu.State
	native     any // opaque workload state for native images (§6.5 engine reuse)
	booted     bool
	// cow is the shell parked for the image's next COW reset (§7.2): its
	// memory is a dirty-page delta over this snapshot, so it can serve no
	// other. retired fills it once the snapshot has left its registry.
	cow atomic.Pointer[shell]
}

// retired marks the parking spot of a snapshot its registry has let go.
var retired = new(shell)

// park leaves sh on s for the next COW reset against s. It fails when a
// shell is parked already or s has left its registry: the caller pools sh.
func (s *snapshot) park(sh *shell) bool { return s.cow.CompareAndSwap(nil, sh) }

// unpark takes the shell parked on s, or nil.
func (s *snapshot) unpark() *shell {
	c := s.cow.Load()
	if c == nil || c == retired || !s.cow.CompareAndSwap(c, nil) {
		return nil
	}
	return c
}

// retire is s leaving its registry, which happens once: it drops the
// registry's layer reference and returns the shell parked on s, if any,
// for the caller to pool; nothing can park on s after. It tolerates nil.
func (s *snapshot) retire() *shell {
	if s == nil {
		return nil
	}
	s.layer.Release()
	return s.cow.Swap(retired)
}

// release undoes snapRegistry.get's retain. It tolerates nil.
func (s *snapshot) release() {
	if s != nil {
		s.layer.Release()
	}
}

// Option configures a Wasp instance.
type Option func(*Wasp)

// WithPooling enables or disables the cached shell pool (§5.2). Enabled
// in the default configuration.
func WithPooling(on bool) Option { return func(w *Wasp) { w.pooling = on } }

// WithAsyncClean moves shell cleaning off the critical path (the Wasp+CA
// configuration of Fig 8): shells are pooled and reset exactly as under
// Wasp+C, but a reused shell's zeroing cost is charged to the backend's
// Cleaner, a dedicated virtual cleaner core, instead of the acquiring
// request. With multiple platforms each backend gets its own cleaner.
func WithAsyncClean(on bool) Option { return func(w *Wasp) { w.asyncClean = on } }

// WithPlatforms selects the hosted-hypervisor backends (Fig 5): vmm.KVM{}
// on Linux, vmm.HyperV{} on Windows; default KVM alone. The first
// platform is the default (Run without a platform lands there);
// RunOn and the scheduler's platform-affine workers address the others.
// Shell pools, snapshot and content registries, prewarming, idle
// shrinking, and async cleaning are all partitioned per platform.
// Duplicate platform names collapse to one backend.
func WithPlatforms(ps ...vmm.Platform) Option {
	return func(w *Wasp) {
		if len(ps) > 0 {
			w.platforms = append([]vmm.Platform(nil), ps...)
		}
	}
}

// WithLegacyInterp runs every guest instruction through cpu.Step instead
// of compiled traces, and disables the per-image decoded-code registry.
// It is the reference the differential determinism tests compare the
// trace engine against: virtual-cycle results are bit-identical either
// way; only host wall-clock differs.
func WithLegacyInterp(on bool) Option { return func(w *Wasp) { w.legacyInterp = on } }

// WithTracer attaches a flight recorder (internal/obs): the runtime
// emits shell-provisioning (pool hit / cold create / COW take /
// prewarm), release, cleaner-ledger, snapshot capture/restore,
// guest-run and migration events into it, and a scheduler built over
// the runtime records into it too. A nil or disabled tracer costs one
// atomic load per instrumented operation.
func WithTracer(tr *obs.Tracer) Option { return func(w *Wasp) { w.tracer = tr } }

// WithCOW enables copy-on-write snapshot resets (§7.2's anticipated
// optimization, as in SEUSS): a context stays bound to its image between
// runs, and each restore copies back only the pages dirtied since the
// snapshot point instead of the whole image. Applies to interpreted
// guests; native workloads fall back to full restores.
func WithCOW(on bool) Option { return func(w *Wasp) { w.cow = on } }

// New returns a Wasp runtime with pooling enabled and synchronous
// cleaning — the paper's default configuration. Snapshotting is per run
// (RunConfig.Snapshot).
func New(opts ...Option) *Wasp {
	w := &Wasp{
		pooling:   true,
		platforms: []vmm.Platform{vmm.KVM{}},
	}
	for _, o := range opts {
		o(w)
	}
	w.byPlat = make(map[string]*backend, len(w.platforms))
	for _, p := range w.platforms {
		if _, dup := w.byPlat[p.Name()]; dup {
			continue
		}
		be := &backend{platform: p, forest: vmm.NewPageStore()}
		be.pools.max = maxPerClass
		if w.pooling && w.asyncClean {
			be.cleaner = newCleaner(w.tracer)
		}
		w.backends = append(w.backends, be)
		w.byPlat[p.Name()] = be
	}
	return w
}

// Tracer returns the flight recorder the runtime was built with
// (WithTracer), or nil.
func (w *Wasp) Tracer() *obs.Tracer { return w.tracer }

// Platforms lists the runtime's backends; the first is the default.
func (w *Wasp) Platforms() []vmm.Platform {
	out := make([]vmm.Platform, len(w.backends))
	for i, be := range w.backends {
		out[i] = be.platform
	}
	return out
}

// HasPlatform reports whether the runtime owns a backend of that name.
func (w *Wasp) HasPlatform(name string) bool {
	_, ok := w.byPlat[name]
	return ok
}

// backendFor resolves a platform name to its backend; "" means the
// default (first) backend.
func (w *Wasp) backendFor(platform string) (*backend, error) {
	if platform == "" {
		return w.backends[0], nil
	}
	be := w.byPlat[platform]
	if be == nil {
		return nil, fmt.Errorf("wasp: no %q backend (have %v)", platform, w.platformNames())
	}
	return be, nil
}

func (w *Wasp) platformNames() []string {
	out := make([]string, len(w.backends))
	for i, be := range w.backends {
		out[i] = be.platform.Name()
	}
	return out
}

// acquire provisions a run's shell on one backend from the first of
// three sources that has one: the COW shell parked on the run's snapshot
// (§7.2; only when cow, and resident reports it), the backend's pool
// (Fig 6 path D), or a cold create on its platform (path C). A pooled
// shell that ran before is dirty: acquire resets its vCPU and leaves
// memory to populate's Rebase, which rewrites only the pages that differ
// from what this run needs. Its zeroing cost lands on the request's
// clock under Wasp+C and on the cleaner's ledger under Wasp+CA.
func (w *Wasp) acquire(be *backend, img *guest.Image, snap *snapshot, cow bool, clk *cycles.Clock) (s *shell, resident bool, err error) {
	memBytes := img.MemBytes()
	if cow && snap != nil {
		if s := snap.unpark(); s != nil {
			clk.Advance(cycles.PoolAcquire)
			w.shellEvent("shell-cow", memBytes, clk)
			return s, true, nil
		}
	}
	if s := be.pools.take(memBytes); s != nil { // pools stay empty with pooling off
		// Partition invariant: release routes by the context's own
		// platform, so a foreign shell here is corrupted state. It is
		// dropped and the run fails rather than run on the wrong VMM.
		if got := s.ctx.Platform().Name(); got != be.platform.Name() {
			return nil, false, fmt.Errorf("wasp: %s shell crossed into the %s pool", got, be.platform.Name())
		}
		w.shellEvent("shell-pool", memBytes, clk)
		clk.Advance(cycles.PoolAcquire)
		if s.dirty {
			s.ctx.Reset()
			if be.cleaner != nil {
				be.cleaner.reacquired(s, memBytes)
			} else {
				clk.Advance(cycles.ZeroCost(memBytes))
			}
		}
		return s, false, nil
	}
	w.shellEvent("shell-cold", memBytes, clk)
	return &shell{ctx: vmm.CreateOn(be.platform, memBytes, clk)}, false, nil
}

// shellEvent records where a run's shell came from.
func (w *Wasp) shellEvent(src string, memBytes int, clk *cycles.Clock) {
	if tr := w.tracer; tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindShell, src, clk.Now(), 0, uint64(memBytes), 0)
	}
}

// release gives a shell back to the backend it was created on: parked on
// on, the snapshot its memory is a delta over, when on is non-nil and
// takes it; otherwise pooled dirty, under Wasp+C and Wasp+CA alike, or
// dropped for the host to reclaim when pooling is off or the size class
// is at its capacity bound. Under Wasp+CA the backend's cleaner books the
// release. The context lets go of the last run's clock, which nothing
// reads until the next run's begin hands over its own; a shell released
// from its parking spot has none, and its release is stamped with the
// virtual time it came to rest. A nil s is a no-op.
func (w *Wasp) release(s *shell, on *snapshot) {
	if s == nil {
		return
	}
	ctx := s.ctx
	if ctx.Clock != nil {
		s.restedAt = ctx.Clock.Now()
	}
	ctx.Clock, ctx.CPU.Clock = nil, nil
	at := s.restedAt
	if on != nil && on.park(s) || !w.pooling {
		return
	}
	be := w.byPlat[ctx.Platform().Name()]
	if be == nil {
		return // foreign context (tests building raw vmm state): drop it
	}
	if tr := w.tracer; tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindRelease, "release", at, 0, uint64(len(ctx.Mem)), uint64(bit(be.cleaner != nil, 1)))
	}
	s.dirty, s.owedIn = true, 0
	if be.cleaner != nil {
		be.cleaner.owe(s, len(ctx.Mem), at)
	}
	if !be.pools.put(len(ctx.Mem), s) {
		if be.cleaner != nil {
			be.cleaner.dropped.Add(1)
		} else {
			w.poolDrops.Add(1)
		}
	}
}

// PoolSize reports the number of cached shells for a memory size on the
// default backend.
func (w *Wasp) PoolSize(memBytes int) int {
	return w.backends[0].pools.size(memBytes)
}

// PoolTotal reports the number of cached shells across all size classes
// and all backends.
func (w *Wasp) PoolTotal() int {
	n := 0
	for _, be := range w.backends {
		n += be.pools.total()
	}
	return n
}

// PoolDropped reports Wasp+C releases dropped at the capacity bound, and
// the shells of runs a panic unwound through (all backends). Wasp+CA
// drops at the bound are reported by Cleaner.Dropped.
func (w *Wasp) PoolDropped() uint64 { return w.poolDrops.Load() }

// Cleaner exposes the default backend's cleaner ledger, or nil when
// cleaning is charged on the request (Wasp+C) or pooling is off.
func (w *Wasp) Cleaner() *Cleaner { return w.backends[0].cleaner }

// Cleaners lists every backend's cleaner ledger, in backend order; empty
// under Wasp+C. The virtual-mode scheduler settles all of them.
func (w *Wasp) Cleaners() []*Cleaner {
	var out []*Cleaner
	for _, be := range w.backends {
		if be.cleaner != nil {
			out = append(out, be.cleaner)
		}
	}
	return out
}

// Prewarm tops a size class up to n cached clean shells on the default
// backend; see PrewarmOn.
func (w *Wasp) Prewarm(memBytes, n int) int {
	return w.prewarm(w.backends[0], memBytes, n)
}

// PrewarmOn tops a size class up to n cached clean shells (clamped to
// the class's capacity of 64) on one backend ahead of demand; classes
// already at or above n are left alone. Creation cost lands on a private clock:
// prewarming is provisioning work off any measured request path. It
// reports how many shells were added (0 for an unknown platform).
func (w *Wasp) PrewarmOn(platform string, memBytes, n int) int {
	be, err := w.backendFor(platform)
	if err != nil {
		return 0
	}
	return w.prewarm(be, memBytes, n)
}

func (w *Wasp) prewarm(be *backend, memBytes, n int) int {
	if !w.pooling {
		return 0
	}
	n = min(n, be.pools.max)
	added := 0
	for be.pools.size(memBytes) < n {
		ctx := vmm.CreateOn(be.platform, memBytes, cycles.NewClock())
		if !be.pools.put(memBytes, &shell{ctx: ctx}) {
			break
		}
		added++
	}
	if tr := w.tracer; tr.Enabled() && added > 0 {
		tr.Instant(obs.ControlLane, obs.KindShell, "shell-prewarm",
			0, 0, uint64(memBytes), uint64(added))
	}
	return added
}

// ObserveLoadOn feeds one completed run's queue depth at submit into
// its size class's idle streak on the named backend ("" is the default):
// a run that queued behind others resets the streak, and a streak of 64
// uncontended runs gives one cached shell back to the host, keeping the
// last. The scheduler calls it once per completed image ticket, on the
// platform whose worker served it.
func (w *Wasp) ObserveLoadOn(platform string, memBytes, depth int) {
	if be, err := w.backendFor(platform); err == nil && w.pooling {
		be.pools.observe(memBytes, depth)
	}
}

// DropSnapshot removes a stored snapshot from every backend (tests and
// ablations). The COW shell parked on it goes back to the pool: its
// memory is a delta over the dropped snapshot.
func (w *Wasp) DropSnapshot(name string) {
	for _, be := range w.backends {
		w.release(be.snapshots.put(name, nil), nil)
	}
}

// CodeStats reports the shared decoded-code registry's state plus the
// compiled-trace tier's lifetime activity under this Wasp.
type CodeStats struct {
	// Entries is the number of distinct content keys in the registry;
	// Merges counts lifetime decode harvests into it. Tenant clones of
	// one binary share a content key, so running a renamed image
	// against warm content leaves both unchanged.
	Entries int
	Merges  uint64
	// BlocksCompiled, BlockHits and BlockDeopts track the compiled-trace
	// tier, aggregated across all runs (and all pooled contexts) of this
	// Wasp. Fused always reads 0: the superinstruction
	// tier it counted is gone, and the field stays only because the
	// benchmark harness still publishes it as cpu.fused_entries.
	Fused          uint64
	BlocksCompiled uint64
	BlockHits      uint64
	BlockDeopts    uint64
}

// CodeCacheStats snapshots the registry and compiled-tier counters.
func (w *Wasp) CodeCacheStats() CodeStats {
	entries, merges := w.codes.stats()
	return CodeStats{
		Entries:        entries,
		Merges:         merges,
		BlocksCompiled: w.jitCompiled.Load(),
		BlockHits:      w.jitHits.Load(),
		BlockDeopts:    w.jitDeopts.Load(),
	}
}

// guestMem is the bounds-checked GuestMem window handlers receive. Bulk
// copies are charged to the run's clock at memcpy bandwidth: handler data
// movement is critical-path host work (§6.3's doubly-expensive exits are
// the entry/exit cost; this is the payload cost). A run's window lives
// in its shell's run frame (shell.begin).
type guestMem struct {
	ctx *vmm.Context // marks the pages a write touches (HostWrite); nil: none
	mem []byte
	clk *cycles.Clock

	// scratch backs what ReadGuest returns. The GuestMem contract lets
	// one buffer serve every call, since the returned slice is only valid
	// until the next ReadGuest, and the shell keeps it across runs up to
	// maxScratch bytes, so a warm run's reads allocate nothing.
	scratch []byte
}

func (g *guestMem) ReadGuest(addr uint64, n int) ([]byte, error) {
	// Overflow-safe bounds check: addr+n can wrap for huge addr, so
	// compare the remaining window instead of the sum.
	if n < 0 || addr > uint64(len(g.mem)) || uint64(n) > uint64(len(g.mem))-addr {
		return nil, fmt.Errorf("wasp: guest read [%#x,+%d) out of bounds", addr, n)
	}
	g.clk.Advance(cycles.MemcpyCost(n))
	if cap(g.scratch) < n {
		g.scratch = make([]byte, n)
	}
	out := g.scratch[:n:n]
	copy(out, g.mem[addr:])
	return out, nil
}

func (g *guestMem) WriteGuest(addr uint64, b []byte) error {
	if addr > uint64(len(g.mem)) || uint64(len(b)) > uint64(len(g.mem))-addr {
		return fmt.Errorf("wasp: guest write [%#x,+%d) out of bounds", addr, len(b))
	}
	g.clk.Advance(cycles.MemcpyCost(len(b)))
	copy(g.mem[addr:], b)
	if g.ctx != nil {
		g.ctx.HostWrite(addr, len(b))
	}
	return nil
}

// codeRegistry keeps one frozen decoded-code cache per image *content*,
// so every run of a binary after the first adopts predecoded pages
// instead of re-decoding the boot stub and workload: decode once per
// content, not once per run — and not once per name either. Tenant
// clones made with guest.Image.WithName hash to the same content key
// and share one entry. Pages are immutable once registered; AdoptCode
// verifies page content against guest memory before installing, so a
// registry entry can never supply a stale decode regardless of how the
// memory was populated (cold load, snapshot restore, COW reset) or of a
// content-key collision. It is bounded like the content registry: an
// evicted content's next run decodes afresh, which no charge sees.
type codeRegistry struct {
	mu     sync.Mutex
	caches lru[string, cpu.CodeCache]
	merges uint64
}

func (r *codeRegistry) get(key string) cpu.CodeCache {
	r.mu.Lock()
	defer r.mu.Unlock()
	cc, _ := r.caches.get(key)
	return cc
}

// merge folds newly decoded pages into the content's entry, keeping
// already-registered pages (they were decoded from the same canonical
// content).
func (r *codeRegistry) merge(key string, cc cpu.CodeCache) {
	if cc.Empty() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held, _ := r.caches.get(key)
	r.caches.put(key, held.Merge(cc))
	r.merges++
}

func (r *codeRegistry) stats() (entries int, merges uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.caches.byKey), r.merges
}

// footprint sums the registered caches' Footprints.
func (r *codeRegistry) footprint() (steps, entryBytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, el := range r.caches.byKey {
		s, e := el.Value.(*lruEntry[string, cpu.CodeCache]).val.Footprint()
		steps, entryBytes = steps+s, entryBytes+e
	}
	return steps, entryBytes
}
