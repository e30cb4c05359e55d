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
//   - Pooling/caching: returned contexts are cleaned (zeroed, preventing
//     information leakage) and cached as "shells"; acquiring a cached
//     shell costs pool bookkeeping instead of KVM_CREATE_VM. Cleaning is
//     charged on the critical path (Wasp+C) or handed to a real
//     background cleaner (Wasp+CA): release parks the dirty shell on
//     the Cleaner's queue and the zeroing happens on a background
//     goroutine, an idle scheduler worker, or a dedicated virtual
//     cleaner core — never on the caller's path (see cleaner.go).
//     Pools are bounded and self-sizing per size class: PoolPolicy caps
//     each class, and scheduler queue-depth/service-time telemetry
//     (ObserveLoad) prewarms shells under bursts and shrinks them when
//     idle (see pool.go).
//   - Snapshotting: a virtine may capture its state after initialization;
//     subsequent executions of the same image restore the snapshot (one
//     memcpy) and resume at the snapshot point, skipping boot and runtime
//     init (Fig 7).
//
// One Wasp may span several hosted-hypervisor backends (Fig 5: KVM on
// Linux, Hyper-V/WHP on Windows) via WithPlatforms. Mutable runtime
// state — shell pools, snapshot and COW registries, the async cleaner —
// is partitioned per backend: a shell created on KVM is never handed to
// a Hyper-V run, and each backend's pools prewarm and shrink on their
// own telemetry. Only the decoded-code registry is shared, because
// decoded guest code depends on image content alone, not on the
// hypervisor underneath. The placement layer (internal/placement) and
// the scheduler's platform-affine workers decide which backend an
// invocation lands on; RunOn is the per-backend entry point.
package wasp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/cycles"
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
	snapEnable   bool
	cow          bool
	legacyInterp bool
	platforms    []vmm.Platform
	policy       PoolPolicy

	poolDrops atomic.Uint64 // sync-clean shells dropped at the capacity bound

	// Lifetime compiled-tier activity, aggregated from per-run deltas
	// (contexts are pooled, so per-CPU counters alone mean nothing).
	jitCompiled atomic.Uint64
	jitHits     atomic.Uint64
	jitDeopts   atomic.Uint64
	jitLoop     atomic.Uint64

	// tracer is the attached flight recorder (internal/obs); nil or
	// disabled, every instrumentation site costs one atomic load. Set
	// at construction (WithTracer) or before serving (SetTracer).
	tracer *obs.Tracer
}

// backend is one hosted-hypervisor's slice of the runtime: its shell
// pools, snapshot and COW registries, snapshot forest, and (under
// Wasp+CA) its own cleaner. Everything keyed by guest-memory content or
// VM state lives here; a backend's shells and snapshots never serve
// another platform.
type backend struct {
	platform  vmm.Platform
	pools     shellPools
	snapshots snapRegistry
	cowShells cowRegistry
	cleaner   *Cleaner       // non-nil iff pooling && asyncClean
	forest    *vmm.PageStore // content-addressed page store behind all snapshots
	bases     baseRegistry   // image content key -> shared base layer
}

type shell struct {
	ctx   *vmm.Context
	dirty bool
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
}

// retain pins the snapshot's layer for the duration of a restore or
// export; release undoes it. Both tolerate a nil snapshot.
func (s *snapshot) retain() {
	if s != nil {
		s.layer.Retain()
	}
}

func (s *snapshot) release() {
	if s != nil {
		s.layer.Release()
	}
}

// restorePage copies the snapshot's content for page p into dst (the
// COW fault-in path), resolving through the layer chain: the nearest
// layer that owns the page supplies it, pages owned nowhere are zero.
// dst must lie within page p.
func (s *snapshot) restorePage(p int, dst []byte) {
	if data := s.layer.PageData(p); data != nil {
		copy(dst, data)
	} else {
		clear(dst)
	}
}

// Option configures a Wasp instance.
type Option func(*Wasp)

// WithPooling enables or disables the cached shell pool (§5.2). Enabled
// in the default configuration.
func WithPooling(on bool) Option { return func(w *Wasp) { w.pooling = on } }

// WithAsyncClean moves shell cleaning off the critical path onto the
// background Cleaner (the Wasp+CA configuration of Fig 8): release
// performs no zeroing at all, and dirty shells are scrubbed by the
// cleaner's drain goroutine, idle scheduler workers, or the virtual
// cleaner core. With multiple platforms each backend gets its own
// cleaner, so a dirty KVM shell is only ever scrubbed back into the KVM
// pool.
func WithAsyncClean(on bool) Option { return func(w *Wasp) { w.asyncClean = on } }

// WithPoolPolicy bounds and self-sizes the shell pools; zero fields
// take DefaultPoolPolicy values. Without this option the default policy
// applies — pools are always capacity-bounded. The policy applies to
// every backend's pools independently.
func WithPoolPolicy(p PoolPolicy) Option { return func(w *Wasp) { w.policy = p } }

// WithSnapshotting enables the snapshot/restore fast path (§5.2). Images
// still opt in per run via RunConfig.Snapshot.
func WithSnapshotting(on bool) Option { return func(w *Wasp) { w.snapEnable = on } }

// WithPlatform selects the hypervisor backend (Fig 5): vmm.KVM{} on
// Linux, vmm.HyperV{} on Windows. Default is KVM.
func WithPlatform(p vmm.Platform) Option {
	return func(w *Wasp) { w.platforms = []vmm.Platform{p} }
}

// WithPlatforms gives one Wasp several hosted-hypervisor backends. The
// first platform is the default (Run without a platform lands there);
// RunOn and the scheduler's platform-affine workers address the others.
// Shell pools, snapshot and COW registries, prewarming, ObserveLoad
// sizing, and async cleaning are all partitioned per platform.
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
// emits shell-provisioning (pool hit / cleaner reclaim / cold create /
// COW take / prewarm), release, async-clean, snapshot capture/restore,
// guest-run and migration events into it. A nil or disabled tracer
// costs one atomic load per instrumented operation.
func WithTracer(tr *obs.Tracer) Option { return func(w *Wasp) { w.tracer = tr } }

// WithCOW enables copy-on-write snapshot resets (§7.2's anticipated
// optimization, as in SEUSS): a context stays bound to its image between
// runs, and each restore copies back only the pages dirtied since the
// snapshot point instead of the whole image. Applies to interpreted
// guests; native workloads fall back to full restores.
func WithCOW(on bool) Option { return func(w *Wasp) { w.cow = on } }

// New returns a Wasp runtime with pooling and snapshotting enabled and
// synchronous cleaning — the paper's default configuration.
func New(opts ...Option) *Wasp {
	w := &Wasp{
		pooling:    true,
		snapEnable: true,
		platforms:  []vmm.Platform{vmm.KVM{}},
	}
	for _, o := range opts {
		o(w)
	}
	w.policy = w.policy.withDefaults()
	w.byPlat = make(map[string]*backend, len(w.platforms))
	for _, p := range w.platforms {
		if _, dup := w.byPlat[p.Name()]; dup {
			continue
		}
		be := &backend{platform: p, forest: vmm.NewPageStore()}
		be.pools.policy = w.policy
		if w.pooling && w.asyncClean {
			be.cleaner = newCleaner(&be.pools)
			be.cleaner.tr = w.tracer
		}
		w.backends = append(w.backends, be)
		w.byPlat[p.Name()] = be
	}
	return w
}

// SetTracer attaches a flight recorder to an already-built runtime —
// the post-construction analogue of WithTracer, for callers handed a
// *Wasp they did not configure (e.g. the cluster simulator). Call
// before the runtime starts serving runs; the field is not
// synchronized against in-flight executions.
func (w *Wasp) SetTracer(tr *obs.Tracer) {
	w.tracer = tr
	for _, be := range w.backends {
		if be.cleaner != nil {
			be.cleaner.tr = tr
		}
	}
}

// Tracer reports the attached flight recorder (nil when none).
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

// acquire provisions a virtual context of the given memory size on one
// backend: a cached shell when that backend's pool has one (Fig 6 path
// D), a cold create on its platform otherwise (path C). Cleaning of a
// dirty shell is charged here, on the critical path, unless async
// cleaning is on — pooled shells are always already clean under
// Wasp+CA, and a pool miss with cleaning still in flight is bridged by
// the backend's cleaner (reclaim) instead of a cold create.
func (w *Wasp) acquire(be *backend, memBytes int, clk *cycles.Clock) *vmm.Context {
	if w.pooling {
		s := be.pools.take(memBytes)
		hit := s != nil
		if s == nil && be.cleaner != nil {
			s = be.cleaner.reclaim(memBytes)
		}
		if s != nil {
			if tr := w.tracer; tr.Enabled() {
				src := "shell-pool"
				if !hit {
					src = "shell-reclaim"
				}
				tr.Instant(obs.ControlLane, obs.KindShell, src,
					clk.Now(), 0, uint64(memBytes), 0)
			}
			// Partition invariant: a pooled shell must belong to the
			// backend that parked it. Release routes by the context's own
			// platform, so a violation here means cross-platform state
			// corruption — fail loudly rather than run on the wrong VMM.
			if got := s.ctx.Platform().Name(); got != be.platform.Name() {
				panic(fmt.Sprintf("wasp: %s shell crossed into the %s pool", got, be.platform.Name()))
			}
			clk.Advance(cycles.PoolAcquire)
			s.ctx.Clock = clk
			s.ctx.CPU.Clock = clk
			if s.dirty {
				s.ctx.Clean()
				s.dirty = false
			}
			return s.ctx
		}
	}
	if tr := w.tracer; tr.Enabled() {
		tr.Instant(obs.ControlLane, obs.KindShell, "shell-cold",
			clk.Now(), 0, uint64(memBytes), 0)
	}
	return vmm.CreateOn(be.platform, memBytes, clk)
}

// release returns a context to the pool of the backend it was created
// on. Under async cleaning (Wasp+CA) no zeroing happens here: the dirty
// shell goes to that backend's Cleaner queue and is scrubbed off the
// release path. Otherwise (Wasp+C) the shell is parked dirty and pays
// for cleaning when next acquired. Either way the size class's capacity
// bound holds; surplus shells are dropped for the host to reclaim.
func (w *Wasp) release(ctx *vmm.Context) {
	if !w.pooling {
		return // dropped; host kernel reclaims it
	}
	be := w.byPlat[ctx.Platform().Name()]
	if be == nil {
		return // foreign context (tests building raw vmm state): drop it
	}
	if tr := w.tracer; tr.Enabled() {
		var v uint64
		if ctx.Clock != nil {
			v = ctx.Clock.Now()
		}
		async := uint64(0)
		if be.cleaner != nil {
			async = 1
		}
		tr.Instant(obs.ControlLane, obs.KindRelease, "release",
			v, 0, uint64(len(ctx.Mem)), async)
	}
	s := &shell{ctx: ctx, dirty: true}
	if be.cleaner != nil {
		be.cleaner.enqueue(len(ctx.Mem), s)
		return
	}
	if !be.pools.put(len(ctx.Mem), s) {
		w.poolDrops.Add(1)
	}
}

// PoolSize reports the number of cached shells for a memory size on the
// default backend.
func (w *Wasp) PoolSize(memBytes int) int {
	return w.backends[0].pools.size(memBytes)
}

// PoolSizeOn reports the number of cached shells for a memory size on a
// named backend (0 for an unknown platform).
func (w *Wasp) PoolSizeOn(platform string, memBytes int) int {
	be, err := w.backendFor(platform)
	if err != nil {
		return 0
	}
	return be.pools.size(memBytes)
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

// PoolTotalOn reports the number of cached shells across one backend's
// size classes.
func (w *Wasp) PoolTotalOn(platform string) int {
	be, err := w.backendFor(platform)
	if err != nil {
		return 0
	}
	return be.pools.total()
}

// PoolStatsFor snapshots one size class's pool state on the default
// backend (cached count, summed per-image warm target, smoothed service
// time).
func (w *Wasp) PoolStatsFor(memBytes int) PoolStats {
	return w.backends[0].pools.stats(memBytes)
}

// PoolImageStats snapshots one image's sizing state within a size
// class on the default backend: Target and SvcEWMA are the image's own
// warm-target claim and smoothed service time; Cached is the class's
// shared warm count.
func (w *Wasp) PoolImageStats(memBytes int, image string) PoolStats {
	return w.backends[0].pools.imageStats(memBytes, image)
}

// PoolDropped reports shells dropped at the capacity bound on the
// synchronous release path (all backends). Async-clean drops are
// reported by Cleaner.Dropped.
func (w *Wasp) PoolDropped() uint64 { return w.poolDrops.Load() }

// Cleaner exposes the default backend's background cleaner, or nil when
// cleaning is synchronous (Wasp+C) or pooling is off.
func (w *Wasp) Cleaner() *Cleaner { return w.backends[0].cleaner }

// CleanerOn exposes a named backend's cleaner (nil when cleaning is
// synchronous or the platform is unknown).
func (w *Wasp) CleanerOn(platform string) *Cleaner {
	be, err := w.backendFor(platform)
	if err != nil {
		return nil
	}
	return be.cleaner
}

// Cleaners lists every backend's cleaner, in backend order; empty when
// cleaning is synchronous. The scheduler drains all of them.
func (w *Wasp) Cleaners() []*Cleaner {
	var out []*Cleaner
	for _, be := range w.backends {
		if be.cleaner != nil {
			out = append(out, be.cleaner)
		}
	}
	return out
}

// AsyncClean reports whether the runtime cleans shells asynchronously.
func (w *Wasp) AsyncClean() bool { return w.backends[0].cleaner != nil }

// Prewarm tops a size class up to n cached clean shells on the default
// backend; see PrewarmOn.
func (w *Wasp) Prewarm(memBytes, n int) int {
	return w.prewarm(w.backends[0], memBytes, n)
}

// PrewarmOn tops a size class up to n cached clean shells (clamped to
// the class's capacity) on one backend ahead of demand; classes already
// at or above n are left alone. Creation cost lands on a private clock:
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
	if max := be.pools.policy.MaxPerClass; n > max {
		n = max
	}
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

// ObserveLoad feeds scheduler telemetry for one completed run on the
// default backend into the pool-sizing policy; see ObserveLoadOn.
func (w *Wasp) ObserveLoad(image string, memBytes, depth int, svcCycles uint64) {
	w.observeLoad(w.backends[0], image, memBytes, depth, svcCycles)
}

// ObserveLoadOn feeds scheduler telemetry for one completed run into
// the named backend's pool-sizing policy, attributed to the image that
// ran: a deep queue at submit raises the image's warm-target claim on
// its size class and prewarms shells; a sustained idle streak of that
// image decays only its own claim and releases a surplus cached shell
// to the host (handled inside observe, under the shard lock), so a
// multi-tenant class keeps warm shells for tenants that are still
// active. The unified scheduler calls this once per completed image
// ticket, on the platform whose worker served it.
func (w *Wasp) ObserveLoadOn(platform, image string, memBytes, depth int, svcCycles uint64) {
	be, err := w.backendFor(platform)
	if err != nil {
		return
	}
	w.observeLoad(be, image, memBytes, depth, svcCycles)
}

func (w *Wasp) observeLoad(be *backend, image string, memBytes, depth int, svcCycles uint64) {
	if !w.pooling {
		return
	}
	if wantCached := be.pools.observe(image, memBytes, depth, svcCycles); wantCached > 0 {
		w.prewarm(be, memBytes, wantCached)
	}
}

// HasSnapshot reports whether an image has a stored snapshot on the
// default backend.
func (w *Wasp) HasSnapshot(name string) bool {
	return w.backends[0].snapshots.has(name)
}

// HasSnapshotOn reports whether an image has a stored snapshot on a
// named backend. Snapshots are captured per backend: the first run of
// an image on each platform pays its own capture.
func (w *Wasp) HasSnapshotOn(platform, name string) bool {
	be, err := w.backendFor(platform)
	if err != nil {
		return false
	}
	return be.snapshots.has(name)
}

// DropSnapshot removes a stored snapshot from every backend (tests and
// ablations). Any COW shell parked against the image goes back through
// the pool's cleaning path: its memory is a delta over the dropped
// snapshot.
func (w *Wasp) DropSnapshot(name string) {
	for _, be := range w.backends {
		be.snapshots.drop(name)
		if ctx, _ := be.cowShells.take(name); ctx != nil {
			w.release(ctx)
		}
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
	// BlocksCompiled, BlockHits and BlockDeopts track the compiled
	// closure-trace tier, aggregated across all runs (and all pooled
	// contexts) of this Wasp; LoopRetired is the instructions the
	// counted-loop kernel retired without entering a closure (against
	// the runs' Retired: how much of the guest never saw one). Fused
	// always reads 0: the superinstruction
	// tier it counted is gone, and the field stays only because the
	// benchmark harness still publishes it as cpu.fused_entries.
	Fused          uint64
	BlocksCompiled uint64
	BlockHits      uint64
	BlockDeopts    uint64
	LoopRetired    uint64
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
		LoopRetired:    w.jitLoop.Load(),
	}
}

// guestMem is the bounds-checked GuestMem window handlers receive. Bulk
// copies are charged to the run's clock at memcpy bandwidth: handler data
// movement is critical-path host work (§6.3's doubly-expensive exits are
// the entry/exit cost; this is the payload cost).
type guestMem struct {
	mem  []byte
	clk  *cycles.Clock
	mark func(addr uint64, n int) // dirty-page tracking hook (may be nil)

	// scratch is reused across ReadGuest calls so a hypercall-heavy run
	// pays one buffer allocation, not one per call. The GuestMem
	// contract permits this: the returned slice is only valid until the
	// next ReadGuest.
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
	if g.mark != nil {
		g.mark(addr, len(b))
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
// content-key collision.
type codeRegistry struct {
	mu     sync.RWMutex
	byKey  map[string]cpu.CodeCache
	merges uint64
}

func (r *codeRegistry) get(key string) cpu.CodeCache {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byKey[key]
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
	if r.byKey == nil {
		r.byKey = make(map[string]cpu.CodeCache)
	}
	r.byKey[key] = r.byKey[key].Merge(cc)
	r.merges++
}

func (r *codeRegistry) stats() (entries int, merges uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byKey), r.merges
}
