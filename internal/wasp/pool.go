package wasp

import (
	"sync"

	"repro/internal/stats"
	"repro/internal/vmm"
)

// Concurrency structure of the runtime (§5.2, Fig 8).
//
// The paper's pooling design exists so that warm starts cost pool
// bookkeeping instead of KVM_CREATE_VM; a single runtime-wide mutex
// would reintroduce exactly the SEUSS/Catalyzer-class warm-start
// contention the pool is meant to avoid once many cores drive Run
// concurrently. The runtime therefore splits its mutable state three
// ways, so Run calls on different images (or different size classes)
// never touch the same lock:
//
//   - shellPools: cached shells, sharded by memory size class with one
//     mutex per shard. The critical section is a slice push/pop;
//     cleaning and KVM work happen outside it. Each size class is
//     bounded by PoolPolicy.MaxPerClass and carries self-sizing state
//     (warm target, idle streak, service-time EWMA) fed by scheduler
//     telemetry through Wasp.ObserveLoad.
//   - snapRegistry: image-name → snapshot map under a sync.RWMutex.
//     Snapshots are written once per image (capture) and read on every
//     warm run, so the read path takes only a shared lock.
//   - cowRegistry: image-bound COW shells (§7.2), sharded by image
//     name with one mutex per shard.

// PoolPolicy bounds and self-sizes the shell pools. The capacity bound
// fixes the seed's unbounded-growth bug (a burst of N concurrent runs
// used to retain N shells per size class forever); the grow/shrink
// knobs implement the ROADMAP's prewarm/sizing item: queue-depth
// telemetry from the scheduler grows a class's warm pool under a burst,
// and sustained idle time shrinks it back.
type PoolPolicy struct {
	// MaxPerClass caps cached shells per memory size class. A release
	// (or background clean) that would exceed it drops the shell for
	// the host kernel to reclaim.
	MaxPerClass int
	// GrowDepth is the queue depth observed at submit that marks a
	// burst: a completed ticket that waited behind at least this many
	// others raises the class's warm target toward the observed depth.
	GrowDepth int
	// GrowBatch caps how many shells one burst observation prewarms,
	// bounding the provisioning work done on a completion path.
	GrowBatch int
	// ShrinkAfter is the number of consecutive uncontended completions
	// (depth 0) after which the warm target decays by one and a surplus
	// cached shell is released to the host. The last warm shell per
	// class is never shrunk away.
	ShrinkAfter int
}

// DefaultPoolPolicy is the policy applied when WithPoolPolicy is not
// given: a generous capacity bound with burst-reactive sizing.
var DefaultPoolPolicy = PoolPolicy{MaxPerClass: 64, GrowDepth: 4, GrowBatch: 4, ShrinkAfter: 64}

func (p PoolPolicy) withDefaults() PoolPolicy {
	d := DefaultPoolPolicy
	if p.MaxPerClass <= 0 {
		p.MaxPerClass = d.MaxPerClass
	}
	if p.GrowDepth <= 0 {
		p.GrowDepth = d.GrowDepth
	}
	if p.GrowBatch <= 0 {
		p.GrowBatch = d.GrowBatch
	}
	if p.ShrinkAfter <= 0 {
		p.ShrinkAfter = d.ShrinkAfter
	}
	return p
}

// PoolStats is a snapshot of one size class's pool state.
type PoolStats struct {
	// Cached is the number of warm shells currently parked.
	Cached int
	// Target is the warm floor the sizing policy currently wants.
	Target int
	// SvcEWMA is the smoothed service time (cycles) of runs in this
	// class, from scheduler telemetry.
	SvcEWMA uint64
}

// poolShardCount is the number of independently locked shell-pool
// shards. A power of two so the hash reduces with a shift.
const poolShardCount = 16

// shellPools is the sharded shell cache. Each memory size class maps to
// one shard; distinct size classes on different shards proceed fully in
// parallel, and even classes that collide only contend on a push/pop.
type shellPools struct {
	policy PoolPolicy
	shards [poolShardCount]poolShard
}

type poolShard struct {
	mu     sync.Mutex
	bySize map[int][]*shell
	sizing map[int]*classSizing
}

// classSizing is the per-size-class self-sizing state ObserveLoad
// feeds. Sizing is per image within the class: each image that runs in
// the class carries its own warm-target claim, raised by its own bursts
// and decayed by its own idle streaks, so one image going quiet shrinks
// only its share of the warm set and a multi-tenant class keeps shells
// for every active tenant. The class's effective warm target is the sum
// of the per-image claims, clamped to the class capacity.
type classSizing struct {
	svcEWMA uint64 // smoothed service time across all of the class's runs
	tick    uint64 // observation counter, the staleness timebase
	// staleAt is a lower bound on the first tick at which any image of
	// the class can be stale: observe walks byImage for a victim only from
	// then on, and every walk re-derives it from the oldest lastSeen.
	staleAt uint64
	byImage map[string]*imageSizing
}

// imageSizing is one image's claim on its size class's warm pool.
type imageSizing struct {
	target   int    // warm shells this image's bursts currently justify
	idle     int    // consecutive uncontended completions
	svcEWMA  uint64 // smoothed service time of this image's runs
	lastSeen uint64 // class tick of this image's latest observation
}

// staleFactor scales ShrinkAfter into the vanished-tenant threshold: an
// image unobserved for staleFactor×ShrinkAfter class completions starts
// losing its warm claim to the reaper in observe. Much larger than the
// self-idle threshold, so an active-but-uncontended tenant always decays
// through its own idle streak first.
const staleFactor = 8

// classTarget sums the per-image warm targets, clamped to the class
// capacity. Called with the shard lock held.
func (st *classSizing) classTarget(max int) int {
	n := 0
	for _, ist := range st.byImage {
		n += ist.target
	}
	if n > max {
		n = max
	}
	return n
}

func (st *classSizing) image(name string) *imageSizing {
	ist := st.byImage[name]
	if ist == nil {
		ist = &imageSizing{}
		if st.byImage == nil {
			st.byImage = make(map[string]*imageSizing)
		}
		st.byImage[name] = ist
	}
	return ist
}

// shardFor hashes a memory size class onto a shard. Sizes are
// page-granular in practice, so the page number is Fibonacci-hashed to
// spread consecutive classes across shards.
func (p *shellPools) shardFor(memBytes int) *poolShard {
	h := uint64(memBytes>>12) * 0x9E3779B97F4A7C15
	return &p.shards[h>>(64-4)] // top 4 bits: poolShardCount == 16
}

// take pops a cached shell for the size class, or nil.
func (p *shellPools) take(memBytes int) *shell {
	sh := p.shardFor(memBytes)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	pool := sh.bySize[memBytes]
	n := len(pool)
	if n == 0 {
		return nil
	}
	s := pool[n-1]
	pool[n-1] = nil
	sh.bySize[memBytes] = pool[:n-1]
	return s
}

// put parks a shell for its size class, unless the class is at its
// capacity bound. It reports whether the shell was parked; a false
// return means the caller should let the host reclaim it.
func (p *shellPools) put(memBytes int, s *shell) bool {
	sh := p.shardFor(memBytes)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.bySize[memBytes]) >= p.policy.MaxPerClass {
		return false
	}
	if sh.bySize == nil {
		sh.bySize = make(map[int][]*shell)
	}
	sh.bySize[memBytes] = append(sh.bySize[memBytes], s)
	return true
}

// observe folds one completed run's scheduler telemetry into the size
// class's per-image sizing state. Under a burst it returns the cached
// count the caller should prewarm the class up to (0 means no growth);
// under a sustained idle streak of the observed image it decays that
// image's claim and releases one surplus shell right here, under the
// shard lock, so a concurrent acquire can never race the class below
// its one-warm-shell floor.
func (p *shellPools) observe(image string, memBytes, depth int, svc uint64) (wantCached int) {
	sh := p.shardFor(memBytes)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.sizing == nil {
		sh.sizing = make(map[int]*classSizing)
	}
	st := sh.sizing[memBytes]
	if st == nil {
		st = &classSizing{}
		sh.sizing[memBytes] = st
	}
	st.svcEWMA = stats.EWMA(st.svcEWMA, svc)
	st.tick++
	ist := st.image(image)
	ist.lastSeen = st.tick
	ist.svcEWMA = stats.EWMA(ist.svcEWMA, svc)
	cached := len(sh.bySize[memBytes])
	switch {
	case depth >= p.policy.GrowDepth:
		ist.idle = 0
		want := depth
		if want > p.policy.MaxPerClass {
			want = p.policy.MaxPerClass
		}
		if want > ist.target {
			ist.target = want
		}
		if target := st.classTarget(p.policy.MaxPerClass); target > cached {
			wantCached = cached + p.policy.GrowBatch
			if wantCached > target {
				wantCached = target
			}
		}
	case depth == 0:
		ist.idle++
		if ist.idle >= p.policy.ShrinkAfter {
			ist.idle = 0
			if ist.target > 0 {
				ist.target--
			}
			floor := st.classTarget(p.policy.MaxPerClass)
			if floor < 1 {
				floor = 1 // keep the last warm shell
			}
			if cached > floor {
				// Drop one surplus shell; the host reclaims it.
				pool := sh.bySize[memBytes]
				pool[cached-1] = nil
				sh.bySize[memBytes] = pool[:cached-1]
			}
		}
	default:
		ist.idle = 0
	}
	// Reap vanished tenants: an image that stopped submitting entirely
	// never observes its own idle streak, so without this its warm claim
	// (and the shells behind it) would stay pinned forever. Once an
	// image has been unobserved for staleFactor×ShrinkAfter class
	// completions, its claim drains one unit per observation until it is
	// gone, releasing surplus shells to the host along the way.
	if p.policy.ShrinkAfter > 0 && st.tick >= st.staleAt {
		staleAfter := uint64(staleFactor * p.policy.ShrinkAfter)
		// At most one stale decay per observation; the victim is chosen
		// deterministically (stalest first, name tiebreak), never by map
		// iteration order — pool state must stay reproducible or
		// virtual-mode runs would diverge on warm-shell hits. The walk is
		// O(images) under the shard lock, so it runs only once some image
		// can have gone stale: no lastSeen ever moves backwards and a new
		// image starts at the current tick, so before the oldest lastSeen
		// found here plus staleAfter there is no victim to find.
		var victim *imageSizing
		var victimName string
		oldest := st.tick
		for name, other := range st.byImage {
			if other.lastSeen < oldest {
				oldest = other.lastSeen
			}
			if other == ist || st.tick-other.lastSeen < staleAfter {
				continue
			}
			if victim == nil || other.lastSeen < victim.lastSeen ||
				(other.lastSeen == victim.lastSeen && name < victimName) {
				victim, victimName = other, name
			}
		}
		st.staleAt = oldest + staleAfter
		if victim != nil {
			if victim.target > 0 {
				victim.target--
			}
			if victim.target == 0 {
				delete(st.byImage, victimName)
			}
			cached = len(sh.bySize[memBytes])
			floor := st.classTarget(p.policy.MaxPerClass)
			if floor < 1 {
				floor = 1
			}
			if cached > floor {
				pool := sh.bySize[memBytes]
				pool[cached-1] = nil
				sh.bySize[memBytes] = pool[:cached-1]
			}
		}
	}
	return wantCached
}

// stats snapshots one size class's pool state.
func (p *shellPools) stats(memBytes int) PoolStats {
	sh := p.shardFor(memBytes)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := PoolStats{Cached: len(sh.bySize[memBytes])}
	if st := sh.sizing[memBytes]; st != nil {
		out.Target = st.classTarget(p.policy.MaxPerClass)
		out.SvcEWMA = st.svcEWMA
	}
	return out
}

// imageStats snapshots one image's sizing state within a size class:
// Target and SvcEWMA are the image's own claim and smoothed service
// time, Cached the class's shared warm count.
func (p *shellPools) imageStats(memBytes int, image string) PoolStats {
	sh := p.shardFor(memBytes)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := PoolStats{Cached: len(sh.bySize[memBytes])}
	if st := sh.sizing[memBytes]; st != nil {
		if ist := st.byImage[image]; ist != nil {
			out.Target = ist.target
			out.SvcEWMA = ist.svcEWMA
		}
	}
	return out
}

// size reports the number of cached shells for one size class.
func (p *shellPools) size(memBytes int) int {
	sh := p.shardFor(memBytes)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.bySize[memBytes])
}

// total reports the number of cached shells across all size classes.
func (p *shellPools) total() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for _, pool := range sh.bySize {
			n += len(pool)
		}
		sh.mu.Unlock()
	}
	return n
}

// snapRegistry holds per-image snapshots. Reads (every warm Run) take
// the shared lock; writes happen once per image at capture time. The
// registry owns one reference on each forest-backed snapshot's layer:
// get hands the caller a transient reference of its own (callers must
// release), and put/drop release the reference of the snapshot they
// replace or remove — so a re-capture racing an in-flight restore can
// never free store pages the restore is still copying from.
type snapRegistry struct {
	mu    sync.RWMutex
	byImg map[string]*snapshot
}

// get returns the named snapshot with its layer retained on the
// caller's behalf; callers must call release when done with it.
func (r *snapRegistry) get(name string) *snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := r.byImg[name]
	s.retain()
	return s
}

func (r *snapRegistry) has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.byImg[name]
	return ok
}

// put installs a snapshot, taking ownership of the caller's layer
// reference, and releases the snapshot it replaces, if any.
func (r *snapRegistry) put(name string, s *snapshot) {
	r.mu.Lock()
	if r.byImg == nil {
		r.byImg = make(map[string]*snapshot)
	}
	old := r.byImg[name]
	r.byImg[name] = s
	r.mu.Unlock()
	old.release()
}

func (r *snapRegistry) drop(name string) {
	r.mu.Lock()
	old := r.byImg[name]
	delete(r.byImg, name)
	r.mu.Unlock()
	old.release()
}

// forEach visits every snapshot under the read lock (stats only — the
// callback must not retain or mutate).
func (r *snapRegistry) forEach(fn func(name string, s *snapshot)) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, s := range r.byImg {
		fn(name, s)
	}
}

// cowShardCount shards the image-bound COW shells by image name.
const cowShardCount = 8

type cowRegistry struct {
	shards [cowShardCount]cowShard
}

type cowShard struct {
	mu    sync.Mutex
	byImg map[string]cowShell
}

// cowShell is a parked context and the snapshot its memory is a dirty-
// page delta over. The pointer is an identity, never dereferenced: a COW
// reset is sound only against that very snapshot, so a shell whose name
// has since been re-captured, imported over or migrated is stale.
type cowShell struct {
	ctx *vmm.Context
	on  *snapshot
}

func (r *cowRegistry) shardFor(name string) *cowShard {
	// FNV-1a over the image name.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return &r.shards[h>>(64-3)] // top 3 bits: cowShardCount == 8
}

// take claims the image-bound context, if one is parked, with the
// snapshot it is resident against.
func (r *cowRegistry) take(name string) (*vmm.Context, *snapshot) {
	sh := r.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cs := sh.byImg[name]
	delete(sh.byImg, name)
	return cs.ctx, cs.on
}

// park binds a context to its image for the next COW reset against on.
// It reports whether the context was parked; false means a shell is
// already bound to the image and the caller should recycle ctx through
// the pool.
func (r *cowRegistry) park(name string, ctx *vmm.Context, on *snapshot) bool {
	sh := r.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, dup := sh.byImg[name]; dup {
		return false
	}
	if sh.byImg == nil {
		sh.byImg = make(map[string]cowShell)
	}
	sh.byImg[name] = cowShell{ctx, on}
	return true
}
