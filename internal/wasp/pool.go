package wasp

import (
	"container/list"
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
// concurrently. The runtime therefore splits each backend's mutable state
// three ways, so Run calls on different images (or different size
// classes) never touch the same lock:
//
//   - shellPools: cached shells, sharded by memory size class with one
//     mutex per shard. The critical section is a slice push/pop;
//     cleaning and KVM work happen outside it. Each size class is
//     bounded by PoolPolicy.MaxPerClass and carries self-sizing state
//     (warm target, idle streak, service-time EWMA) fed by scheduler
//     telemetry through Wasp.ObserveLoad.
//   - snapRegistry: image-name → snapshot map under a sync.RWMutex.
//     Snapshots are written once per image (capture) and read on every
//     warm run, so the read path takes only a shared lock. Each snapshot
//     holds the COW shell (§7.2) parked on it in an atomic pointer: a run
//     takes it from the snapshot it already holds, with no lookup, and a
//     snapshot that leaves the registry sends it to the pool.
//   - contentRegistry (forest.go): base layers and boot recordings by
//     image content, one mutex over one map and one LRU list, bounded.

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
	target  int    // sum of the per-image targets
	byImage map[string]*imageSizing
	// lru orders byImage by lastSeen, stalest first: every observation
	// moves its image to the back. Ticks are unique, so the front is the
	// one image the reaper may pick.
	lru list.List
}

// imageSizing is one image's claim on its size class's warm pool.
type imageSizing struct {
	target   int    // warm shells this image's bursts currently justify
	idle     int    // consecutive uncontended completions
	svcEWMA  uint64 // smoothed service time of this image's runs
	lastSeen uint64 // class tick of this image's latest observation
	name     string
	elem     *list.Element // in the class's lru
}

// staleFactor scales ShrinkAfter into the vanished-tenant threshold: an
// image unobserved for staleFactor×ShrinkAfter class completions starts
// losing its warm claim to the reaper in observe. Much larger than the
// self-idle threshold, so an active-but-uncontended tenant always decays
// through its own idle streak first.
const staleFactor = 8

// classTarget is the summed per-image warm target, clamped to the class
// capacity. Called with the shard lock held.
func (st *classSizing) classTarget(max int) int { return min(st.target, max) }

// decay lowers one image's claim by a shell, if it has one.
func (st *classSizing) decay(ist *imageSizing) {
	if ist.target > 0 {
		ist.target--
		st.target--
	}
}

func (st *classSizing) image(name string) *imageSizing {
	ist := st.byImage[name]
	if ist == nil {
		ist = &imageSizing{name: name}
		if st.byImage == nil {
			st.byImage = make(map[string]*imageSizing)
		}
		st.byImage[name] = ist
		ist.elem = st.lru.PushBack(ist)
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
	st.lru.MoveToBack(ist.elem)
	ist.svcEWMA = stats.EWMA(ist.svcEWMA, svc)
	switch {
	case depth >= p.policy.GrowDepth:
		ist.idle = 0
		want := depth
		if want > p.policy.MaxPerClass {
			want = p.policy.MaxPerClass
		}
		if want > ist.target {
			st.target += want - ist.target
			ist.target = want
		}
		cached := len(sh.bySize[memBytes])
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
			st.decay(ist)
			p.dropSurplus(sh, memBytes, st)
		}
	default:
		ist.idle = 0
	}
	// Reap vanished tenants: an image that stopped submitting entirely
	// never observes its own idle streak, so without this its warm claim
	// (and the shells behind it) would stay pinned forever. Once the
	// stalest image has been unobserved for staleFactor×ShrinkAfter class
	// completions, its claim drains one unit per observation until it is
	// gone, releasing surplus shells to the host along the way. The victim
	// is the lru's front, never a map-iteration pick: pool state must stay
	// reproducible or virtual-mode runs would diverge on warm-shell hits.
	if p.policy.ShrinkAfter > 0 {
		victim := st.lru.Front().Value.(*imageSizing)
		if st.tick-victim.lastSeen >= uint64(staleFactor*p.policy.ShrinkAfter) {
			st.decay(victim)
			if victim.target == 0 {
				st.lru.Remove(victim.elem)
				delete(st.byImage, victim.name)
			}
			p.dropSurplus(sh, memBytes, st)
		}
	}
	return wantCached
}

// dropSurplus releases one cached shell to the host if the class holds
// more than its warm target, keeping at least one. Called with the shard
// lock held.
func (p *shellPools) dropSurplus(sh *poolShard, memBytes int, st *classSizing) {
	pool := sh.bySize[memBytes]
	if n := len(pool); n > max(st.classTarget(p.policy.MaxPerClass), 1) {
		pool[n-1] = nil
		sh.bySize[memBytes] = pool[:n-1]
	}
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
// release), and put/drop retire the snapshot they replace or remove — so
// a re-capture racing an in-flight restore can never free store pages
// the restore is still copying from.
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
	if s != nil {
		s.layer.Retain()
	}
	return s
}

func (r *snapRegistry) has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.byImg[name]
	return ok
}

// put installs a snapshot under name, taking ownership of the caller's
// layer reference, or with a nil s drops name's. It retires the snapshot
// it replaces or drops, if any, and returns the shell that was parked on
// it for the caller to pool.
func (r *snapRegistry) put(name string, s *snapshot) *vmm.Context {
	r.mu.Lock()
	old := r.byImg[name]
	delete(r.byImg, name)
	if s != nil {
		if r.byImg == nil {
			r.byImg = make(map[string]*snapshot)
		}
		r.byImg[name] = s
	}
	r.mu.Unlock()
	return old.retire()
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
