package wasp

import "sync"

// Concurrency structure of the runtime (§5.2, Fig 8).
//
// The paper's pooling design exists so that warm starts cost pool
// bookkeeping instead of KVM_CREATE_VM; a single runtime-wide mutex
// would reintroduce exactly the SEUSS/Catalyzer-class warm-start
// contention the pool is meant to avoid once many cores drive Run
// concurrently. The runtime therefore splits each backend's mutable state
// three ways:
//
//   - shellPools: cached shells by memory size class, under one mutex
//     per backend. The critical section is a slice push/pop or a streak
//     update; cleaning and KVM work happen outside it. Each size class
//     holds at most maxPerClass shells and one idle streak, fed by
//     scheduler queue depths through Wasp.ObserveLoadOn.
//   - snapRegistry: image-name → snapshot map under a sync.RWMutex.
//     Snapshots are written once per image (capture) and read on every
//     warm run, so the read path takes only a shared lock. Each snapshot
//     holds the COW shell (§7.2) parked on it in an atomic pointer: a run
//     takes it from the snapshot it already holds, with no lookup, and a
//     snapshot that leaves the registry sends it to the pool.
//   - contentRegistry (forest.go): base layers and boot recordings by
//     image content, one mutex over one map and one LRU list, bounded.

// maxPerClass caps the shells one size class caches: a release, or a
// prewarm, that would exceed it leaves the shell to the host kernel.
const maxPerClass = 64

// shrinkAfter is the idle streak after which a size class gives one
// cached shell back to the host: that many consecutive completions in the
// class that found no queue at submit (depth 0). The last shell stays.
const shrinkAfter = 64

// shellPools is one backend's shell cache, keyed by memory size class.
type shellPools struct {
	max     int // cached shells per class: maxPerClass, or 1 where TestRebaseMatchesMaterialize pins a history
	mu      sync.Mutex
	classes map[int]*poolClass
}

// poolClass is one size class: its cached shells, the most recently
// released last, and its idle streak.
type poolClass struct {
	shells []*shell
	idle   int
}

// class returns the state for a size class, creating it. Called with
// p.mu held.
func (p *shellPools) class(memBytes int) *poolClass {
	c := p.classes[memBytes]
	if c == nil {
		if p.classes == nil {
			p.classes = make(map[int]*poolClass)
		}
		c = &poolClass{}
		p.classes[memBytes] = c
	}
	return c
}

// pop removes and returns the most recently cached shell, or nil.
func (c *poolClass) pop() *shell {
	n := len(c.shells)
	if n == 0 {
		return nil
	}
	s := c.shells[n-1]
	c.shells[n-1] = nil
	c.shells = c.shells[:n-1]
	return s
}

// take pops a cached shell for the size class, or nil.
func (p *shellPools) take(memBytes int) *shell {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.class(memBytes).pop()
}

// put parks a shell for its size class, unless the class is at its
// capacity bound. It reports whether the shell was parked; a false
// return means the caller should let the host reclaim it.
func (p *shellPools) put(memBytes int, s *shell) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.class(memBytes)
	if len(c.shells) >= p.max {
		return false
	}
	c.shells = append(c.shells, s)
	return true
}

// observe folds one completed run's queue depth at submit into its size
// class's idle streak. A queue resets the streak; shrinkAfter uncontended
// completions in a row release one cached shell to the host, keeping at
// least one, here under the pool lock, so a concurrent acquire can never
// race the class below that floor.
func (p *shellPools) observe(memBytes, depth int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.class(memBytes)
	if depth > 0 {
		c.idle = 0
		return
	}
	if c.idle++; c.idle < shrinkAfter {
		return
	}
	c.idle = 0
	if len(c.shells) > 1 {
		c.pop()
	}
}

// size reports the number of cached shells for one size class.
func (p *shellPools) size(memBytes int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.classes[memBytes]; c != nil {
		return len(c.shells)
	}
	return 0
}

// total reports the number of cached shells across all size classes.
func (p *shellPools) total() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, c := range p.classes {
		n += len(c.shells)
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

// put installs a snapshot under name, taking ownership of the caller's
// layer reference, or with a nil s drops name's. It retires the snapshot
// it replaces or drops, if any, and returns the shell that was parked on
// it for the caller to pool.
func (r *snapRegistry) put(name string, s *snapshot) *shell {
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
