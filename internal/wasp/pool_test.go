package wasp

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/stats"
)

// TestGuestMemOverflowBounds is the regression test for the wrapping
// bounds checks: addr+n overflows uint64 and used to pass the check,
// letting a guest read or write host memory out of bounds.
func TestGuestMemOverflowBounds(t *testing.T) {
	g := guestMem{mem: make([]byte, 4096), clk: cycles.NewClock()}

	addr := ^uint64(0) - 8 // addr + 16 wraps to 7
	if _, err := g.ReadGuest(addr, 16); err == nil {
		t.Fatal("overflowing read passed the bounds check")
	}
	if err := g.WriteGuest(addr, make([]byte, 16)); err == nil {
		t.Fatal("overflowing write passed the bounds check")
	}
	// addr just past the window, n small enough that addr+n wraps not at
	// all — plain out-of-bounds must still fail.
	if _, err := g.ReadGuest(uint64(len(g.mem))+1, 0); err == nil {
		t.Fatal("read past end passed the bounds check")
	}
	// Boundary cases that must remain legal.
	if _, err := g.ReadGuest(uint64(len(g.mem)), 0); err != nil {
		t.Fatalf("zero-length read at end rejected: %v", err)
	}
	if _, err := g.ReadGuest(0, len(g.mem)); err != nil {
		t.Fatalf("full-window read rejected: %v", err)
	}
	if err := g.WriteGuest(uint64(len(g.mem))-4, make([]byte, 4)); err != nil {
		t.Fatalf("tail write rejected: %v", err)
	}
}

// FuzzGuestMem drives ReadGuest and WriteGuest over guest memory of up
// to 64 KiB at arbitrary addresses and lengths. A call never panics and
// succeeds exactly when [addr, addr+n) lies inside memory, by a bounds
// oracle computed with a carry instead of the window arithmetic the
// checks use. A successful read returns that range; a successful write
// changes only that range and passes exactly it to mark. A success is
// charged MemcpyCost(n), a failure nothing.
func FuzzGuestMem(f *testing.F) {
	f.Add(uint16(4096), ^uint64(0), int64(16), byte(1))  // addr = 2^64-1
	f.Add(uint16(4096), uint64(4096), int64(0), byte(2)) // addr = len
	f.Add(uint16(4096), uint64(100), int64(0), byte(3))  // n = 0
	f.Add(uint16(4096), uint64(8), int64(-1), byte(4))   // n < 0
	f.Add(uint16(0), uint64(0), int64(1), byte(5))
	f.Fuzz(func(t *testing.T, size uint16, addr uint64, n int64, fill byte) {
		mem := make([]byte, size)
		for i := range mem {
			mem[i] = byte(i)
		}
		orig := bytes.Clone(mem)
		inside := func(n int64) bool {
			end, carry := bits.Add64(addr, uint64(n), 0)
			return n >= 0 && carry == 0 && end <= uint64(len(mem))
		}
		var marks [][2]uint64
		g := guestMem{mem: mem, clk: cycles.NewClock(), mark: func(a uint64, k int) { marks = append(marks, [2]uint64{a, uint64(k)}) }}

		at := g.clk.Now()
		out, err := g.ReadGuest(addr, int(n))
		if (err == nil) != inside(n) {
			t.Fatalf("read [%#x,+%d) of %d bytes: err %v", addr, n, len(mem), err)
		}
		if err == nil {
			if !bytes.Equal(out, mem[addr:addr+uint64(n)]) {
				t.Fatal("read returned other bytes than the range")
			}
			if got, want := g.clk.Now()-at, cycles.MemcpyCost(int(n)); got != want {
				t.Fatalf("read charged %d, want %d", got, want)
			}
		} else if g.clk.Now() != at {
			t.Fatal("a failed read was charged")
		}

		wn := int64(uint64(n) % (1 << 17)) // a write's length is a slice's
		data := bytes.Repeat([]byte{fill}, int(wn))
		at = g.clk.Now()
		err = g.WriteGuest(addr, data)
		if (err == nil) != inside(wn) {
			t.Fatalf("write [%#x,+%d) of %d bytes: err %v", addr, wn, len(mem), err)
		}
		if err != nil {
			if g.clk.Now() != at || len(marks) != 0 || !bytes.Equal(mem, orig) {
				t.Fatal("a failed write was charged, marked or written")
			}
			return
		}
		if g.clk.Now()-at != cycles.MemcpyCost(int(wn)) {
			t.Fatalf("write charged %d, want %d", g.clk.Now()-at, cycles.MemcpyCost(int(wn)))
		}
		if len(marks) != 1 || marks[0] != [2]uint64{addr, uint64(wn)} {
			t.Fatalf("write of [%#x,+%d) marked %v", addr, wn, marks)
		}
		copy(orig[addr:], data)
		if !bytes.Equal(mem, orig) {
			t.Fatal("write changed bytes outside its range")
		}
	})
}

// TestConcurrentRunStress hammers Run from many goroutines across three
// images with pooling and snapshotting enabled — the scenario the
// sharded pools exist for. Run under -race this doubles as the data-race
// check on the pools and the snapshot and content registries. After every
// run every runtime invariant must hold (checkRuntime), and every shell
// about to capture must match its content record.
func TestConcurrentRunStress(t *testing.T) {
	const (
		goroutines = 16
		runsEach   = 25
	)
	w := New() // pooling + snapshotting on
	images := make([]*guest.Image, 3)
	for i := range images {
		images[i] = guest.MustFromAsm(
			fmt.Sprintf("stress-%d", i),
			guest.WrapLongMode(snapshotCounterAsm))
	}
	cfg := RunConfig{Snapshot: true, RetBytes: 16}
	captured := checkBeforeCapture(t)

	// Warm each image once so every concurrent run can hit the snapshot
	// fast path.
	for _, img := range images {
		if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				img := images[(g+i)%len(images)]
				res, err := w.Run(img, cfg, cycles.NewClock())
				if err != nil {
					errs <- err
					return
				}
				if !res.SnapshotUsed {
					errs <- fmt.Errorf("%s run %d: snapshot not reused", img.Name, i)
					return
				}
				// Resume-at-snapshot semantics must hold under contention.
				if pre, post := fromLE64(res.Ret[:8]), fromLE64(res.Ret[8:]); pre != 1 || post != 1 {
					errs <- fmt.Errorf("%s run %d: counters %d/%d, want 1/1", img.Name, i, pre, post)
					return
				}
				if err := checkRuntime(w); err != nil {
					errs <- fmt.Errorf("%s run %d: %w", img.Name, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := captured(); err != nil {
		t.Fatal(err)
	}

	// Pool accounting must be consistent after the storm: every context
	// ever created was released exactly once, so the cached-shell count
	// is positive and bounded by the peak concurrency (warm-up + workers).
	mem := images[0].MemBytes()
	total := w.PoolTotal()
	if total == 0 {
		t.Fatal("no shells cached after concurrent runs")
	}
	if total > goroutines+1 {
		t.Fatalf("pool holds %d shells, more than peak concurrency %d", total, goroutines+1)
	}
	if size := w.PoolSize(mem); size != total {
		t.Fatalf("per-class pool size %d != total %d for the single size class", size, total)
	}
	for _, img := range images {
		if !w.HasSnapshot(img.Name) {
			t.Fatalf("snapshot for %s lost during concurrent runs", img.Name)
		}
	}
	// And the pool still works: one more run per image reuses shells and
	// snapshots.
	for _, img := range images {
		res, err := w.Run(img, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if !res.SnapshotUsed {
			t.Fatalf("%s: snapshot not reused after stress", img.Name)
		}
	}
	if w.PoolTotal() != total {
		t.Fatalf("pool total changed %d -> %d across steady-state runs", total, w.PoolTotal())
	}
}

// TestPoolPerImageSizing: warm-target claims are tracked per image
// within a size class, so one tenant going idle shrinks only its own
// share of the warm set and an active tenant's prewarmed shells
// survive a neighbor's quiet period.
func TestPoolPerImageSizing(t *testing.T) {
	w := New(WithPoolPolicy(PoolPolicy{MaxPerClass: 8, GrowDepth: 2, GrowBatch: 8, ShrinkAfter: 2}))
	const mem = 64 << 10

	w.ObserveLoad("tenant-a", mem, 4, 1000)
	w.ObserveLoad("tenant-b", mem, 3, 2000)
	if st := w.PoolImageStats(mem, "tenant-a"); st.Target != 4 || st.SvcEWMA == 0 {
		t.Fatalf("tenant-a image stats = %+v, want target 4", st)
	}
	if st := w.PoolImageStats(mem, "tenant-b"); st.Target != 3 {
		t.Fatalf("tenant-b image stats = %+v, want target 3", st)
	}
	// The class target is the sum of the per-image claims, and the pool
	// is prewarmed up to it.
	if st := w.PoolStatsFor(mem); st.Target != 7 || st.Cached != 7 {
		t.Fatalf("class stats = %+v, want target/cached 7/7", st)
	}

	// tenant-b idles: only its claim decays, one surplus shell at a time.
	for i := 0; i < 2*3; i++ {
		w.ObserveLoad("tenant-b", mem, 0, 500)
	}
	if st := w.PoolImageStats(mem, "tenant-b"); st.Target != 0 {
		t.Fatalf("idle tenant-b target = %d, want 0", st.Target)
	}
	if st := w.PoolImageStats(mem, "tenant-a"); st.Target != 4 {
		t.Fatalf("tenant-a target = %d after neighbor idle, want 4 (untouched)", st.Target)
	}
	if st := w.PoolStatsFor(mem); st.Target != 4 || st.Cached != 4 {
		t.Fatalf("class stats after shrink = %+v, want 4/4 (tenant-a's warm set kept)", st)
	}

	// A deeper burst from tenant-a clamps the summed target at the cap.
	w.ObserveLoad("tenant-a", mem, 100, 1000)
	if st := w.PoolStatsFor(mem); st.Target != 8 {
		t.Fatalf("class target = %d after deep burst, want 8 (cap)", st.Target)
	}
}

// TestPoolVanishedTenantReaped: a tenant that stops submitting entirely
// never runs its own idle streak, so the stale reaper must drain its
// warm claim instead — otherwise its shells stay pinned forever while
// other tenants keep the class's observation stream alive.
func TestPoolVanishedTenantReaped(t *testing.T) {
	w := New(WithPoolPolicy(PoolPolicy{MaxPerClass: 8, GrowDepth: 2, GrowBatch: 8, ShrinkAfter: 2}))
	const mem = 64 << 10

	w.ObserveLoad("ghost", mem, 4, 1000)
	if st := w.PoolStatsFor(mem); st.Target != 4 || st.Cached != 4 {
		t.Fatalf("after burst: %+v, want 4/4", st)
	}
	// The ghost vanishes; another tenant keeps completing uncontended.
	// Past the staleness window (8x ShrinkAfter observations) the
	// ghost's claim drains and the warm set shrinks back to the floor.
	for i := 0; i < 40; i++ {
		w.ObserveLoad("steady", mem, 0, 500)
	}
	if st := w.PoolImageStats(mem, "ghost"); st.Target != 0 {
		t.Fatalf("ghost target = %d after staleness window, want 0", st.Target)
	}
	if st := w.PoolStatsFor(mem); st.Target != 0 || st.Cached != 1 {
		t.Fatalf("class stats = %+v, want 0 target / 1 cached (floor)", st)
	}
}

// refSizing is one size class's sizing state as observe kept it before
// the lru and the running target sum: per-image claims in a map, walked
// in full for a stale victim on every completion and summed for the
// class target, over a pool that is just a count of cached shells.
type refSizing struct {
	svcEWMA uint64
	tick    uint64
	cached  int
	byImage map[string]*refImage
}

type refImage struct {
	target, idle      int
	svcEWMA, lastSeen uint64
}

func (r *refSizing) classTarget(max int) int {
	n := 0
	for _, ri := range r.byImage {
		n += ri.target
	}
	return min(n, max)
}

// observe is the old shellPools.observe. It fails the test if the walk
// ever needs its name tiebreak: lastSeen ticks are unique, which is what
// lets the lru's front stand in for the walk.
func (r *refSizing) observe(t *testing.T, p PoolPolicy, image string, depth int, svc uint64) (wantCached int) {
	r.svcEWMA = stats.EWMA(r.svcEWMA, svc)
	r.tick++
	ist := r.byImage[image]
	if ist == nil {
		ist = &refImage{}
		r.byImage[image] = ist
	}
	ist.lastSeen = r.tick
	ist.svcEWMA = stats.EWMA(ist.svcEWMA, svc)
	switch {
	case depth >= p.GrowDepth:
		ist.idle = 0
		ist.target = max(ist.target, min(depth, p.MaxPerClass))
		if target := r.classTarget(p.MaxPerClass); target > r.cached {
			wantCached = min(r.cached+p.GrowBatch, target)
		}
	case depth == 0:
		ist.idle++
		if ist.idle >= p.ShrinkAfter {
			ist.idle = 0
			if ist.target > 0 {
				ist.target--
			}
			if r.cached > max(r.classTarget(p.MaxPerClass), 1) {
				r.cached--
			}
		}
	default:
		ist.idle = 0
	}
	staleAfter := uint64(staleFactor * p.ShrinkAfter)
	var victim *refImage
	var victimName string
	for name, other := range r.byImage {
		if other == ist || r.tick-other.lastSeen < staleAfter {
			continue
		}
		if victim != nil && other.lastSeen == victim.lastSeen {
			t.Fatalf("tick %d: %s and %s were both last seen at %d", r.tick, name, victimName, other.lastSeen)
		}
		if victim == nil || other.lastSeen < victim.lastSeen {
			victim, victimName = other, name
		}
	}
	if victim != nil {
		if victim.target > 0 {
			victim.target--
		}
		if victim.target == 0 {
			delete(r.byImage, victimName)
		}
		if r.cached > max(r.classTarget(p.MaxPerClass), 1) {
			r.cached--
		}
	}
	return wantCached
}

// TestPoolLRUReaperMatchesFullScan: observe takes the stale victim from
// the front of the class's lru and keeps the class target as a running
// sum. Beside it runs the old rule — the full walk and the map sum on
// every completion — over two seeded observation sequences (a small
// class whose tail vanishes, and 256 Zipf(1.1) tenants); every pool
// decision (growth request, shells cached, each image's claim, idle
// streak, smoothed service time and last-seen tick) must be identical
// after every step, or virtual-mode runs would diverge on warm-shell hits.
func TestPoolLRUReaperMatchesFullScan(t *testing.T) {
	const mem = 64 << 10
	for _, tc := range []struct {
		name      string
		policy    PoolPolicy
		seed      int64
		s         float64
		tenants   uint64
		steps     int
		vanishing int // from this step on only three tenants submit
	}{
		{"vanishing-tail", PoolPolicy{MaxPerClass: 24, GrowDepth: 3, GrowBatch: 4, ShrinkAfter: 4}, 11, 1.2, 96, 30000, 20000},
		{"zipf-256", DefaultPoolPolicy, 5, 1.1, 256, 60000, 50000},
	} {
		pools := &shellPools{policy: tc.policy}
		ref := &refSizing{byImage: map[string]*refImage{}}
		rng := rand.New(rand.NewSource(tc.seed))
		zipf := rand.NewZipf(rng, tc.s, 4, tc.tenants-1)
		reaped := 0
		for step := 0; step < tc.steps; step++ {
			image := fmt.Sprintf("tenant-%d", zipf.Uint64())
			if step >= tc.vanishing {
				image = fmt.Sprintf("tenant-%d", rng.Intn(3))
			}
			depth := []int{0, 0, 0, 0, 1, 2, 5, 9}[rng.Intn(8)]
			svc := uint64(500 + rng.Intn(2000))

			images := len(ref.byImage)
			got, want := pools.observe(image, mem, depth, svc), ref.observe(t, tc.policy, image, depth, svc)
			if len(ref.byImage) < images {
				reaped++
			}
			if got != want {
				t.Fatalf("%s step %d: growth request %d, full scan %d", tc.name, step, got, want)
			}
			for pools.size(mem) < got {
				pools.put(mem, &shell{}) // the prewarm the caller would do
			}
			ref.cached = max(ref.cached, want)
			if pools.size(mem) != ref.cached {
				t.Fatalf("%s step %d: %d shells cached, full scan %d", tc.name, step, pools.size(mem), ref.cached)
			}
			st := pools.shardFor(mem).sizing[mem]
			if st.tick != ref.tick || st.svcEWMA != ref.svcEWMA || len(st.byImage) != len(ref.byImage) || st.lru.Len() != len(st.byImage) {
				t.Fatalf("%s step %d: tick %d/%d, images %d/%d (lru %d)", tc.name, step, st.tick, ref.tick, len(st.byImage), len(ref.byImage), st.lru.Len())
			}
			if st.classTarget(tc.policy.MaxPerClass) != ref.classTarget(tc.policy.MaxPerClass) {
				t.Fatalf("%s step %d: class target %d, full scan %d", tc.name, step, st.classTarget(tc.policy.MaxPerClass), ref.classTarget(tc.policy.MaxPerClass))
			}
			for name, ri := range ref.byImage {
				gi := st.byImage[name]
				if gi == nil || gi.target != ri.target || gi.idle != ri.idle || gi.svcEWMA != ri.svcEWMA || gi.lastSeen != ri.lastSeen {
					t.Fatalf("%s step %d: image %s: %+v, full scan %+v", tc.name, step, name, gi, ri)
				}
			}
		}
		t.Logf("%s: %d images reaped", tc.name, reaped)
		if reaped < 50 {
			t.Fatalf("%s: the reaper retired only %d images; the sequence does not exercise it", tc.name, reaped)
		}
	}
}
