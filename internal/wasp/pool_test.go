package wasp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
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

// TestConcurrentRunStress hammers Run from many goroutines across three
// images with pooling and snapshotting enabled — the scenario the
// sharded pools exist for. Run under -race this doubles as the data-race
// check on the pool, snapshot, and COW registries.
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
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
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

// TestPoolStaleWalkGuardMatchesFullScan: observe looks for a stale victim
// only from the tick at which one can exist. Beside it runs the old rule
// — the full walk on every completion, forced by zeroing the guard — over
// one seeded observation sequence; every pool decision (growth request,
// shells cached, each image's claim, idle streak and last-seen tick) must
// be identical after every step, or virtual-mode runs would diverge.
func TestPoolStaleWalkGuardMatchesFullScan(t *testing.T) {
	const mem = 64 << 10
	policy := PoolPolicy{MaxPerClass: 24, GrowDepth: 3, GrowBatch: 4, ShrinkAfter: 4}
	guarded, full := &shellPools{policy: policy}, &shellPools{policy: policy}
	rng := rand.New(rand.NewSource(11))
	zipf := rand.NewZipf(rng, 1.2, 4, 95)
	skipped := 0
	for step := 0; step < 30000; step++ {
		image := fmt.Sprintf("tenant-%d", zipf.Uint64())
		if step > 20000 {
			image = fmt.Sprintf("tenant-%d", rng.Intn(3)) // the tail vanishes
		}
		depth := []int{0, 0, 0, 0, 1, 2, 5, 9}[rng.Intn(8)]
		svc := uint64(500 + rng.Intn(2000))

		if st := full.shardFor(mem).sizing[mem]; st != nil {
			st.staleAt = 0
		}
		if st := guarded.shardFor(mem).sizing[mem]; st != nil && st.tick+1 < st.staleAt {
			skipped++
		}
		wantG := guarded.observe(image, mem, depth, svc)
		wantF := full.observe(image, mem, depth, svc)
		if wantG != wantF {
			t.Fatalf("step %d: growth request %d, full scan %d", step, wantG, wantF)
		}
		for _, p := range []*shellPools{guarded, full} {
			for p.size(mem) < wantG {
				p.put(mem, &shell{}) // the prewarm the caller would do
			}
		}
		if guarded.size(mem) != full.size(mem) {
			t.Fatalf("step %d: %d shells cached, full scan %d", step, guarded.size(mem), full.size(mem))
		}
		g, f := guarded.shardFor(mem).sizing[mem], full.shardFor(mem).sizing[mem]
		if g.tick != f.tick || len(g.byImage) != len(f.byImage) {
			t.Fatalf("step %d: tick %d/%d, images %d/%d", step, g.tick, f.tick, len(g.byImage), len(f.byImage))
		}
		for name, gi := range g.byImage {
			if fi := f.byImage[name]; fi == nil || *gi != *fi {
				t.Fatalf("step %d: image %s: %+v, full scan %+v", step, name, gi, fi)
			}
		}
	}
	if skipped < 5000 {
		t.Fatalf("the guard skipped only %d of 30000 walks; the sequence does not exercise it", skipped)
	}
}
