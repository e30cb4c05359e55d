package wasp

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/vmm"
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
// changes only that range and marks exactly its pages dirty on the
// window's context. A success is charged MemcpyCost(n), a failure
// nothing.
func FuzzGuestMem(f *testing.F) {
	f.Add(uint16(4096), ^uint64(0), int64(16), byte(1))  // addr = 2^64-1
	f.Add(uint16(4096), uint64(4096), int64(0), byte(2)) // addr = len
	f.Add(uint16(4096), uint64(100), int64(0), byte(3))  // n = 0
	f.Add(uint16(4096), uint64(8), int64(-1), byte(4))   // n < 0
	f.Add(uint16(0), uint64(0), int64(1), byte(5))
	f.Fuzz(func(t *testing.T, size uint16, addr uint64, n int64, fill byte) {
		ctx := vmm.CreateOn(vmm.KVM{}, int(size), cycles.NewClock())
		mem := ctx.Mem
		for i := range mem {
			mem[i] = byte(i)
		}
		orig := bytes.Clone(mem)
		inside := func(n int64) bool {
			end, carry := bits.Add64(addr, uint64(n), 0)
			return n >= 0 && carry == 0 && end <= uint64(len(mem))
		}
		g := guestMem{ctx: ctx, mem: mem, clk: cycles.NewClock()}

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
			if g.clk.Now() != at || ctx.DirtyCount() != 0 || !bytes.Equal(mem, orig) {
				t.Fatal("a failed write was charged, marked or written")
			}
			return
		}
		if g.clk.Now()-at != cycles.MemcpyCost(int(wn)) {
			t.Fatalf("write charged %d, want %d", g.clk.Now()-at, cycles.MemcpyCost(int(wn)))
		}
		var pages []int
		for p := addr / vmm.PageSize; wn > 0 && p <= (addr+uint64(wn)-1)/vmm.PageSize; p++ {
			pages = append(pages, int(p))
		}
		if got := ctx.DirtyPages(); !slices.Equal(got, pages) {
			t.Fatalf("write of [%#x,+%d) marked pages %v, want %v", addr, wn, got, pages)
		}
		copy(orig[addr:], data)
		if !bytes.Equal(mem, orig) {
			t.Fatal("write changed bytes outside its range")
		}
	})
}

// TestConcurrentRunStress hammers Run from many goroutines across three
// images with pooling and snapshotting enabled — the scenario the
// pools' locking exists for. Run under -race this doubles as the data-race
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
		if !hasSnapshot(w.backends[0], img.Name) {
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

// TestPoolIdleStreakConcurrent: the real-mode scheduler's workers feed
// their completions' depths concurrently with other runs' acquires and
// releases. Every observation lands in the class's one streak (none is
// lost), the shrink never takes the last shell, and every pooled shell
// stays exact.
func TestPoolIdleStreakConcurrent(t *testing.T) {
	const goroutines = 8
	w := New()
	img := guest.MinimalHalt()
	mem := img.MemBytes()
	w.Prewarm(mem, goroutines)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < shrinkAfter; i++ {
				if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
					errs <- err
					return
				}
				w.ObserveLoadOn("", mem, 0)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	pools := &w.backends[0].pools
	pools.mu.Lock()
	idle := pools.classes[mem].idle
	pools.mu.Unlock()
	if idle != 0 {
		t.Fatalf("idle streak %d after %d×%d observations, want 0: an observation was lost", idle, goroutines, shrinkAfter)
	}
	if n := w.PoolSize(mem); n < 1 || n > goroutines {
		t.Fatalf("%d shells pooled, want 1..%d", n, goroutines)
	}
	if err := checkRuntime(w); err != nil {
		t.Fatal(err)
	}
}
