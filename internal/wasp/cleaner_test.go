package wasp

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/vmm"
)

// dirtyProbeAsm reports the heap word at 0x6000 as its return value and
// then dirties it. A shell handed out without cleaning makes the next
// probe observe the previous run's marker instead of zero.
const dirtyProbeAsm = `
	movi rbx, 0x6000
	load rax, [rbx]
	movi rcx, 0x4000
	store [rcx], rax     ; ret = previous marker (must be 0)
	movi rax, 0xD1D1
	store [rbx], rax     ; dirty the shell
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// TestAsyncReleaseDoesNoZeroingOnCallerPath pins the Wasp+CA contract:
// neither release nor acquire charges a request for zeroing. Release
// pools the shell dirty, unzeroed, and the driven ledger owes its
// zeroing; the next acquire resets it with no ZeroCost on its clock
// (Wasp+C's acquire pays exactly that) and, reacquiring before the
// virtual core settled, forgives the release; DrainAt then charges the
// core for the release still owed.
func TestAsyncReleaseDoesNoZeroingOnCallerPath(t *testing.T) {
	img := guest.MinimalHalt()
	mem := img.MemBytes()
	runTwice := func(w *Wasp) (second uint64) {
		for i := 0; i < 2; i++ {
			clk := cycles.NewClock()
			if _, err := w.Run(img, RunConfig{}, clk); err != nil {
				t.Fatal(err)
			}
			second = clk.Now()
		}
		return second
	}
	w := New(WithAsyncClean(true))
	c := w.Cleaner()
	if c == nil {
		t.Fatal("async runtime has no cleaner")
	}
	c.SetDriven(true)
	defer c.SetDriven(false)

	if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if n := w.PoolTotal(); n != 1 {
		t.Fatalf("pool total = %d after release, want the dirty shell pooled", n)
	}
	if p, n := c.Pending(), c.Cleaned(); p != 1 || n != 0 {
		t.Fatalf("pending/cleaned = %d/%d after one release, want 1/0", p, n)
	}
	// The pooled shell is still dirty: the boot wrote page tables, so
	// unzeroed guest memory contains nonzero bytes.
	s := w.backends[0].pools.take(mem)
	if !s.dirty || checksum(s.ctx.Mem) == 0 {
		t.Fatal("release zeroed the shell or pooled it clean")
	}
	w.backends[0].pools.put(mem, s)

	goroutines := runtime.NumGoroutine()
	async, sync := runTwice(New(WithAsyncClean(true))), runTwice(New())
	if n := runtime.NumGoroutine(); n > goroutines { // earlier tests' goroutines may still be exiting
		t.Fatalf("%d goroutines after undriven Wasp+CA runs, %d before: the runtime started one", n, goroutines)
	}
	if sync-async != cycles.ZeroCost(mem) {
		t.Fatalf("warm run: Wasp+C %d, Wasp+CA %d cycles; want them ZeroCost(%d) = %d apart",
			sync, async, mem, cycles.ZeroCost(mem))
	}

	clk := cycles.NewClock()
	if _, err := w.Run(img, RunConfig{}, clk); err != nil {
		t.Fatal(err)
	}
	if n, r, p := c.Cleaned(), c.InlineReclaims(), c.Pending(); n != 1 || r != 1 || p != 1 {
		t.Fatalf("cleaned/forgiven/pending = %d/%d/%d after the reacquire, want 1/1/1", n, r, p)
	}
	if n := c.DrainAt(clk.Now()); n != 1 {
		t.Fatalf("settled %d releases, want 1", n)
	}
	if b, v := c.BusyCycles(), c.Cycles(); b != cycles.ZeroCost(mem) || v != clk.Now()+b {
		t.Fatalf("cleaner core busy %d, idle at %d; want %d, %d", b, v, cycles.ZeroCost(mem), clk.Now()+cycles.ZeroCost(mem))
	}
	if p := c.Pending(); p != 0 {
		t.Fatalf("pending = %d after settling, want 0", p)
	}
}

// TestNoDirtyShellAcquiredUnderAsyncClean is the -race stress test for
// the cleaner: many goroutines hammer Run while dirty shells cycle
// through the pool, with the ledger driven and settled concurrently; no
// run may ever observe another run's marker.
func TestNoDirtyShellAcquiredUnderAsyncClean(t *testing.T) {
	const (
		goroutines = 8
		runsEach   = 40
	)
	w := New(WithAsyncClean(true))
	img := guest.MustFromAsm("dirty-probe", guest.WrapLongMode(dirtyProbeAsm))
	c := w.Cleaner()
	c.SetDriven(true)
	defer c.SetDriven(false)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	settled := make(chan uint64)
	go func() { // the virtual cleaner core, settling beside the runs
		var n uint64
		for at := uint64(0); ; at += 1000 {
			select {
			case <-stop:
				settled <- n + uint64(c.DrainAt(at))
				return
			default:
				n += uint64(c.DrainAt(at))
				runtime.Gosched()
			}
		}
	}()
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < runsEach; i++ {
				res, err := w.Run(img, RunConfig{RetBytes: 8}, cycles.NewClock())
				if err != nil {
					errs <- err
					return
				}
				if marker := fromLE64(res.Ret); marker != 0 {
					errs <- fmt.Errorf("run %d acquired a dirty shell: marker %#x", i, marker)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	drains := <-settled
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if c.Cleaned() == 0 {
		t.Fatal("no released shell was ever reacquired")
	}
	if c.Enqueued() != uint64(goroutines*runsEach) {
		t.Fatalf("enqueued = %d, want %d (every release must be booked)",
			c.Enqueued(), goroutines*runsEach)
	}
	// Every release is settled or forgiven, exactly once.
	if got := drains + c.InlineReclaims(); got != c.Enqueued() || c.VirtualDrains() != drains {
		t.Fatalf("settled %d + forgiven %d = %d releases (core counted %d), want %d",
			drains, c.InlineReclaims(), got, c.VirtualDrains(), c.Enqueued())
	}
	if c.BusyCycles() != drains*cycles.ZeroCost(img.MemBytes()) {
		t.Fatalf("core busy %d cycles for %d settled releases", c.BusyCycles(), drains)
	}
}

// TestPoolCapacityBound is the unbounded-growth regression test: a
// burst can no longer retain more shells than the per-class cap.
func TestPoolCapacityBound(t *testing.T) {
	w := New(WithPoolPolicy(PoolPolicy{MaxPerClass: 4}))
	img := guest.MinimalHalt()
	mem := img.MemBytes()

	// Prewarm clamps at the bound.
	if added := w.Prewarm(mem, 10); added != 4 {
		t.Fatalf("prewarm added %d, want 4 (cap)", added)
	}
	if n := w.PoolTotal(); n != 4 {
		t.Fatalf("pool total = %d after prewarm, want 4", n)
	}

	// A concurrent burst of 12 runs must end at or below the cap.
	const goroutines = 12
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 4; i++ {
				if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := w.PoolTotal(); n > 4 {
		t.Fatalf("pool grew to %d shells, cap is 4", n)
	}
}

// TestAsyncBacklogAndParkBounds pins the Wasp+CA bounds: there is no
// dirty backlog to cap any more, so release parks at most MaxPerClass
// shells and drops the surplus at once (Cleaner.Dropped, not
// PoolDropped), while the driven ledger owes every release it saw and
// settles them all on the virtual core.
func TestAsyncBacklogAndParkBounds(t *testing.T) {
	w := New(WithAsyncClean(true), WithPoolPolicy(PoolPolicy{MaxPerClass: 2}))
	c := w.Cleaner()
	c.SetDriven(true)
	defer c.SetDriven(false)

	const mem = 64 << 10
	for i := 0; i < 5; i++ {
		w.release(vmm.CreateOn(vmm.KVM{}, mem, cycles.NewClock()), nil, nil)
	}
	if n := w.PoolTotal(); n != 2 {
		t.Fatalf("pool total = %d, want 2 (class cap)", n)
	}
	if d, pd := c.Dropped(), w.PoolDropped(); d != 3 || pd != 0 {
		t.Fatalf("dropped = %d (cleaner) / %d (pool), want 3 / 0", d, pd)
	}
	if p := c.Pending(); p != 5 {
		t.Fatalf("pending = %d, want all 5 releases owed", p)
	}
	if n := c.DrainAt(0); n != 5 || c.BusyCycles() != 5*cycles.ZeroCost(mem) {
		t.Fatalf("settled %d releases for %d cycles, want 5 for %d", n, c.BusyCycles(), 5*cycles.ZeroCost(mem))
	}
	if n := c.Drain(); n != 0 {
		t.Fatalf("drain after settling found %d owed, want 0", n)
	}
}

// TestAsyncCleanShrinkSeesReleasedShells is the pool-sizing check the
// old dirty queue failed: the shrink rule counted pooled shells only, so
// shells waiting for the cleaner escaped it and came back to the pool
// after the shrink. With released shells pooled directly, N serial runs
// over a prewarmed class, then an idle streak, leave exactly the warm
// floor, with nothing left owed once the core has settled.
func TestAsyncCleanShrinkSeesReleasedShells(t *testing.T) {
	const n, shrinkAfter = 6, 2
	w := New(WithAsyncClean(true), WithPoolPolicy(PoolPolicy{ShrinkAfter: shrinkAfter}))
	c := w.Cleaner()
	c.SetDriven(true)
	defer c.SetDriven(false)
	img := guest.MinimalHalt()
	mem := img.MemBytes()
	if added := w.Prewarm(mem, n); added != n {
		t.Fatalf("prewarmed %d shells, want %d", added, n)
	}
	clk := cycles.NewClock()
	for i := 0; i < n; i++ {
		if _, err := w.Run(img, RunConfig{}, clk); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*n*shrinkAfter; i++ {
		w.ObserveLoad(img.Name, mem, 0, 1000)
	}
	c.DrainAt(clk.Now())
	target := w.PoolStatsFor(mem).Target
	if got, want := w.PoolTotal()+c.Pending(), max(target, 1); got != want {
		t.Fatalf("pooled %d + owed %d shells after the idle streak, want %d (target %d)",
			w.PoolTotal(), c.Pending(), want, target)
	}
}

// TestPoolPolicySelfSizing drives the telemetry-fed sizing directly:
// bursts raise the warm target and prewarm shells; sustained idle
// decays the target and releases surplus shells, flooring at one.
func TestPoolPolicySelfSizing(t *testing.T) {
	w := New(WithPoolPolicy(PoolPolicy{MaxPerClass: 8, GrowDepth: 2, GrowBatch: 8, ShrinkAfter: 3}))
	const mem = 64 << 10

	w.ObserveLoad("", mem, 6, 1000)
	st := w.PoolStatsFor(mem)
	if st.Target != 6 || st.Cached != 6 {
		t.Fatalf("after burst of 6: target/cached = %d/%d, want 6/6", st.Target, st.Cached)
	}
	if st.SvcEWMA == 0 {
		t.Fatal("service-time telemetry not recorded")
	}

	// A deeper burst clamps at the class cap.
	w.ObserveLoad("", mem, 100, 1000)
	st = w.PoolStatsFor(mem)
	if st.Target != 8 || st.Cached != 8 {
		t.Fatalf("after deep burst: target/cached = %d/%d, want 8/8 (cap)", st.Target, st.Cached)
	}

	// Three consecutive uncontended completions shrink by one.
	for i := 0; i < 3; i++ {
		w.ObserveLoad("", mem, 0, 500)
	}
	st = w.PoolStatsFor(mem)
	if st.Target != 7 || st.Cached != 7 {
		t.Fatalf("after idle streak: target/cached = %d/%d, want 7/7", st.Target, st.Cached)
	}

	// Sustained idling floors at one warm shell.
	for i := 0; i < 3*40; i++ {
		w.ObserveLoad("", mem, 0, 500)
	}
	st = w.PoolStatsFor(mem)
	if st.Target != 0 || st.Cached != 1 {
		t.Fatalf("after sustained idle: target/cached = %d/%d, want 0/1 (floor)", st.Target, st.Cached)
	}
}
