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
	if p, n := metric(w, pendingKVM), metric(w, cleanedKVM); p != 1 || n != 0 {
		t.Fatalf("pending/cleaned = %v/%v after one release, want 1/0", p, n)
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
	if n, r, p := metric(w, cleanedKVM), c.InlineReclaims(), metric(w, pendingKVM); n != 1 || r != 1 || p != 1 {
		t.Fatalf("cleaned/forgiven/pending = %v/%d/%v after the reacquire, want 1/1/1", n, r, p)
	}
	if n := c.DrainAt(clk.Now()); n != 1 {
		t.Fatalf("settled %d releases, want 1", n)
	}
	if b, v := c.BusyCycles(), c.Cycles(); b != cycles.ZeroCost(mem) || v != clk.Now()+b {
		t.Fatalf("cleaner core busy %d, idle at %d; want %d, %d", b, v, cycles.ZeroCost(mem), clk.Now()+cycles.ZeroCost(mem))
	}
	if p := metric(w, pendingKVM); p != 0 {
		t.Fatalf("pending = %v after settling, want 0", p)
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
	if metric(w, cleanedKVM) == 0 {
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
	// Every run of img waits inside its shell until the whole burst is
	// inside one, so burst shells are out at once.
	const burst = maxPerClass + 16
	var inside sync.WaitGroup
	inside.Add(burst)
	img := guest.NativeBootStub("capacity-burst", func(any) error {
		inside.Done()
		inside.Wait()
		return nil
	}, 0)
	mem := img.MemBytes()
	w := New()

	// Prewarm clamps at the bound.
	if added := w.Prewarm(mem, maxPerClass+10); added != maxPerClass {
		t.Fatalf("prewarm added %d, want %d (cap)", added, maxPerClass)
	}
	if n := w.PoolTotal(); n != maxPerClass {
		t.Fatalf("pool total = %d after prewarm, want %d", n, maxPerClass)
	}

	// The burst takes the maxPerClass warm shells, creates 16 cold, and
	// releases all of them concurrently into the class: exactly the
	// surplus goes to the host.
	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, d := w.PoolTotal(), w.PoolDropped(); n != maxPerClass || d != burst-maxPerClass {
		t.Fatalf("pool total %d, dropped %d after a burst of %d, want %d, %d",
			n, d, burst, maxPerClass, burst-maxPerClass)
	}
	// Shells released one at a time into a full class go to the host too.
	for i := 0; i < 3; i++ {
		w.release(&shell{ctx: vmm.CreateOn(vmm.KVM{}, mem, cycles.NewClock())}, nil)
	}
	if n, d := w.PoolTotal(), w.PoolDropped(); n != maxPerClass || d != burst-maxPerClass+3 {
		t.Fatalf("pool total %d, dropped %d after three more releases into a full class, want %d, %d",
			n, d, maxPerClass, burst-maxPerClass+3)
	}
}

// TestAsyncBacklogAndParkBounds pins the Wasp+CA bounds: there is no
// dirty backlog to cap any more, so release parks at most maxPerClass
// shells and drops the surplus at once (Cleaner.Dropped, not
// PoolDropped), while the driven ledger owes every release it saw and
// settles them all on the virtual core.
func TestAsyncBacklogAndParkBounds(t *testing.T) {
	w := New(WithAsyncClean(true))
	c := w.Cleaner()
	c.SetDriven(true)
	defer c.SetDriven(false)

	const mem, n = 64 << 10, maxPerClass + 3
	for i := 0; i < n; i++ {
		w.release(&shell{ctx: vmm.CreateOn(vmm.KVM{}, mem, cycles.NewClock())}, nil)
	}
	if got := w.PoolTotal(); got != maxPerClass {
		t.Fatalf("pool total = %d, want %d (class cap)", got, maxPerClass)
	}
	if d, pd := c.Dropped(), w.PoolDropped(); d != 3 || pd != 0 {
		t.Fatalf("dropped = %d (cleaner) / %d (pool), want 3 / 0", d, pd)
	}
	if p := metric(w, pendingKVM); p != n {
		t.Fatalf("pending = %v, want all %d releases owed", p, n)
	}
	if got := c.DrainAt(0); got != n || c.BusyCycles() != n*cycles.ZeroCost(mem) {
		t.Fatalf("settled %d releases for %d cycles, want %d for %d", got, c.BusyCycles(), n, n*cycles.ZeroCost(mem))
	}
	if got := c.Drain(); got != 0 {
		t.Fatalf("drain after settling found %d owed, want 0", got)
	}
}

// TestAsyncCleanShrinkSeesReleasedShells is the pool-sizing check the
// old dirty queue failed: the shrink rule counted pooled shells only, so
// shells waiting for the cleaner escaped it and came back to the pool
// after the shrink. With released shells pooled directly, N serial runs
// over a prewarmed class, then an idle streak, leave exactly the one
// shell the class keeps, with nothing left owed once the core has
// settled.
func TestAsyncCleanShrinkSeesReleasedShells(t *testing.T) {
	const n = 6
	w := New(WithAsyncClean(true))
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
		w.ObserveLoadOn("", mem, 0)
	}
	c.DrainAt(clk.Now())
	if owed := metric(w, pendingKVM); w.PoolTotal()+int(owed) != 1 {
		t.Fatalf("pooled %d + owed %v shells after the idle streak, want 1", w.PoolTotal(), owed)
	}
}

// TestPoolPolicySelfSizing drives the pool's one sizing rule directly:
// each size class counts its uncontended completions in a row, and every
// shrinkAfter of them gives one cached shell back to the host, flooring
// at one. A completion that queued resets the streak, and each class
// (whichever images run in it) counts its own.
func TestPoolPolicySelfSizing(t *testing.T) {
	w := New()
	const mem, other = 64 << 10, 128 << 10
	w.Prewarm(mem, 8)
	w.Prewarm(other, 8)

	for i := 0; i < shrinkAfter-1; i++ {
		w.ObserveLoadOn("", mem, 0)
	}
	w.ObserveLoadOn("", other, 0) // another class's streak
	if a, b := w.PoolSize(mem), w.PoolSize(other); a != 8 || b != 8 {
		t.Fatalf("after %d idle completions and one in another class: %d and %d cached, want 8 and 8", shrinkAfter-1, a, b)
	}
	// One queued completion resets the streak.
	w.ObserveLoadOn("", mem, 3)
	w.ObserveLoadOn("", mem, 0)
	if got := w.PoolSize(mem); got != 8 {
		t.Fatalf("a streak broken by a queue shrank the class to %d", got)
	}
	for i := 0; i < shrinkAfter-1; i++ {
		w.ObserveLoadOn("", mem, 0)
	}
	if got := w.PoolSize(mem); got != 7 {
		t.Fatalf("after a full idle streak: %d cached, want 7", got)
	}
	if got := w.PoolSize(other); got != 8 {
		t.Fatalf("another class's idle streak shrank this one to %d", got)
	}

	// Sustained idling floors at one warm shell.
	for i := 0; i < 20*shrinkAfter; i++ {
		w.ObserveLoadOn("", mem, 0)
	}
	if got := w.PoolSize(mem); got != 1 {
		t.Fatalf("after sustained idle: %d cached, want 1 (floor)", got)
	}
}
