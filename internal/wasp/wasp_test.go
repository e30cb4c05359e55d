package wasp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
)

// doubler is a self-booting virtine: read the argument at 0x0, double it,
// store the result at the return region, exit(0).
const doublerAsm = `
	movi rbx, 0x0
	load rdi, [rbx]
	add rdi, rdi
	movi rbx, 0x4000
	store [rbx], rdi
	movi rdi, 0
	out 0x00, rdi
	hlt
`

func doublerImage() *guest.Image {
	return guest.MustFromAsm("doubler", guest.WrapLongMode(doublerAsm))
}

func le64(v uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

func fromLE64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(b); i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func TestRunMinimalHalt(t *testing.T) {
	w := New()
	clk := cycles.NewClock()
	res, err := w.Run(guest.MinimalHalt(), RunConfig{}, clk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("run cost nothing")
	}
	// The boot events must be populated (virtine really booted).
	var any bool
	for _, e := range res.BootEvents {
		if e != 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("no boot events recorded")
	}
}

func TestArgumentMarshalling(t *testing.T) {
	w := New()
	res, err := w.Run(doublerImage(), RunConfig{
		Args:     le64(21),
		RetBytes: 8,
	}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if got := fromLE64(res.Ret); got != 42 {
		t.Fatalf("doubler(21) = %d, want 42", got)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit code %d", res.ExitCode)
	}
}

func TestDefaultDeny(t *testing.T) {
	// A virtine that tries write() under the default deny-all policy
	// must be terminated (§5.1).
	img := guest.MustFromAsm("writer", guest.WrapLongMode(`
	movi rdi, 1
	movi rsi, 0x8000
	movi rdx, 4
	out 0x01, rdi
	hlt
`))
	w := New()
	_, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want denial", err)
	}
}

func TestExitAlwaysPermitted(t *testing.T) {
	img := guest.MustFromAsm("exiter", guest.WrapLongMode(`
	movi rdi, 7
	out 0x00, rdi
	hlt
`))
	w := New()
	res, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 7 {
		t.Fatalf("exit code = %d, want 7", res.ExitCode)
	}
}

func TestAllowAllWrite(t *testing.T) {
	img := guest.MustFromAsm("hello", guest.WrapLongMode(`
	movi rdi, 1
	movi rsi, msg
	movi rdx, 5
	out 0x01, rdi
	movi rdi, 0
	out 0x00, rdi
	hlt
msg:
	.db "hello"
`))
	w := New()
	res, err := w.Run(img, RunConfig{Policy: hypercall.AllowAll{}}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Stdout) != "hello" {
		t.Fatalf("stdout = %q", res.Stdout)
	}
}

func TestMaskPolicy(t *testing.T) {
	img := guest.MustFromAsm("masked", guest.WrapLongMode(`
	movi rdi, 1
	movi rsi, 0x8000
	movi rdx, 1
	out 0x01, rdi    ; write: allowed by mask
	movi rdi, 0
	movi rsi, 0x5000
	out 0x03, rdi    ; open: not in mask -> killed
	hlt
`))
	w := New()
	pol := hypercall.MaskOf(hypercall.NrWrite)
	_, err := w.Run(img, RunConfig{Policy: pol}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "open") {
		t.Fatalf("err = %v, want open denial", err)
	}
}

func TestPoolingReusesShells(t *testing.T) {
	w := New() // pooling on, sync clean
	img := guest.MinimalHalt()
	clk1 := cycles.NewClock()
	if _, err := w.Run(img, RunConfig{}, clk1); err != nil {
		t.Fatal(err)
	}
	if w.PoolSize(img.MemBytes()) != 1 {
		t.Fatalf("pool size = %d, want 1", w.PoolSize(img.MemBytes()))
	}
	clk2 := cycles.NewClock()
	res2, err := w.Run(img, RunConfig{}, clk2)
	if err != nil {
		t.Fatal(err)
	}
	// The pooled run avoids KVM_CREATE_VM and must be much cheaper.
	if res2.Cycles+cycles.KVMCreateVM/2 > clk1.Now() {
		t.Fatalf("pooled run (%d) not meaningfully cheaper than cold (%d)", res2.Cycles, clk1.Now())
	}
}

func TestAsyncCleanCheaperThanSync(t *testing.T) {
	img := guest.MinimalHalt()
	cost := func(opts ...Option) uint64 {
		w := New(opts...)
		// Warm the pool.
		if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		clk := cycles.NewClock()
		if _, err := w.Run(img, RunConfig{}, clk); err != nil {
			t.Fatal(err)
		}
		return clk.Now()
	}
	sync := cost()
	async := cost(WithAsyncClean(true))
	if async >= sync {
		t.Fatalf("async clean (%d) should be cheaper than sync (%d)", async, sync)
	}
	// The async path must avoid the full zeroing cost.
	if sync-async < cycles.ZeroCost(img.MemBytes())/2 {
		t.Fatalf("async saving too small: sync=%d async=%d", sync, async)
	}
}

func TestShellCleaningPreventsLeaks(t *testing.T) {
	// Virtine A writes a secret into its heap; virtine B (same pool,
	// no snapshot) must observe zeroed memory (§3.3 data secrecy).
	secretWriter := guest.MustFromAsm("secret-writer", guest.WrapLongMode(`
	movi rbx, 0x6000
	movi rax, 0xDEADBEEF
	store [rbx], rax
	hlt
`))
	secretReader := guest.MustFromAsm("secret-reader", guest.WrapLongMode(`
	movi rbx, 0x6000
	load rdi, [rbx]
	movi rbx, 0x4000
	store [rbx], rdi
	hlt
`))
	w := New()
	if _, err := w.Run(secretWriter, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(secretReader, RunConfig{RetBytes: 8}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if got := fromLE64(res.Ret); got != 0 {
		t.Fatalf("secret leaked across virtines: %#x", got)
	}
}

// snapshotCounter boots, bumps a counter at 0x6000 (pre-snapshot work),
// snapshots, bumps a counter at 0x6008 (post-snapshot work), and reports
// both counters.
const snapshotCounterAsm = `
	movi rbx, 0x6000
	load rax, [rbx]
	inc rax
	store [rbx], rax
	movi rdi, 0
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6008
	load rax, [rbx]
	inc rax
	store [rbx], rax
	movi rbx, 0x6000
	load rax, [rbx]
	movi rbx, 0x4000
	store [rbx], rax     ; ret[0] = pre-snapshot counter
	movi rbx, 0x6008
	load rax, [rbx]
	movi rbx, 0x4008
	store [rbx], rax     ; ret[8] = post-snapshot counter
	movi rdi, 0
	out 0x00, rdi
	hlt
`

func TestSnapshotResumesAtSnapshotPoint(t *testing.T) {
	img := guest.MustFromAsm("snap-counter", guest.WrapLongMode(snapshotCounterAsm))
	w := New()
	cfg := RunConfig{Snapshot: true, RetBytes: 16}

	res1, err := w.Run(img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res1.SnapshotUsed {
		t.Fatal("first run cannot use a snapshot")
	}
	if pre, post := fromLE64(res1.Ret[:8]), fromLE64(res1.Ret[8:]); pre != 1 || post != 1 {
		t.Fatalf("first run counters = %d/%d, want 1/1", pre, post)
	}
	if !hasSnapshot(w.backends[0], img.Name) {
		t.Fatal("snapshot not captured")
	}

	res2, err := w.Run(img, cfg, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !res2.SnapshotUsed {
		t.Fatal("second run should restore the snapshot")
	}
	// Pre-snapshot work must NOT re-execute; post-snapshot work must.
	if pre, post := fromLE64(res2.Ret[:8]), fromLE64(res2.Ret[8:]); pre != 1 || post != 1 {
		t.Fatalf("restored counters = %d/%d, want 1/1 (resume at snapshot point)", pre, post)
	}
	// And the snapshot path must skip the boot: cheaper than run 1.
	if res2.Cycles >= res1.Cycles {
		t.Fatalf("snapshot run (%d) not cheaper than cold (%d)", res2.Cycles, res1.Cycles)
	}
}

func TestSnapshotIsolationAcrossRuns(t *testing.T) {
	// State mutated after the snapshot must not persist into the next
	// restored run (each run gets a fresh copy of the reset state).
	img := guest.MustFromAsm("snap-isolation", guest.WrapLongMode(snapshotCounterAsm))
	w := New()
	cfg := RunConfig{Snapshot: true, RetBytes: 16}
	if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := w.Run(img, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if post := fromLE64(res.Ret[8:]); post != 1 {
			t.Fatalf("post-snapshot counter = %d on run %d; state leaked between restored runs", post, i)
		}
	}
}

// TestSnapshotDisabledPerRun: RunConfig.Snapshot is the one switch. A
// run with it off captures nothing, though the guest makes the snapshot
// hypercall, and every such run starts from scratch.
func TestSnapshotDisabledPerRun(t *testing.T) {
	img := guest.MustFromAsm("snap-off", guest.WrapLongMode(snapshotCounterAsm))
	w := New()
	cfg := RunConfig{Snapshot: false, RetBytes: 16}
	for i := 0; i < 2; i++ {
		res, err := w.Run(img, cfg, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if hasSnapshot(w.backends[0], img.Name) {
			t.Fatalf("run %d: snapshot captured with RunConfig.Snapshot off", i)
		}
		if pre, post := fromLE64(res.Ret[:8]), fromLE64(res.Ret[8:]); res.SnapshotUsed || pre != 1 || post != 1 {
			t.Fatalf("run %d: restored=%v counters %d/%d, want a fresh run (1/1)", i, res.SnapshotUsed, pre, post)
		}
	}
}

func TestFaultingGuestReturnsError(t *testing.T) {
	img := guest.MustFromAsm("faulty", guest.WrapLongMode(`
	movi rbx, 0
	movi rax, 1
	div rax, rbx
	hlt
`))
	w := New()
	_, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "faulted") {
		t.Fatalf("err = %v, want fault", err)
	}
}

func TestNativeWorkload(t *testing.T) {
	var inits int
	native := func(c any) error {
		n := c.(*NativeCtx)
		if n.Restored() == nil {
			inits++
			n.Charge(100_000) // expensive engine init
			n.TakeSnapshot("engine-ready")
		}
		// Pull input, "process" it, return it reversed.
		buf := uint64(guest.HeapBase)
		got, err := n.Hypercall(hypercall.NrGetData, buf, 64)
		if err != nil {
			return err
		}
		data := append([]byte(nil), n.Mem()[buf:buf+got]...)
		for i, j := 0, len(data)-1; i < j; i, j = i+1, j-1 {
			data[i], data[j] = data[j], data[i]
		}
		copy(n.Mem()[buf:], data)
		n.Charge(uint64(10 * len(data)))
		if _, err := n.Hypercall(hypercall.NrReturnData, buf, got); err != nil {
			return err
		}
		_, err = n.Hypercall(hypercall.NrExit, 0)
		return err
	}
	img := guest.NativeBootStub("reverser", native, 0)
	w := New()
	pol := hypercall.MaskOf(hypercall.NrGetData, hypercall.NrReturnData)

	env := hypercall.NewEnv()
	env.DataIn = []byte("virtine")
	res1, err := w.Run(img, RunConfig{Policy: pol, Env: env, Snapshot: true}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1.DataOut, []byte("enitriv")) {
		t.Fatalf("out = %q", res1.DataOut)
	}

	env2 := hypercall.NewEnv()
	env2.DataIn = []byte("wasp")
	res2, err := w.Run(img, RunConfig{Policy: pol, Env: env2, Snapshot: true}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.DataOut, []byte("psaw")) {
		t.Fatalf("out2 = %q", res2.DataOut)
	}
	if inits != 1 {
		t.Fatalf("engine initialized %d times, want 1 (snapshot reuse)", inits)
	}
	if res2.Cycles >= res1.Cycles {
		t.Fatalf("snapshot native run (%d) not cheaper than cold (%d)", res2.Cycles, res1.Cycles)
	}
}

func TestNativeHypercallDenied(t *testing.T) {
	native := func(c any) error {
		n := c.(*NativeCtx)
		_, err := n.Hypercall(hypercall.NrOpen, 0)
		return err
	}
	img := guest.NativeBootStub("native-denied", native, 0)
	w := New()
	_, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want denial", err)
	}
}

// TestInterpositionShared: an interpreted guest's hypercall and a native
// workload's cross one interposition layer (§5.1), so a call is denied,
// fails in its handler or bypasses policy the same way from either, and
// the error the guest's run returns reads exactly as the one the
// workload's Hypercall returns, the virtine's name included, and as the
// native run's, which passes it on. A workload's own error is named once.
func TestInterpositionShared(t *testing.T) {
	boom := errors.New("boom")
	failing := hypercall.HandlerFunc(func(hypercall.Args, hypercall.GuestMem) (uint64, error) { return 0, boom })
	for _, c := range []struct {
		name    string
		nr      uint8
		policy  hypercall.Policy
		handler hypercall.Handler
		want    error // nil: the call succeeds
	}{
		{"denied", hypercall.NrGetData, hypercall.DenyAll{}, nil, hypercall.ErrDenied},
		{"handler-fails", hypercall.NrGetData, hypercall.AllowAll{}, failing, boom},
		{"mechanism-under-deny-all", hypercall.NrMark, hypercall.DenyAll{}, nil, nil},
	} {
		// Both images are named "interposed": the name is in the error.
		interp := guest.MustFromAsm("interposed", guest.WrapLongMode(fmt.Sprintf(`
	movi rdi, %d
	movi rsi, 64
	out %d, rax
	hlt
`, guest.HeapBase, c.nr)))
		var callErr error
		native := guest.NativeBootStub("interposed", func(a any) error {
			_, callErr = a.(*NativeCtx).Hypercall(c.nr, guest.HeapBase, 64)
			return callErr
		}, 0)
		cfg := RunConfig{Policy: c.policy, Handler: c.handler}
		ires, ierr := New().Run(interp, cfg, cycles.NewClock())
		nres, nerr := New().Run(native, cfg, cycles.NewClock())
		if fmt.Sprint(ierr) != fmt.Sprint(callErr) {
			t.Fatalf("%s: the interpreted run returns %q, the native Hypercall %q", c.name, ierr, callErr)
		}
		if fmt.Sprint(nerr) != fmt.Sprint(ierr) {
			t.Fatalf("%s: the interpreted run returns %q, the native run %q", c.name, ierr, nerr)
		}
		for _, err := range []error{ierr, callErr, nerr} {
			if (err == nil) != (c.want == nil) || !errors.Is(err, c.want) ||
				errors.Is(err, hypercall.ErrDenied) != (c.want == hypercall.ErrDenied) {
				t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
			}
		}
		if c.want == nil && (len(ires.Marks) != 1 || len(nres.Marks) != 1) {
			t.Fatalf("%s: %d and %d marks recorded, want 1 from each", c.name, len(ires.Marks), len(nres.Marks))
		}
	}
	// A workload's own error is named once, with its virtine, and so is
	// a hypercall error it wraps and a call with more arguments than the
	// ABI's six registers.
	own := guest.NativeBootStub("interposed", func(any) error { return boom }, 0)
	if _, err := New().Run(own, RunConfig{}, cycles.NewClock()); fmt.Sprint(err) != "wasp: virtine interposed: boom" || !errors.Is(err, boom) {
		t.Fatalf("a workload's own error reads %q", err)
	}
	var callErr error
	wrapping := guest.NativeBootStub("interposed", func(a any) error {
		_, callErr = a.(*NativeCtx).Hypercall(hypercall.NrGetData, guest.HeapBase, 64)
		return fmt.Errorf("encode: %w", callErr)
	}, 0)
	_, err := New().Run(wrapping, RunConfig{Policy: hypercall.AllowAll{}, Handler: failing}, cycles.NewClock())
	if callErr == nil || fmt.Sprint(err) != "encode: "+callErr.Error() || !errors.Is(err, boom) {
		t.Fatalf("a wrapped hypercall error reads %q, the call's %q", err, callErr)
	}
	long := guest.NativeBootStub("interposed", func(a any) error {
		_, err := a.(*NativeCtx).Hypercall(hypercall.NrMark, 1, 2, 3, 4, 5, 6, 7)
		return err
	}, 0)
	if _, err := New().Run(long, RunConfig{}, cycles.NewClock()); fmt.Sprint(err) != "wasp: virtine interposed: mark: too many arguments" {
		t.Fatalf("a seven-argument call's error reads %q", err)
	}
}

func TestOneShotPolicy(t *testing.T) {
	native := func(c any) error {
		n := c.(*NativeCtx)
		if _, err := n.Hypercall(hypercall.NrGetData, guest.HeapBase, 8); err != nil {
			return err
		}
		// Second get_data must be rejected (§6.5 hardening).
		_, err := n.Hypercall(hypercall.NrGetData, guest.HeapBase, 8)
		return err
	}
	img := guest.NativeBootStub("one-shot", native, 0)
	w := New()
	pol := &hypercall.OneShot{
		Inner: hypercall.MaskOf(hypercall.NrGetData, hypercall.NrReturnData),
		Once:  hypercall.MaskOf(hypercall.NrGetData),
	}
	_, err := w.Run(img, RunConfig{Policy: pol}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want one-shot denial", err)
	}
}

func TestMarksRecorded(t *testing.T) {
	img := guest.MustFromAsm("marker", guest.WrapLongMode(`
	movi rdi, 1
	out 0x0B, rdi
	movi rdi, 2
	out 0x0B, rdi
	hlt
`))
	w := New()
	res, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Marks) != 2 || res.Marks[0].ID != 1 || res.Marks[1].ID != 2 {
		t.Fatalf("marks = %+v", res.Marks)
	}
	if res.Marks[1].Cycle < res.Marks[0].Cycle {
		t.Fatal("marks out of order")
	}
	if res.Marks[0].Cycle == 0 {
		t.Fatal("mark has no timestamp")
	}
}

func TestGuestMemBounds(t *testing.T) {
	gm := guestMem{mem: make([]byte, 100), clk: cycles.NewClock()}
	if _, err := gm.ReadGuest(90, 20); err == nil {
		t.Fatal("OOB read not caught")
	}
	if err := gm.WriteGuest(99, []byte{1, 2}); err == nil {
		t.Fatal("OOB write not caught")
	}
	if _, err := gm.ReadGuest(0, -1); err == nil {
		t.Fatal("negative read not caught")
	}
	if _, err := gm.ReadGuest(0, 100); err != nil {
		t.Fatalf("in-bounds read failed: %v", err)
	}
}

// BenchmarkHypercallAllocs measures host-side allocations on the
// hypercall data path: a guest making 8 write() hypercalls (each a
// guestMem.ReadGuest of the payload) plus an 8-byte Result.Ret copy-out.
// It reads 9 allocs/op, every one of them kept by the caller or made by
// it: the caller's NewEnv (the Env and its FS) and clock, the Result,
// four growths of the environment's Stdout buffer and the Result's copy
// of it. The run itself allocates nothing per hypercall: ReadGuest
// reuses the scratch its shell keeps across runs, exits are the CPU's
// own record, and the run's config and guest-memory window live in the
// shell (shell.begin). TestWarmRunAllocs gates the same path.
func BenchmarkHypercallAllocs(b *testing.B) {
	body := ""
	for i := 0; i < 8; i++ {
		body += "\tmovi rdi, 1\n\tmovi rsi, 0x8000\n\tmovi rdx, 64\n\tout 0x01, rax\n"
	}
	body += "\tmovi rdi, 0\n\tout 0x00, rdi\n\thlt\n"
	img := guest.MustFromAsm("hc-allocs", guest.WrapLongMode(body))
	w := New()
	cfg := RunConfig{
		Policy:   hypercall.MaskOf(hypercall.NrWrite),
		RetBytes: 8,
	}
	mk := func() RunConfig {
		c := cfg
		c.Env = hypercall.NewEnv()
		return c
	}
	if _, err := w.Run(img, mk(), cycles.NewClock()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(img, mk(), cycles.NewClock()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestNoPooling(t *testing.T) {
	w := New(WithPooling(false))
	img := guest.MinimalHalt()
	if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	if w.PoolSize(img.MemBytes()) != 0 {
		t.Fatal("pool populated despite pooling disabled")
	}
	// Every run pays full creation.
	clk := cycles.NewClock()
	if _, err := w.Run(img, RunConfig{}, clk); err != nil {
		t.Fatal(err)
	}
	if clk.Now() < cycles.KVMCreateVM {
		t.Fatal("unpooled run did not pay creation cost")
	}
}

func TestRunStatsCounted(t *testing.T) {
	img := guest.MustFromAsm("stats", guest.WrapLongMode(`
	movi rdi, 1
	out 0x0B, rdi
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	w := New()
	res, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res.IOExits != 2 {
		t.Fatalf("IO exits = %d, want 2", res.IOExits)
	}
	if res.Entries < 1 {
		t.Fatal("no entries counted")
	}
}

// TestOversizedTransferFailsClosed: an argument blob past guest.ArgMax or
// a return size past guest.RetMax fails the run before it starts — no
// shell taken, no cycle charged, and, on a snapshotting run of a guest
// that captures one, no snapshot registered for the image.
func TestOversizedTransferFailsClosed(t *testing.T) {
	img := guest.MustFromAsm("oversized", guest.WrapLongMode(argSnapshotAsm))
	for _, tc := range []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"args", RunConfig{Snapshot: true, Args: make([]byte, guest.ArgMax+1)}, "argument blob"},
		{"ret", RunConfig{Snapshot: true, RetBytes: guest.RetMax + 1}, "return size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := New()
			clk := cycles.NewClock()
			_, err := w.Run(img, tc.cfg, clk)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming the %s", err, tc.want)
			}
			if n := w.PoolTotal(); n != 0 {
				t.Errorf("%d shells pooled: the failed run took one", n)
			}
			if now := clk.Now(); now != 0 {
				t.Errorf("clock reads %d, want 0", now)
			}
			if hasSnapshot(w.backends[0], img.Name) {
				t.Error("the failed run registered a snapshot")
			}
		})
	}
}
