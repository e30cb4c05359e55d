package wasp

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
)

// tenantShapedAsm is a warm tenant's request in miniature: it captures
// its snapshot on the first run, and every later run restores there,
// receives a request on the socket, sends it back and exits.
const tenantShapedAsm = `
	out 0x08, rdi        ; snapshot(): later runs restore here
	movi rdi, 3
	movi rsi, 0x5000
	movi rdx, 64
	out 0x07, rax        ; recv(3, heap, 64)
	mov rdx, rax
	movi rdi, 3
	movi rsi, 0x5000
	out 0x06, rax        ; send(3, heap, n)
	movi rdi, 0
	out 0x00, rdi        ; exit(0)
	hlt
`

// nativeTenant is tenantShapedAsm as a native workload: the first run
// captures its snapshot, and every run receives a request on the socket,
// sends it back and exits.
func nativeTenant() *guest.Image {
	return guest.NativeBootStub("native-tenant", func(c any) error {
		n := c.(*NativeCtx)
		if n.Restored() == nil {
			if err := n.TakeSnapshot("ready"); err != nil {
				return err
			}
		}
		got, err := n.Hypercall(hypercall.NrRecv, 3, guest.HeapBase, 64)
		if err != nil {
			return err
		}
		if _, err := n.Hypercall(hypercall.NrSend, 3, guest.HeapBase, got); err != nil {
			return err
		}
		_, err = n.Hypercall(hypercall.NrExit, 0)
		return err
	}, 0)
}

// tenantShapedRun returns a warm runner of a tenant-shaped image on w:
// each call builds the caller's environment with NewEnv and makes one
// restored run, checking that the request came back.
func tenantShapedRun(t testing.TB, w *Wasp, img *guest.Image) func() {
	req := []byte("GET /tenant")
	clk := cycles.NewClock()
	restored := false
	run := func() {
		env := hypercall.NewEnv()
		env.NetIn = req
		res, err := w.Run(img, RunConfig{
			Policy:   hypercall.MaskOf(hypercall.NrSend, hypercall.NrRecv),
			Env:      env,
			Snapshot: true,
			RetBytes: 8,
		}, clk)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.NetOut, req) || res.SnapshotUsed != restored {
			t.Fatalf("sent %q, restored %v; want %q, restored %v", res.NetOut, res.SnapshotUsed, req, restored)
		}
	}
	run() // capture
	restored = true
	run() // the first restore decodes nothing new
	return run
}

// envSink keeps NewEnv's result on the heap in TestWarmRunAllocs.
var envSink *hypercall.Env

// TestWarmRunAllocs: a warm restored request through Run allocates what
// its caller keeps and nothing else: at most five allocations, the
// caller's NewEnv inside the measured function. NewEnv makes two, the
// Env and its FS, whose maps wait for a first file or descriptor; the
// run makes at most three, the Result and the growth and copy of the
// environment's NetOut. A per-run guestMem, config, exit, shell record,
// code table, closure over the clock or ReadGuest scratch shows up here,
// and so does a native workload's context, which is the run's frame in
// its shell (six allocations while it was a NativeCtx of its own).
func TestWarmRunAllocs(t *testing.T) {
	env := testing.AllocsPerRun(50, func() { envSink = hypercall.NewEnv() })
	if env != 2 {
		t.Fatalf("NewEnv makes %v allocations, want 2", env)
	}
	for _, img := range []*guest.Image{
		guest.MustFromAsm("tenant-shaped", guest.WrapLongMode(tenantShapedAsm)),
		nativeTenant(),
	} {
		run := tenantShapedRun(t, New(), img)
		n := testing.AllocsPerRun(50, run)
		t.Logf("%s: %v allocations", img.Name, n)
		if n > 5 || n-env > 3 {
			t.Fatalf("%s: a warm restored run makes %v allocations, %v of them the run's own; want at most 5 and 3", img.Name, n, n-env)
		}
	}
}

// TestRestingShellPinsNoRun: a shell at rest in the pool, or parked on
// its snapshot for a COW reset, holds none of the finished run's frame,
// so the caller's environment (the default handler too), the Result and
// the clock are collectable as soon as the caller lets go of them. A
// native workload's context is that frame, so a native run is held to
// the same.
func TestRestingShellPinsNoRun(t *testing.T) {
	asm := guest.MustFromAsm("tenant-shaped", guest.WrapLongMode(tenantShapedAsm))
	for _, c := range []struct {
		name string
		img  *guest.Image
		opts []Option
	}{
		{"wasp-c", asm, nil},
		{"wasp-ca", asm, []Option{WithAsyncClean(true)}},
		{"cow", asm, []Option{WithCOW(true)}},
		{"native", nativeTenant(), nil},
	} {
		w := New(c.opts...)
		for i := 0; i < 2; i++ { // capture, then restore
			envRef, resRef, clkRef := func() (weak.Pointer[hypercall.Env], weak.Pointer[Result], weak.Pointer[cycles.Clock]) {
				env := hypercall.NewEnv()
				env.NetIn = []byte("GET /tenant")
				// A lone Clock is tiny and pointer-free, so the runtime may
				// batch it with live objects and its weak pointer never
				// clears: the run's clock lives inside a larger object.
				clk := &(&struct {
					cycles.Clock
					_ [4]uint64
				}{}).Clock
				res, err := w.Run(c.img, RunConfig{
					Policy:   hypercall.MaskOf(hypercall.NrSend, hypercall.NrRecv),
					Env:      env,
					Snapshot: true,
				}, clk)
				if err != nil {
					t.Fatal(err)
				}
				return weak.Make(env), weak.Make(res), weak.Make(clk)
			}()
			runtime.GC()
			runtime.GC()
			if envRef.Value() != nil {
				t.Fatalf("%s: run %d's environment is still reachable once its run has released the shell", c.name, i)
			}
			if resRef.Value() != nil {
				t.Fatalf("%s: run %d's Result is still reachable once its caller dropped it", c.name, i)
			}
			if clkRef.Value() != nil {
				t.Fatalf("%s: run %d's clock is still reachable once its caller dropped it", c.name, i)
			}
		}
		if n := w.PoolTotal() + parkedShells(w); n != 1 {
			t.Fatalf("%s: %d shells at rest, want the one both runs used", c.name, n)
		}
	}
}

// TestShellScratchBounded: the ReadGuest scratch a shell keeps between
// runs is bounded by maxScratch. A run that reads 1 MiB in one write
// leaves its shell with no more than that; a small read's scratch stays
// for the next run, which then reads without allocating.
func TestShellScratchBounded(t *testing.T) {
	write := func(n int) *guest.Image {
		img := guest.MustFromAsm(fmt.Sprintf("write-%d", n), guest.WrapLongMode(fmt.Sprintf(`
	movi rdi, 1
	movi rsi, 0
	movi rdx, %d
	out 0x01, rax        ; write(1, 0, n)
	movi rdi, 0
	out 0x00, rdi
	hlt
`, n)))
		img.ExtraHeap = n
		return img
	}
	w := New()
	for _, c := range []struct {
		n, keep int
	}{{1 << 20, 0}, {64, 64}} {
		img := write(c.n)
		res, err := w.Run(img, RunConfig{Policy: hypercall.MaskOf(hypercall.NrWrite)}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stdout) != c.n {
			t.Fatalf("wrote %d bytes, want %d", len(res.Stdout), c.n)
		}
		s := w.backends[0].pools.take(img.MemBytes())
		if s == nil {
			t.Fatalf("no pooled %d-byte shell", img.MemBytes())
		}
		if got := cap(s.run.gm.scratch); got > maxScratch || got < c.keep {
			t.Fatalf("after a %d-byte read the shell keeps %d bytes of scratch, want %d to %d", c.n, got, c.keep, maxScratch)
		}
		f := s.run
		f.gm.scratch = nil
		if !reflect.DeepEqual(f, run{}) {
			t.Fatalf("a pooled shell kept its run frame: %+v", f)
		}
		w.release(s, nil)
	}
}

// TestHypercallExitsReadBeforeNextRun: the exit a run gets back is the
// CPU's own record, overwritten by the next entry, so RunOn must take
// everything it needs from an exit before it resumes the guest. A guest
// alternating IN and OUT hypercalls gets each handler result in the
// register its own exit named.
func TestHypercallExitsReadBeforeNextRun(t *testing.T) {
	img := guest.MustFromAsm("in-out", guest.WrapLongMode(`
	in rbx, 0x01
	out 0x02, rdi
	in rcx, 0x03
	movi rdx, 0x4000
	store [rdx], rbx
	store [rdx+8], rax
	store [rdx+16], rcx
	hlt
`))
	h := hypercall.HandlerFunc(func(call hypercall.Args, _ hypercall.GuestMem) (uint64, error) {
		return 101 * uint64(call.Nr), nil
	})
	res, err := New().Run(img, RunConfig{Policy: hypercall.AllowAll{}, Handler: h, RetBytes: 24}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if rbx, rax, rcx := fromLE64(res.Ret[:8]), fromLE64(res.Ret[8:16]), fromLE64(res.Ret[16:]); rbx != 101 || rax != 202 || rcx != 303 {
		t.Fatalf("rbx, rax, rcx = %d, %d, %d, want 101, 202, 303", rbx, rax, rcx)
	}
}
