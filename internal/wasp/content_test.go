package wasp

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/vmm"
)

// checkRuntime checks the runtime's invariants at rest, each under the
// lock or through the atomic hand-off that guards it, so it is safe
// beside concurrent runs:
//   - every pooled shell, and every shell parked for a COW reset, matches
//     its content record (vmm.Context.CheckContent). A shell that passes
//     is one the next Rebase brings exactly to its target: the "no dirty
//     shell is ever acquired" invariant;
//   - every shell belongs to its backend's platform, and every parked one
//     sits on a snapshot its backend's registry holds, none of which has
//     been retired;
//   - no pool class holds more than its capacity;
//   - no content registry holds more than contentCap entries, and each
//     lists exactly the entries its map holds;
//   - the forest verifies.
func checkRuntime(w *Wasp) error {
	for _, be := range w.backends {
		plat := be.platform.Name()
		check := func(what string, ctx *vmm.Context) error {
			if got := ctx.Platform().Name(); got != plat {
				return fmt.Errorf("%s: a %s shell on the %s backend", what, got, plat)
			}
			if err := ctx.CheckContent(); err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			return nil
		}
		be.pools.mu.Lock()
		for size, c := range be.pools.classes {
			if len(c.shells) > be.pools.max {
				be.pools.mu.Unlock()
				return fmt.Errorf("%s: %d pooled %d-byte shells, capacity %d", plat, len(c.shells), size, be.pools.max)
			}
			for _, s := range c.shells {
				if err := check("pooled shell", s.ctx); err != nil {
					be.pools.mu.Unlock()
					return err
				}
			}
		}
		be.pools.mu.Unlock()
		var held []*snapshot
		var retiredHeld string
		be.snapshots.forEach(func(name string, s *snapshot) {
			// Retiring follows removal, so under the registry's lock no
			// held snapshot may be retired.
			if s.cow.Load() == retired {
				retiredHeld = name
			}
			held = append(held, s)
		})
		if retiredHeld != "" {
			return fmt.Errorf("%s: the registry holds retired snapshot %q", plat, retiredHeld)
		}
		for _, s := range held {
			// Take the parked shell to check it; release puts it back, or
			// pools it if the snapshot left the registry meanwhile.
			if c := s.unpark(); c != nil {
				err := check("parked COW shell", c.ctx)
				w.release(c, s)
				if err != nil {
					return err
				}
			}
		}
		r := &be.content
		r.mu.Lock()
		n := r.entries.Len()
		r.mu.Unlock()
		if n > contentCap {
			return fmt.Errorf("%s: %d content entries, bound %d", plat, n, contentCap)
		}
	}
	return w.VerifyForest()
}

// contentEntries reports how many entries a backend's content registry
// holds.
func contentEntries(be *backend) int {
	r := &be.content
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.Len()
}

// parkedOn returns the shell parked on the named snapshot of a backend,
// without taking it (for sequential tests), or nil.
func parkedOn(be *backend, name string) *vmm.Context {
	snap := be.snapshots.get(name)
	if snap == nil {
		return nil
	}
	defer snap.release()
	if c := snap.cow.Load(); c != nil && c != retired {
		return c.ctx
	}
	return nil
}

// parkedShells counts the shells parked on every backend's snapshots.
func parkedShells(w *Wasp) (n int) {
	for _, be := range w.backends {
		be.snapshots.forEach(func(_ string, s *snapshot) {
			if c := s.cow.Load(); c != nil && c != retired {
				n++
			}
		})
	}
	return n
}

// hasSnapshot reports whether be's registry holds a snapshot for name,
// read through the registry's own get and release.
func hasSnapshot(be *backend, name string) bool {
	s := be.snapshots.get(name)
	s.release()
	return s != nil
}

// checksum is the probe guest's sum over guest memory, word by word.
func checksum(mem []byte) uint64 {
	var acc uint64
	for i := 0; i+8 <= len(mem); i += 8 {
		acc = acc*1000003 + binary.LittleEndian.Uint64(mem[i:])
	}
	return acc
}

// probeAsm is TestRebaseMatchesMaterialize's interpreted tenant, driven
// from its argument page: [0] the number of word stores to make before
// the snapshot call, [8] the number after it, [16] a recv buffer, from
// [24] the post-snapshot (address, value) pairs, then the pre-snapshot
// ones. Right after the snapshot point, before writing anything, it sums
// all 64 KiB of guest memory into the return slot, so the result shows
// exactly what the populate left. Its control flow depends on the
// arguments only, never on what memory holds.
const probeAsm = `
	movi rbx, 8
	load rcx, [rbx]
	shl rcx, 4
	movi rsi, 24
	add rsi, rcx
	movi rbx, 0
	load rcx, [rbx]
pre:
	cmpi rcx, 0
	jz pre_done
	load rbx, [rsi]
	load rax, [rsi+8]
	store [rbx], rax
	addi rsi, 16
	dec rcx
	jmp pre
pre_done:
	out 0x08, rdi        ; snapshot()
	movi rbx, 0
	movi rcx, 0
	movi rdx, 8192
	movi r8, 1000003
sum:
	load rax, [rbx]
	mul rcx, r8
	add rcx, rax
	addi rbx, 8
	dec rdx
	jnz sum
	movi rbx, 0x4000
	store [rbx], rcx
	movi rsi, 24
	movi rbx, 8
	load rcx, [rbx]
post:
	cmpi rcx, 0
	jz post_done
	load rbx, [rsi]
	load rax, [rsi+8]
	store [rbx], rax
	addi rsi, 16
	dec rcx
	jmp post
post_done:
	movi rbx, 16
	load rsi, [rbx]
	movi rdi, 3
	movi rdx, 64
	out 0x07, rdi        ; recv(socket, buf, 64)
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// nativeProbe is the native tenant: it sums guest memory on entry, makes
// the byte writes pre through its Mem slice, takes its snapshot on a
// cold run, then makes the writes post through a slice taken before the
// capture.
type nativeProbe struct {
	pre, post []probeWrite
	sum       uint64
}

type probeWrite struct{ addr, val uint64 }

func (np *nativeProbe) run(c any) error {
	n := c.(*NativeCtx)
	mem := n.Mem()
	np.sum = checksum(mem)
	if n.Restored() == nil {
		for _, w := range np.pre {
			mem[w.addr] = byte(w.val)
		}
		n.TakeSnapshot("probe")
	}
	for _, w := range np.post {
		mem[w.addr] = byte(w.val)
	}
	return nil
}

// rebaseOp is one step of TestRebaseMatchesMaterialize's history.
type rebaseOp struct {
	kind      string // "run", "boot" (no snapshot), "drop", "reimport", "drain", "cow"
	tenant    int
	args      []byte
	netIn     []byte
	pre, post []probeWrite
	cow       bool
}

// rebaseHistoryCycles pins FNV-1a over every run's virtual cycles in the
// history below, per runtime, at the values the eager restore path —
// zero the whole shell and copy the snapshot in, or copy back the dirty
// pages for a COW reset — charged for the same history: Rebase changes
// what is written, never what is charged. The Wasp+CA runtime's runs are
// checked one by one against the Wasp+C runtime's, less the zeroing its
// cleaner takes; its pin moved when the cleaner's dirty queue, which
// held up to twice the pool's capacity in shells, was removed, so the
// history's overflow shells are now dropped and recreated cold, as under
// Wasp+C.
var rebaseHistoryCycles = [2]uint64{0x22a136ff153d93b8, 0x4c2d37ac6ffc213}

// TestRebaseMatchesMaterialize: a seeded history over 16 interpreted
// tenant clones of one base and four native tenants, on runtimes that
// hold one pooled shell — Wasp+C, and Wasp+CA with the cleaner driven by
// hand — and switch COW resets on and off as they go. The history mixes
// restores, COW resets, boots with and without a capture, guest stores
// before and after the snapshot point (inside, outside and across the
// capture windows, which end mid-page), recv writes, native writes
// behind the store barrier, cleaner settlements, and drop plus re-import.
// After every run, what the guest found right after its populate must be
// a from-zero materialization of the snapshot it restored (or, for a
// boot, what a fresh shell holds at the same point), and the virtual
// cycles must be the eager path's; after every step, every runtime
// invariant must hold (checkRuntime). Every capture must find its shell matching its record
// and produce the layer refCapture builds from the memory it read.
func TestRebaseMatchesMaterialize(t *testing.T) {
	probe := guest.MustFromAsm("rebase-probe", guest.WrapLongMode(probeAsm))
	var np nativeProbe
	natives := []*guest.Image{
		guest.NativeBootStub("rebase-native", np.run, 1500),
		guest.NativeBootStub("rebase-native-wide", np.run, 5000),
	}
	memLen := probe.MemBytes()
	var tenants []*guest.Image
	for i := 0; i < 16; i++ {
		tenants = append(tenants, probe.WithName(fmt.Sprintf("rebase-probe-%02d", i)))
	}
	for i := 0; i < 4; i++ {
		tenants = append(tenants, natives[i%2].WithName(fmt.Sprintf("rebase-native-%d", i)))
	}
	for _, img := range tenants {
		if img.MemBytes() != memLen {
			t.Fatalf("%s provisions %d bytes, the probe %d: they must share one size class", img.Name, img.MemBytes(), memLen)
		}
	}

	rng := rand.New(rand.NewSource(17))
	// word picks an 8-byte store target for the probe: the return and
	// heap pages, the footprint's last page past the image end (the
	// capture window ends mid-page there), or the heap and stack above.
	foot := (probe.Footprint() + 7) &^ 7
	word := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return uint64(0x4100 + rng.Intn(0x3F00)&^7)
		case 1:
			return uint64(foot + rng.Intn(vmm.PageSize-foot%vmm.PageSize)&^7)
		}
		return uint64(foot + rng.Intn(memLen-8-foot)&^7)
	}
	// buf picks a 64-byte recv buffer clear of the code.
	buf := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(0x4100 + rng.Intn(0x3E00)&^63)
		}
		lo := (foot + 63) &^ 63
		return uint64(lo + rng.Intn(memLen-64-lo)&^63)
	}
	writes := func(n int, pick func() uint64) []probeWrite {
		out := make([]probeWrite, n)
		for i := range out {
			out[i] = probeWrite{pick(), rng.Uint64() | 1}
		}
		return out
	}
	var ops []rebaseOp
	for len(ops) < 360 {
		op := rebaseOp{kind: "run", tenant: rng.Intn(len(tenants))}
		switch r := rng.Intn(100); {
		case r < 8:
			op.kind = "boot"
		case r < 16:
			op.kind = "drop"
		case r < 23:
			op.kind, op.tenant = "reimport", rng.Intn(16)
		case r < 31:
			op.kind = "drain"
		case r < 38:
			op.kind, op.cow = "cow", rng.Intn(2) == 0
		}
		if img := tenants[op.tenant]; img.Native != nil {
			edge := img.Footprint() + img.ExtraHeap
			pick := func() uint64 {
				if rng.Intn(3) == 0 {
					return uint64(edge - 64 + rng.Intn(128))
				}
				return uint64(rng.Intn(memLen))
			}
			op.pre, op.post = writes(rng.Intn(6), pick), writes(rng.Intn(6), pick)
		} else {
			pre, post := writes(rng.Intn(6), word), writes(rng.Intn(6), word)
			op.args = binary.LittleEndian.AppendUint64(nil, uint64(len(pre)))
			op.args = binary.LittleEndian.AppendUint64(op.args, uint64(len(post)))
			op.args = binary.LittleEndian.AppendUint64(op.args, buf())
			for _, w := range append(post, pre...) {
				op.args = binary.LittleEndian.AppendUint64(op.args, w.addr)
				op.args = binary.LittleEndian.AppendUint64(op.args, w.val)
			}
			op.netIn = make([]byte, rng.Intn(65))
			rng.Read(op.netIn)
		}
		ops = append(ops, op)
	}

	ref := New(WithPooling(false)) // every run on a freshly created, zeroed shell
	config := func(op rebaseOp, snapshot bool) RunConfig {
		env := hypercall.NewEnv()
		env.NetIn = op.netIn
		np.pre, np.post = op.pre, op.post
		return RunConfig{Policy: hypercall.MaskOf(hypercall.NrRecv), Env: env, Args: op.args, RetBytes: 8, Snapshot: snapshot}
	}
	var syncCycles []uint64 // the Wasp+C runtime's, run by run
	for i, w := range []*Wasp{
		New(WithCOW(true)),
		New(WithCOW(true), WithAsyncClean(true)),
	} {
		// The pinned hashes are the eager restore path's, charged with one
		// pooled shell per class. A larger pool changes which shell a run
		// takes, and so what its populate is charged: at maxPerClass both
		// hashes move.
		w.backends[0].pools.max = 1
		if c := w.Cleaner(); c != nil {
			c.SetDriven(true)
			defer c.SetDriven(false)
		}
		be := w.backends[0]
		var seen []byte // guest memory at this run's capture, if it captured
		var gateErr error
		captureGate = func(ctx *vmm.Context) {
			if err := ctx.CheckContent(); err != nil && gateErr == nil {
				gateErr = err
			}
			seen = append(seen[:0], ctx.Mem...)
		}
		defer func() { captureGate = nil }()
		h, runs, restores, resets, captures := uint64(14695981039346656037), 0, 0, 0, 0
		for step, op := range ops {
			if err := checkRuntime(w); err != nil { // after the step before
				t.Fatalf("runtime %d step %d: %v", i, step-1, err)
			}
			img := tenants[op.tenant]
			switch op.kind {
			case "drop":
				w.DropSnapshot(img.Name)
				continue
			case "reimport":
				blob, err := w.ExportSnapshotOn("", img.Name, false)
				if err != nil {
					continue // nothing captured yet
				}
				w.DropSnapshot(img.Name)
				if err := w.ImportSnapshotOn("", img.Name, blob); err != nil {
					t.Fatalf("runtime %d step %d: %v", i, step, err)
				}
				continue
			case "drain":
				if c := w.Cleaner(); c != nil {
					c.Drain()
				}
				continue
			case "cow":
				w.cow = op.cow
				continue
			}
			snap := be.snapshots.get(img.Name)
			seen = seen[:0]
			reused := metric(w, cleanedKVM)
			res, err := w.Run(img, config(op, op.kind == "run"), cycles.NewClock())
			if err != nil {
				snap.release()
				t.Fatalf("runtime %d step %d (%s): %v", i, step, img.Name, err)
			}
			runs++
			// Both runtimes pool and reuse shells alike; Wasp+CA charges a
			// reused shell's zeroing to its cleaner instead of the run.
			if c := w.Cleaner(); c == nil {
				syncCycles = append(syncCycles, res.Cycles)
			} else if zero := uint64(metric(w, cleanedKVM)-reused) * cycles.ZeroCost(memLen); res.Cycles+zero != syncCycles[runs-1] {
				t.Fatalf("runtime %d step %d (%s): %d cycles + %d moved to the cleaner, Wasp+C's run %d",
					i, step, img.Name, res.Cycles, zero, syncCycles[runs-1])
			}
			if gateErr != nil {
				t.Fatalf("runtime %d step %d (%s): before its capture: %v", i, step, img.Name, gateErr)
			}
			if len(seen) > 0 {
				captures++
				after := be.snapshots.get(img.Name)
				windows, _ := captureWindows(img, memLen)
				err := matchesRefCapture(after.layer, seen, windows)
				after.release()
				if err != nil {
					t.Fatalf("runtime %d step %d (%s): %v", i, step, img.Name, err)
				}
			}
			for b := 0; b < 8; b++ {
				h = (h ^ (res.Cycles >> (8 * b) & 0xFF)) * 1099511628211
			}
			got := np.sum
			if img.Native == nil {
				got = fromLE64(res.Ret)
			}
			var want uint64
			if res.SnapshotUsed {
				restores++
				if res.COWPages > 0 {
					resets++
				}
				mem := materialize(snap.layer)
				copy(mem, op.args)
				want = checksum(mem)
			} else {
				rres, err := ref.Run(img, config(op, false), cycles.NewClock())
				if err != nil {
					t.Fatal(err)
				}
				want = np.sum
				if img.Native == nil {
					want = fromLE64(rres.Ret)
				}
			}
			snap.release()
			if got != want {
				t.Fatalf("runtime %d step %d (%s, restored %v, COW pages %d): the guest found memory summing to %#x, a from-zero populate sums to %#x",
					i, step, img.Name, res.SnapshotUsed, res.COWPages, got, want)
			}
		}
		if err := checkRuntime(w); err != nil {
			t.Fatalf("runtime %d: %v", i, err)
		}
		if restores < 100 || resets < 20 || runs-restores < 30 || captures < 20 {
			t.Fatalf("runtime %d: %d runs, %d restores, %d of them COW resets, %d captures: the history does not exercise every path", i, runs, restores, resets, captures)
		}
		t.Logf("runtime %d: %d runs, %d restores, %d COW resets, %d captures", i, runs, restores, resets, captures)
		if h != rebaseHistoryCycles[i] {
			t.Errorf("runtime %d: virtual cycles over the history hash to %#x, the eager path's to %#x", i, h, rebaseHistoryCycles[i])
		}
	}
}

// TestNativeWriteAfterCaptureDoesNotLeak: a native workload's Mem slice
// writes behind the store barrier, and a slice taken before TakeSnapshot
// can write after it. Marking the shell unknown when Mem is called would
// leave such a write recorded as the snapshot's content, and the next
// restore onto the same shell would keep it. The mark comes when the
// workload returns, so every restored run reads the captured zero.
func TestNativeWriteAfterCaptureDoesNotLeak(t *testing.T) {
	const addr = guest.HeapBase + 0x100 // inside the capture window
	var seen []byte
	native := func(c any) error {
		n := c.(*NativeCtx)
		mem := n.Mem()
		seen = append(seen, mem[addr])
		if n.Restored() == nil {
			n.TakeSnapshot("ready")
			mem[addr] = 0x42
		}
		return nil
	}
	img := guest.NativeBootStub("native-leak", native, 0)
	w := New() // Wasp+C: each run restores onto the shell the last one left
	for run := 0; run < 3; run++ {
		res, err := w.Run(img, RunConfig{Snapshot: true}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if run > 0 && !res.SnapshotUsed {
			t.Fatalf("run %d did not restore", run)
		}
		if seen[run] != 0 {
			t.Fatalf("run %d read %#x at %#x: a write made after the capture leaked into the restore", run, seen[run], addr)
		}
	}
	if w.PoolTotal() != 1 {
		t.Fatalf("%d pooled shells, want the one every run reused", w.PoolTotal())
	}
}

// BenchmarkTenantRestore: 64 tenant clones of one base, each owning two
// pages of its own (its argument and a heap word), served round-robin on
// a Wasp+C pool — every request restores a different tenant than the
// shell last held. Reports the pages Rebase wrote per request beside
// ns/op.
func BenchmarkTenantRestore(b *testing.B) {
	base := guest.MustFromAsm("bench-tenant", guest.WrapLongMode(`
	movi rbx, 0x0
	load rax, [rbx]      ; the tenant id, the first run's argument
	movi rbx, 0x6000
	store [rbx], rax
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6000
	load rax, [rbx]
	movi rbx, 0x4000
	store [rbx], rax     ; ret = the tenant id the snapshot holds
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	w := New()
	tenants := make([]*guest.Image, 64)
	run := func(i int) {
		res, err := w.Run(tenants[i], RunConfig{Snapshot: true, RetBytes: 8, Args: le64(uint64(i + 1))}, cycles.NewClock())
		if err != nil {
			b.Fatal(err)
		}
		if got := fromLE64(res.Ret); got != uint64(i+1) {
			b.Fatalf("tenant %d returned %d", i, got)
		}
	}
	for i := range tenants {
		tenants[i] = base.WithName(fmt.Sprintf("bench-tenant-%02d", i))
		run(i)
	}
	pages := &w.backends[0].pages
	written := pages.written.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i % len(tenants))
	}
	b.ReportMetric(float64(pages.written.Load()-written)/float64(b.N), "pages/op")
}
