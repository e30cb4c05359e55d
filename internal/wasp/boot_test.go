package wasp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/vmm"
)

// argBootAsm reads its argument in real mode, before its first exit, and
// doubles it into the return region: a replay of another argument's boot
// would return that argument's double.
const argBootAsm = `.bits 16
.org 0x8000
_start:
	movi rbx, 0
	load rax, [rbx]
	add rax, rax
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 1
	out 0x0B, rdi        ; mark(1): the first exit
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// recordOf returns the default backend's recording of img's boot.
func recordOf(w *Wasp, img *guest.Image) *bootRecord {
	return entryOf(w, img).boot
}

// entryOf returns the default backend's content entry for img, or nil.
func entryOf(w *Wasp, img *guest.Image) *contentEntry {
	r := &w.backends[0].content
	r.mu.Lock()
	defer r.mu.Unlock()
	if el := r.byKey[contentKey{img.ContentKey(), img.MemBytes()}]; el != nil {
		return el.Value.(*contentEntry)
	}
	return nil
}

// pairRun runs img with cfg on a trace-engine Wasp and on a Legacy one
// and fails unless the two Results agree.
func pairRun(t *testing.T, fast, slow *Wasp, img *guest.Image, cfg RunConfig) *Result {
	t.Helper()
	fres, ferr := fast.Run(img, cfg, cycles.NewClock())
	sres, serr := slow.Run(img, cfg, cycles.NewClock())
	if fmt.Sprint(ferr) != fmt.Sprint(serr) {
		t.Fatalf("%s: errors diverge: %v, Legacy %v", img.Name, ferr, serr)
	}
	if ferr != nil {
		return nil
	}
	if fres.Cycles != sres.Cycles || string(fres.Ret) != string(sres.Ret) || fres.Retired != sres.Retired ||
		fres.BootEvents != sres.BootEvents || fres.GuestEntry != sres.GuestEntry || !reflect.DeepEqual(fres.Marks, sres.Marks) {
		t.Fatalf("%s: %d cycles, ret %x, retired %d; Legacy %d cycles, ret %x, retired %d",
			img.Name, fres.Cycles, fres.Ret, fres.Retired, sres.Cycles, sres.Ret, sres.Retired)
	}
	return fres
}

// A boot replays only with its recording's argument bytes: every
// argument gets its own answer, and only the repeat of the recorded one
// replays.
func TestBootReplayReadsArguments(t *testing.T) {
	fast, slow := New(), New(WithLegacyInterp(true))
	img := guest.MustFromAsm("arg-boot", argBootAsm)
	for _, arg := range []byte{1, 2, 1, 3} {
		res := pairRun(t, fast, slow, img, RunConfig{Args: []byte{arg}, RetBytes: 1})
		if res.Ret[0] != 2*arg {
			t.Fatalf("argument %d returned %d", arg, res.Ret[0])
		}
	}
	if n := fast.backends[0].content.replays.Load(); n != 1 {
		t.Fatalf("%d replays, want 1 (the recorded argument's repeat)", n)
	}
}

// Two images whose content keys collide never replay each other's boot:
// the recording is checked against the code bytes, not the key.
func TestBootReplayNeverCrossesImages(t *testing.T) {
	fast, slow := New(), New(WithLegacyInterp(true))
	ret := func(v int) *guest.Image {
		return guest.MustFromAsm(fmt.Sprintf("ret%d", v), guest.WrapLongMode(fmt.Sprintf(`
	movi rax, %d
	movi rbx, 0x4000
	store [rbx], rax
	out 0x0B, rdi        ; mark: the first exit
	movi rdi, 0
	out 0x00, rdi
	hlt
`, v)))
	}
	a, b := ret(1), ret(2)
	if a.MemBytes() != b.MemBytes() || a.Origin != b.Origin || a.Entry != b.Entry || a.Mode != b.Mode {
		t.Fatal("the two images must differ in their code bytes alone")
	}
	pairRun(t, fast, slow, a, RunConfig{RetBytes: 8})
	memo := &fast.backends[0].content
	memo.setBoot(contentKey{b.ContentKey(), b.MemBytes()}, recordOf(fast, a))
	for i := 0; i < 2; i++ {
		if res := pairRun(t, fast, slow, b, RunConfig{RetBytes: 8}); fromLE64(res.Ret) != 2 {
			t.Fatalf("image b returned %d", fromLE64(res.Ret))
		}
	}
	if n := memo.replays.Load(); n != 0 {
		t.Fatalf("%d replays across images", n)
	}
}

// A budget that ends before the recorded exit executes the boot, and
// faults exactly where Legacy does; the recorded budget itself replays.
func TestBootReplayHonoursBudget(t *testing.T) {
	fast, slow := New(), New(WithLegacyInterp(true))
	img := guest.MustFromAsm("budget-boot", guest.WrapLongMode(probeBodyAsm))
	pairRun(t, fast, slow, img, RunConfig{RetBytes: 8})
	memo := &fast.backends[0].content
	steps := recordOf(fast, img).cpu.Retired
	if res := pairRun(t, fast, slow, img, RunConfig{RetBytes: 8, MaxSteps: steps - 1}); res != nil {
		t.Fatalf("a budget of %d of the boot's %d instructions did not fault", steps-1, steps)
	}
	if memo.replays.Load() != 0 {
		t.Fatal("a boot replayed past its budget")
	}
	pairRun(t, fast, slow, img, RunConfig{RetBytes: 8, MaxSteps: steps})
	if memo.replays.Load() != 1 {
		t.Fatal("the boot did not replay inside its budget")
	}
}

// probeBodyAsm stores, marks (the first exit), and returns its store.
const probeBodyAsm = `
	movi rbx, 0x6000
	movi rax, 9
	store [rbx], rax
	out 0x0B, rdi        ; mark: the first exit
	load rcx, [rbx]
	movi rbx, 0x4000
	store [rbx], rcx
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// Sixteen concurrent cold boots of one image on a fresh runtime record
// it exactly once, all return the same Result, and leave the forest
// intact.
func TestBootReplayRecordsOnceConcurrently(t *testing.T) {
	w := New(WithPooling(false))
	img := guest.MustFromAsm("race-boot", guest.WrapLongMode(probeBodyAsm))
	const boots = 16
	results := make([]*Result, boots)
	errs := make([]error, boots)
	var wg sync.WaitGroup
	for i := range boots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = w.Run(img, RunConfig{RetBytes: 8}, cycles.NewClock())
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if res.Cycles != results[0].Cycles || res.Retired != results[0].Retired || res.BootEvents != results[0].BootEvents || fromLE64(res.Ret) != 9 {
			t.Fatalf("boot %d: %d cycles, %d retired, ret %d; boot 0: %d cycles, %d retired", i, res.Cycles, res.Retired, fromLE64(res.Ret), results[0].Cycles, results[0].Retired)
		}
	}
	if n := w.backends[0].content.recorded.Load(); n != 1 {
		t.Fatalf("%d recordings, want 1", n)
	}
	if err := w.VerifyForest(); err != nil {
		t.Fatal(err)
	}
}

// Recording a boot leaves no trace on the shell that made it: at the
// first exit, its dirty set, decode state and content record are those
// of the same boot on a runtime that records nothing. The captures that
// follow — the recording boot's and a second tenant's, replayed on one
// runtime and executed on the other — hash and reuse the same pages.
func TestBootReplayRecordingLeavesNoTrace(t *testing.T) {
	img := guest.MustFromAsm("trace-free", guest.WrapLongMode(`
	out 0x08, rdi        ; snapshot(): the first exit
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	recording, plain := New(), New()
	// A recording of other arguments under the image's key: plain boots
	// execute and never record.
	plain.backends[0].content.setBoot(contentKey{img.ContentKey(), img.MemBytes()}, &bootRecord{args: []byte("other"), cpu: &cpu.ResumePoint{}})
	type view struct {
		dirty          string
		code           int
		content        error
		hashed, reused uint64
	}
	var at view
	firstExitGate = func(ctx *vmm.Context) {
		at = view{dirty: fmt.Sprint(ctx.DirtyPages()), code: ctx.CPU.CodePages(), content: ctx.CheckContent()}
	}
	defer func() { firstExitGate = nil }()
	var views [2]view
	for i, w := range []*Wasp{recording, plain} {
		for run := 0; run < 2; run++ {
			img := img.WithName(fmt.Sprintf("tenant-%d", run))
			if _, err := w.Run(img, RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
				t.Fatal(err)
			}
			if run == 0 {
				views[i] = at
			}
		}
		be := w.backends[0]
		views[i].hashed, views[i].reused = be.pages.hashed.Load(), be.pages.reused.Load()
	}
	if views[0] != views[1] {
		t.Fatalf("the recording boot's shell at its first exit %+v, a boot recording nothing %+v", views[0], views[1])
	}
	if recording.backends[0].content.recorded.Load() != 1 || plain.backends[0].content.replays.Load() != 0 {
		t.Fatal("the recording runtime did not record, or the plain one replayed")
	}
}

// Every replay is counted: the boot-replay instant carries the
// instructions replayed and the pages written, and the registry counts
// recordings and replays per backend.
func TestBootReplayCounted(t *testing.T) {
	tr := obs.NewTracer(obs.Deterministic(true))
	tr.SetEnabled(true)
	w := New(WithTracer(tr))
	img := guest.MustFromAsm("counted-boot", guest.WrapLongMode(probeBodyAsm))
	const boots = 3
	for range boots {
		if _, err := w.Run(img, RunConfig{RetBytes: 8}, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
	}
	steps := recordOf(w, img).cpu.Retired
	var replays int
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			if tr.NameOf(e.Name) == "boot-replay" {
				replays++
				if e.Arg0 != steps || e.Arg1 == 0 {
					t.Fatalf("boot-replay instant: %d instructions, %d pages written; want %d instructions", e.Arg0, e.Arg1, steps)
				}
			}
		}
	}
	got := map[string]float64{}
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	for _, m := range reg.Snapshot() {
		got[m.Name] = m.Value
	}
	if replays != boots-1 || got["wasp_boot_replays{platform=kvm}"] != boots-1 || got["wasp_boot_recorded{platform=kvm}"] != 1 {
		t.Fatalf("%d boot-replay instants; registry replays %v, recorded %v", replays, got["wasp_boot_replays{platform=kvm}"], got["wasp_boot_recorded{platform=kvm}"])
	}
}
