package wasp

import (
	"sync"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
)

// jitLoopAsm iterates enough for the cached engine to compile the loop
// body into a trace, then exits cleanly.
const jitLoopAsm = `
	movi rcx, 64
	movi rsi, 0
loop:
	add rsi, rcx
	push rcx
	pop rbx
	dec rcx
	jnz loop
	movi rdi, 0
	out 0x00, rdi
	hlt
`

func jitLoopImage(name string) *guest.Image {
	return guest.MustFromAsm(name, guest.WrapLongMode(jitLoopAsm))
}

// Compiled traces must travel through the content-keyed code registry
// exactly like decoded pages: a tenant clone of an already-run image
// enters the traces the first tenant compiled, and compiles nothing.
func TestCompiledTracesSharedAcrossTenantClones(t *testing.T) {
	w := New()
	img := jitLoopImage("jit-loop")
	// Two warm runs: the first compiles the workload's traces, the
	// second compiles the boot stub's (boot code is only recognized as
	// hot once its pages arrive pre-decoded from the registry).
	res1, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res1.JIT.BlocksCompiled == 0 || res1.JIT.BlockHits == 0 {
		t.Fatalf("first tenant never engaged the trace tier: %+v", res1.JIT)
	}
	res2, err := w.Run(img, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}

	clone := img.WithName(img.Name + "@tenant-b")
	res3, err := w.Run(clone, RunConfig{}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if res3.ExitCode != 0 {
		t.Fatalf("clone exit = %d", res3.ExitCode)
	}
	if res3.JIT.BlocksCompiled != 0 {
		t.Fatalf("clone recompiled %d blocks (traces not shared through the registry)",
			res3.JIT.BlocksCompiled)
	}
	if res3.JIT.BlockHits == 0 {
		t.Fatalf("clone never entered a shared trace: %+v", res3.JIT)
	}

	cs := w.CodeCacheStats()
	if cs.Entries != 1 {
		t.Fatalf("registry entries = %d, want 1 (clone shares content key)", cs.Entries)
	}
	if want := res1.JIT.BlocksCompiled + res2.JIT.BlocksCompiled; cs.BlocksCompiled != want {
		t.Fatalf("lifetime BlocksCompiled = %d, want %d (warm runs only, clone adds none)",
			cs.BlocksCompiled, want)
	}
	if want := res1.JIT.BlockHits + res2.JIT.BlockHits + res3.JIT.BlockHits; cs.BlockHits != want {
		t.Fatalf("lifetime BlockHits = %d, want %d", cs.BlockHits, want)
	}
}

// Concurrent tenant clones of one image share one compiled block set
// through the registry; under -race this doubles as the data-race check
// on trace publication (copy-on-write under the page mutex, read with
// one atomic load).
func TestCompiledTraceSharingConcurrent(t *testing.T) {
	w := New()
	img := jitLoopImage("jit-race")
	// Warm: decode, compile and publish once.
	if _, err := w.Run(img, RunConfig{}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	const tenants = 8
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	results := make([]*Result, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clone := img.WithName(img.Name + string(rune('a'+i)))
			results[i], errs[i] = w.Run(clone, RunConfig{}, cycles.NewClock())
		}(i)
	}
	wg.Wait()
	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatalf("tenant %d: %v", i, errs[i])
		}
		if results[i].ExitCode != 0 {
			t.Fatalf("tenant %d exit = %d", i, results[i].ExitCode)
		}
		if results[i].JIT.BlockHits == 0 {
			t.Errorf("tenant %d never entered a shared trace: %+v", i, results[i].JIT)
		}
	}
}

// The counted-loop kernel's share of a run is answerable from the
// registry: every boot of the minimal image — the first included, whose
// loops compile on their second iteration — retires nearly all of the
// boot stub's two table loops (8,192 instructions) in the kernel, the
// per-run delta reaches Result.JIT, the lifetime sum CodeStats and the
// wasp_jit_loop_retired instrument, and the guest's own accounting
// (Retired, the boot milestones' spacing) does not move between a cold
// and a warm code cache.
func TestBootLoopsCountedInJITStats(t *testing.T) {
	w := New()
	img := guest.MinimalHalt()
	var runs [3]*Result
	var sum uint64
	for i := range runs {
		res, err := w.Run(img, RunConfig{}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
		sum += res.JIT.LoopRetired
	}
	for i, res := range runs {
		if got := res.JIT.LoopRetired; got < 8000 || got > 8192 {
			t.Fatalf("boot %d: kernel retired %d of %d instructions, want at least 8000 of the loops' 8192", i, got, res.Retired)
		}
	}
	cold, warm := runs[0], runs[2]
	span := func(r *Result) uint64 {
		return r.BootEvents[cpu.EvFirstInstr64] - r.BootEvents[cpu.EvProtected]
	}
	if warm.Retired != cold.Retired || span(warm) != span(cold) || span(warm) == 0 {
		t.Fatalf("warm boot retired %d over %d cycles, cold %d over %d", warm.Retired, span(warm), cold.Retired, span(cold))
	}
	if cs := w.CodeCacheStats(); cs.LoopRetired != sum {
		t.Fatalf("lifetime LoopRetired = %d, want %d", cs.LoopRetired, sum)
	}
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	for _, m := range reg.Snapshot() {
		if m.Name == "wasp_jit_loop_retired" {
			if m.Value != float64(sum) {
				t.Fatalf("wasp_jit_loop_retired = %g, want %d", m.Value, sum)
			}
			return
		}
	}
	t.Fatal("wasp_jit_loop_retired missing from the registry snapshot")
}
