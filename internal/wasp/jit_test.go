package wasp

import (
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
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
