package vmm

import (
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// haltImage is a one-instruction real-mode guest.
var haltCode = []byte{byte(isa.HLT)}

func TestCreateChargesCreation(t *testing.T) {
	clk := cycles.NewClock()
	ctx := Create(64<<10, clk)
	if clk.Now() < cycles.KVMCreateVM {
		t.Fatalf("creation cost %d below KVM_CREATE_VM", clk.Now())
	}
	if len(ctx.Mem) != 64<<10 {
		t.Fatal("memory size wrong")
	}
	// EPT build is charged per page.
	withoutEPT := uint64(cycles.KVMCreateVM)
	pages := uint64((64 << 10) / PageSize)
	if clk.Now() != withoutEPT+pages*cycles.EPTBuildPerPage {
		t.Fatalf("EPT accounting off: %d", clk.Now())
	}
}

func TestRunChargesEntryAndExit(t *testing.T) {
	clk := cycles.NewClock()
	ctx := Create(64<<10, clk)
	if err := ctx.Load(haltCode, 0x8000, 0x8000, isa.Mode16); err != nil {
		t.Fatal(err)
	}
	before := clk.Now()
	ex := ctx.Run(100)
	if ex.Reason != cpu.ExitHalt {
		t.Fatalf("exit = %+v", ex)
	}
	cost := clk.Now() - before
	want := uint64(cycles.VMRunEntry + cycles.InstrBase + cycles.VMExit)
	if cost != want {
		t.Fatalf("run cost = %d, want %d", cost, want)
	}
	if ctx.Entries != 1 || ctx.ExitsHLT != 1 {
		t.Fatal("exit counters wrong")
	}
	if ctx.FirstEntry == 0 {
		t.Fatal("first entry not recorded")
	}
}

func TestLoadRejectsOversizedImage(t *testing.T) {
	for _, tc := range []struct {
		name   string
		size   int
		origin uint64
	}{
		{"image larger than memory", 128 << 10, 0x8000},
		{"image ends past memory", 4 << 10, 62 << 10},
		{"origin past memory", 1, 64<<10 + 1},
		// origin+len wraps to 0: must be the error, not a host panic.
		{"origin wraps", 2, 1<<64 - 2},
		{"origin wraps to in-range", 16, 1<<64 - 8},
	} {
		ctx := Create(64<<10, cycles.NewClock())
		err := ctx.Load(make([]byte, tc.size), tc.origin, 0x8000, isa.Mode16)
		if err == nil || !strings.Contains(err.Error(), "exceeds guest memory") {
			t.Fatalf("%s: err = %v, want \"exceeds guest memory\"", tc.name, err)
		}
	}
	// The boundary itself is in range.
	ctx := Create(64<<10, cycles.NewClock())
	if err := ctx.Load(make([]byte, 4<<10), 60<<10, 60<<10, isa.Mode16); err != nil {
		t.Fatalf("image ending exactly at the top of memory rejected: %v", err)
	}
}

// TestCleanSilentIsFree: cleaning a used shell — vCPU and run counters
// reset, memory rebased to zero — rewrites exactly the dirtied page and
// charges nothing; the zeroing charge is the reuser's.
func TestCleanSilentIsFree(t *testing.T) {
	clk := cycles.NewClock()
	ctx := Create(64<<10, clk)
	ctx.Mem[100] = 0xAB
	ctx.HostWrite(100, 1)
	ctx.Entries, ctx.ExitsIO, ctx.FirstEntry = 3, 2, 1
	before := clk.Now()
	ctx.Reset()
	if written, _ := ctx.Rebase(nil); written != 1 {
		t.Fatalf("rebase to zero wrote %d pages, want the 1 dirtied", written)
	}
	if ctx.Mem[100] != 0 {
		t.Fatal("memory not zeroed")
	}
	if clk.Now() != before {
		t.Fatal("reset or rebase charged the clock")
	}
	if ctx.Entries != 0 || ctx.ExitsIO != 0 || ctx.FirstEntry != 0 {
		t.Fatal("counters not reset")
	}
}

func TestVMRunRoundTrip(t *testing.T) {
	clk := cycles.NewClock()
	VMRunRoundTrip(clk)
	if clk.Now() != cycles.VMRunEntry+cycles.VMExit {
		t.Fatal("round trip cost wrong")
	}
}

func TestBaselineOrdering(t *testing.T) {
	// Fig 2/8 anchor ordering.
	order := []Baseline{
		BaselineFunction, BaselineVMRun, BaselineSGXECall,
		BaselinePthread, BaselineKVM, BaselineProcess, BaselineSGXCreate,
	}
	for i := 1; i < len(order); i++ {
		if order[i].Cost() <= order[i-1].Cost() {
			t.Fatalf("%v (%d) should cost more than %v (%d)",
				order[i], order[i].Cost(), order[i-1], order[i-1].Cost())
		}
	}
}

func TestBaselineMeasureAdvancesClock(t *testing.T) {
	clk := cycles.NewClock()
	noise := cycles.NewNoise(1)
	samples := BaselinePthread.Measure(clk, noise, 50)
	if len(samples) != 50 {
		t.Fatal("sample count wrong")
	}
	var sum uint64
	for _, s := range samples {
		sum += s
	}
	if clk.Now() != sum {
		t.Fatal("clock does not match sample sum")
	}
	for _, b := range []Baseline{BaselineFunction, BaselinePthread, BaselineProcess,
		BaselineKVM, BaselineVMRun, BaselineSGXCreate, BaselineSGXECall} {
		if b.String() == "baseline?" {
			t.Fatal("missing name")
		}
	}
}

func TestContextIsolation(t *testing.T) {
	// Two contexts never share memory.
	a := Create(64<<10, cycles.NewClock())
	b := Create(64<<10, cycles.NewClock())
	a.Mem[0] = 0xAA
	if b.Mem[0] != 0 {
		t.Fatal("contexts share memory")
	}
}

// TestRebaseUndoesLoad: everything Load writes — the image and, for a
// long-mode start, the identity-map tables SetupLongMode builds — is
// recorded, so zeroing the shell afterwards rewrites all of it and a
// later guest finds nothing of this one.
func TestRebaseUndoesLoad(t *testing.T) {
	ctx := Create(64<<10, cycles.NewClock())
	if err := ctx.Load(haltCode, 0x8000, 0x8000, isa.Mode64); err != nil {
		t.Fatal(err)
	}
	written, kept := ctx.Rebase(nil)
	for i, b := range ctx.Mem {
		if b != 0 {
			t.Fatalf("byte %#x is %#x after rebasing onto zero", i, b)
		}
	}
	if written != 4 || kept != 12 {
		t.Fatalf("Rebase wrote %d pages and kept %d, want the image page and the three table pages rewritten", written, kept)
	}
	if err := ctx.CheckContent(); err != nil {
		t.Fatal(err)
	}
}

// VMRunRoundTrip charges exactly one entry/exit pair with no guest work —
// the "vmrun" measurement in Fig 2: the lowest latency achievable to begin
// execution in a virtual context.
func VMRunRoundTrip(clk *cycles.Clock) {
	clk.Advance(cycles.VMRunEntry)
	clk.Advance(cycles.VMExit)
}
