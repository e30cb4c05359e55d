package wasp

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/vmm"
)

func traceImg(name string) *guest.Image {
	return guest.MustFromAsm(name, guest.WrapLongMode(`
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x6000
	load rax, [rbx]
	inc rax
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
}

// kindSet is the set of event kinds among the tracer's surviving events.
func kindSet(tr *obs.Tracer) map[obs.Kind]bool {
	out := map[obs.Kind]bool{}
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			out[e.Kind] = true
		}
	}
	return out
}

// TestRunLifecycleTrace drives snapshot runs through a traced runtime
// and asserts the recorded flight covers the guest-run half of the
// lifecycle the cluster trace cannot reach (its tickets carry a cost,
// not a guest): shell provisioning, snapshot capture/restore, the
// guest-run summary span, and the release path.
func TestRunLifecycleTrace(t *testing.T) {
	tr := obs.NewTracer(obs.Deterministic(true))
	tr.SetEnabled(true)
	w := New(WithTracer(tr), WithAsyncClean(true))
	img := traceImg("trace-lifecycle")
	cfg := RunConfig{Snapshot: true}
	for i := 0; i < 3; i++ {
		if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
	}
	w.Cleaner().Drain()

	got := kindSet(tr)
	for _, want := range []obs.Kind{
		obs.KindShell, obs.KindSnapshot, obs.KindGuest, obs.KindRelease, obs.KindClean,
	} {
		if !got[want] {
			t.Errorf("lifecycle trace missing %v events (have %v)", want, got)
		}
	}

	// The guest summary span must carry the run's virtual window and the
	// snapshot events must include both a capture and a restore.
	var guestSpans int
	names := map[string]bool{}
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			names[tr.NameOf(e.Name)] = true
			if e.Kind == obs.KindGuest {
				guestSpans++
				if e.VEnd <= e.VStart {
					t.Errorf("guest span has empty virtual window [%d, %d]", e.VStart, e.VEnd)
				}
			}
		}
	}
	if guestSpans != 3 {
		t.Errorf("guest summary spans = %d, want 3 (one per run)", guestSpans)
	}
	for _, want := range []string{"snap-capture", "snap-restore", "shell-cold", "clean-enqueue"} {
		if !names[want] {
			t.Errorf("lifecycle trace missing %q event (names: %v)", want, keys(names))
		}
	}
}

// TestTierTraceBatches asserts JIT tier transitions are recorded via
// the batched per-run log and drained at run end: a cold run compiles
// at least one trace, so KindTier events must appear, and the pooled
// context must leave RunOn with tier tracing reset.
func TestTierTraceBatches(t *testing.T) {
	tr := obs.NewTracer(obs.Deterministic(true))
	tr.SetEnabled(true)
	w := New(WithTracer(tr))
	if _, err := w.Run(traceImg("trace-tier"), RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	var tiers int
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			if e.Kind == obs.KindTier {
				tiers++
				if tr.NameOf(e.Name) != "jit-compile" && tr.NameOf(e.Name) != "jit-deopt" {
					t.Errorf("tier event with unexpected name %q", tr.NameOf(e.Name))
				}
			}
		}
	}
	if tiers == 0 {
		t.Error("cold run recorded no tier-transition events")
	}
	// The pooled context must not keep recording into a stale log.
	be := w.backends[0]
	if s := be.pools.take(64 << 10); s != nil {
		if s.ctx.CPU.TierTrace || len(s.ctx.CPU.TierLog) != 0 {
			t.Errorf("pooled context leaked tier tracing: trace=%v log=%d",
				s.ctx.CPU.TierTrace, len(s.ctx.CPU.TierLog))
		}
	}
}

// TestMigrateTrace: a snapshot shipped between backends must record a
// migrate event carrying the blob size.
func TestMigrateTrace(t *testing.T) {
	tr := obs.NewTracer(obs.Deterministic(true))
	tr.SetEnabled(true)
	w := New(WithTracer(tr), WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	img := traceImg("trace-migrate")
	if _, err := w.RunOn("kvm", img, RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	shipped, _, err := w.MigrateSnapshot(img.Name, "kvm", "hyper-v")
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			if e.Kind == obs.KindMigrate && e.Arg0 == uint64(shipped) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no migrate event carrying shipped size %d", shipped)
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRestoreCountsPagesWritten: the snap-restore and snap-cow-reset
// instants carry, as their second argument, the pages Rebase rewrote,
// and the registry's wasp_shell_pages_written/_kept add up every Rebase
// of the backend's shells — here the cold boot's (a fresh shell: all
// kept) and each restore's.
func TestRestoreCountsPagesWritten(t *testing.T) {
	for _, cow := range []bool{false, true} {
		tr := obs.NewTracer(obs.Deterministic(true))
		tr.SetEnabled(true)
		w := New(WithTracer(tr), WithCOW(cow))
		reg := obs.NewRegistry()
		w.RegisterMetrics(reg)
		img := traceImg("trace-pages")
		const runs = 4
		for i := 0; i < runs; i++ {
			if _, err := w.Run(img, RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
				t.Fatal(err)
			}
		}
		want := map[bool]string{false: "snap-restore", true: "snap-cow-reset"}[cow]
		pages := uint64(img.MemBytes() / vmm.PageSize)
		var restores, written uint64
		for _, le := range tr.Events() {
			for _, e := range le.Events {
				if tr.NameOf(e.Name) == want {
					restores++
					written += e.Arg1
					if e.Arg1 == 0 || e.Arg1 > pages {
						t.Errorf("cow=%v: %s wrote %d of %d pages", cow, want, e.Arg1, pages)
					}
				}
			}
		}
		got := map[string]float64{}
		for _, m := range reg.Snapshot() {
			got[m.Name] = m.Value
		}
		if restores != runs-1 || got["wasp_shell_pages_written{platform=kvm}"] != float64(written) ||
			got["wasp_shell_pages_kept{platform=kvm}"] != float64(runs*pages-written) {
			t.Fatalf("cow=%v: %d %s instants writing %d pages; registry written %v, kept %v (want %d)", cow, restores, want, written,
				got["wasp_shell_pages_written{platform=kvm}"], got["wasp_shell_pages_kept{platform=kvm}"], runs*pages-written)
		}
	}
}
