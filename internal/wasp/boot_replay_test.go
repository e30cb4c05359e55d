package wasp_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/httpd"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/vcc"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// replayView is what a replayed boot must leave exactly as an executed
// one: every Result field the virtual clock or the guest determines, and
// the shell's dirty set at the run's first exit.
type replayView struct {
	Cycles, ExitCode, Entries, IOExits, Retired, GuestEntry uint64
	Ret, NetOut, Marks, Dirty                               string
	BootEvents                                              [cpu.NumEvents]uint64
	COWPages                                                int
	SnapshotUsed                                            bool
}

func viewOf(r *wasp.Result, dirty string) replayView {
	return replayView{
		Cycles: r.Cycles, ExitCode: r.ExitCode, Entries: r.Entries, IOExits: r.IOExits,
		Retired: r.Retired, GuestEntry: r.GuestEntry,
		Ret: string(r.Ret), NetOut: string(r.NetOut), Marks: fmt.Sprint(r.Marks), Dirty: dirty,
		BootEvents: r.BootEvents, COWPages: r.COWPages, SnapshotUsed: r.SnapshotUsed,
	}
}

// metric reads one instrument of w's registry.
func metric(w *wasp.Wasp, name string) float64 {
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// probeAsm stores, marks (the first exit), then reads its store back into
// the return region and exits.
const probeAsm = `
	movi rbx, 0x6000
	movi rax, 9
	store [rbx], rax
	movi rdi, 3
	out 0x0B, rdi        ; mark(3)
	load rcx, [rbx]
	movi rbx, 0x4000
	store [rbx], rcx
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// Each image boots cold three times, each boot with its own argument —
// the first records, the next two replay — on a trace-engine Wasp and on
// a Legacy one, which always executes. Run by run, every Result field and
// the dirty set at the first exit must be equal; the Legacy Wasp must
// record and replay nothing, and an image with no boot stub has nothing
// to record.
func TestBootReplayMatchesExecution(t *testing.T) {
	fib, err := vcc.CompileFunc(`
virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }`, "fib")
	if err != nil {
		t.Fatal(err)
	}
	tenant := guest.MustFromAsm("tenant", guest.WrapLongMode(`
	out 0x08, rdi        ; snapshot()
	movi rbx, 0x0
	load rax, [rbx]
	add rax, rax
	movi rbx, 0x4000
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
	protected := guest.MustFromAsm("probe32", guest.WrapProtected(probeAsm))
	long := guest.MustFromAsm("probe64", ".bits 64\n.org 0x8000\n_start:\n"+probeAsm)
	files := map[string][]byte{"/index.html": []byte("<h1>virtines</h1>")}
	servers := map[*wasp.Wasp]*httpd.FileServer{}
	two := []wasp.Option{wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{})}
	direct := func(img *guest.Image, cfg func(i int) wasp.RunConfig) func(*wasp.Wasp, string, int) (*wasp.Result, error) {
		return func(w *wasp.Wasp, platform string, i int) (*wasp.Result, error) {
			return w.RunOn(platform, img, cfg(i), cycles.NewClock())
		}
	}
	noArgs := func(int) wasp.RunConfig { return wasp.RunConfig{RetBytes: 8} }
	tenantRun := func(w *wasp.Wasp, platform string, i int) (*wasp.Result, error) {
		img := tenant.WithName(fmt.Sprintf("tenant-%d", i))
		return w.RunOn(platform, img, wasp.RunConfig{Snapshot: true, RetBytes: 8, Args: []byte{byte(21 + i)}}, cycles.NewClock())
	}
	// The native workload doubles its argument into the return region.
	native := guest.NativeBootStub("native", func(c any) error {
		n := c.(*wasp.NativeCtx)
		n.Charge(100)
		n.Mem()[0x4000] = 2 * n.Mem()[0]
		return nil
	}, 0)
	for _, tc := range []struct {
		name      string
		opts      []wasp.Option
		platforms []string
		run       func(w *wasp.Wasp, platform string, i int) (*wasp.Result, error)
		stubless  bool
	}{
		{"httpd", nil, []string{""}, func(w *wasp.Wasp, _ string, _ int) (*wasp.Result, error) {
			fs := servers[w]
			if fs == nil {
				var err error
				if fs, err = httpd.NewFileServer(w, files); err != nil {
					return nil, err
				}
				fs.Snapshot = false
				servers[w] = fs
			}
			sc := sched.NewVirtual(w, 1)
			defer sc.Close()
			return fs.Submit(sc, httpd.Request("/index.html")).Wait()
		}, false},
		{"vcc-fib", nil, []string{""}, direct(fib.Image, func(i int) wasp.RunConfig {
			return wasp.RunConfig{Policy: fib.Policy, Args: vcc.MarshalArgs(int64(12 + i)), RetBytes: vcc.RetSize}
		}), false},
		{"tenant-snapshot", nil, []string{""}, tenantRun, false},
		{"tenant-snapshot-cow", []wasp.Option{wasp.WithCOW(true)}, []string{""}, tenantRun, false},
		{"native-stub", nil, []string{""}, direct(native, func(i int) wasp.RunConfig {
			return wasp.RunConfig{Args: []byte{byte(21 + i)}, RetBytes: 8}
		}), false},
		{"protected", two, []string{"kvm", "hyper-v"}, direct(protected, noArgs), false},
		{"mode64-start", two, []string{"kvm", "hyper-v"}, direct(long, noArgs), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var dirty string
			wasp.SetFirstExitGate(func(ctx *vmm.Context) { dirty = fmt.Sprint(ctx.DirtyPages()) })
			defer wasp.SetFirstExitGate(nil)
			fast := wasp.New(tc.opts...)
			slow := wasp.New(append(append([]wasp.Option(nil), tc.opts...), wasp.WithLegacyInterp(true))...)
			for _, platform := range tc.platforms {
				for i := 0; i < 3; i++ {
					var views [2]replayView
					for j, w := range []*wasp.Wasp{fast, slow} {
						dirty = "no first exit"
						res, err := tc.run(w, platform, i)
						if err != nil {
							t.Fatalf("%s boot %d: %v", platform, i, err)
						}
						views[j] = viewOf(res, dirty)
					}
					if views[0] != views[1] {
						t.Fatalf("%s boot %d diverges from the executed boot:\n replay   %+v\n executed %+v", platform, i, views[0], views[1])
					}
				}
			}
			want := struct{ recorded, replays float64 }{1, 2}
			if tc.stubless {
				want.recorded, want.replays = 0, 0
			}
			for _, be := range fast.Platforms() {
				name := be.Name()
				for _, c := range []struct {
					w                 *wasp.Wasp
					recorded, replays float64
				}{{fast, want.recorded, want.replays}, {slow, 0, 0}} {
					if rec, rep := metric(c.w, "wasp_boot_recorded{platform="+name+"}"), metric(c.w, "wasp_boot_replays{platform="+name+"}"); rec != c.recorded || rep != c.replays {
						t.Fatalf("%s: recorded %v and replayed %v boots, want %v and %v", name, rec, rep, c.recorded, c.replays)
					}
				}
			}
		})
	}
}
