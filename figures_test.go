// The paper's evaluation as tests: each TestFig*/TestTab*/TestSec64*
// regenerates one figure or table from the systems in this repository,
// logs it as a table, checks the structural claims the paper draws from
// it, and pins every row against figures. Print them all with
//
//	go test -v -run 'Fig|Tab|Sec64' .
package virtines_test

import (
	"fmt"
	"strings"
	"testing"
	"text/tabwriter"

	"repro/internal/aes"
	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/httpd"
	"repro/internal/hypercall"
	"repro/internal/js"
	"repro/internal/serverless"
	"repro/internal/stats"
	"repro/internal/vcc"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// figures holds every row the figure tests print, keyed "figure/row
// label", as the row's other cells joined by spaces. Every cell is
// virtual cycles or derived from them at the trial count its test
// names, so it reproduces exactly on any host. The comment beside a pin
// is the paper's number (or claim) for that row. Re-pin only on
// purpose, by pasting the "got" line a failing pin prints.
var figures = map[string]string{
	// Fig 2, 100 trials: mean, sd, min cycles; mean µs.
	"fig2/function":         "8.6 0.5 8.0 0.00",            // paper: a null call, the floor
	"fig2/pthread":          "29709.1 583.2 28750.0 11.04", // paper: ≈11 µs
	"fig2/KVM (create+hlt)": "187078.0 0.0 187078.0 69.55", // paper: KVM creation ≫ pthread
	"fig2/vmrun":            "6947.2 110.1 6789.0 2.58",    // paper: ≈1.6 µs, the hardware limit
	// Table 1, 20 boots: minimum cycles per component.
	"tab1/Paging identity mapping": "29879.0", // paper: 28109
	"tab1/Protected transition":    "3220.0",  // paper: 3217
	"tab1/Long transition (lgdt)":  "691.0",   // paper: 681
	"tab1/Jump to 32-bit (ljmp)":   "176.0",   // paper: 175
	"tab1/Jump to 64-bit (ljmp)":   "252.0",   // paper: 190
	"tab1/Load 32-bit GDT (lgdt)":  "4120.0",  // paper: 4118
	"tab1/First Instruction":       "111.0",   // paper: 74
	// Fig 3, 30 trials of fib(20): mean, sd, min cycles; mean µs.
	"fig3/16-bit (real)":      "674186.5 10201.2 661944.0 250.63", // paper: cheapest, no GDT or paging
	"fig3/32-bit (protected)": "679536.4 6534.2 666346.0 252.62",  // paper: ≈ long mode
	"fig3/64-bit (long)":      "720197.6 14098.4 700876.0 267.73", // paper: ≈ protected mode
	// Fig 4, 30 trials: mean, sd cycles from guest entry; mean µs.
	"fig4/main entry (C code reached)":    "10418.0 0.0 3.87",  // paper: ≈10K cycles
	"fig4/request received (recv return)": "39834.0 0.0 14.81", // paper: between entry and send
	"fig4/response sent (send return)":    "69249.0 0.0 25.74", // paper: well under 1 ms
	// Fig 8, 100 trials: mean, sd cycles; mean µs.
	"fig8/process":                       "422970.8 8716.1 157.24",    // paper: far above pthread
	"fig8/pthread":                       "29471.0 384.9 10.96",       // paper: ≈11 µs
	"fig8/KVM":                           "187984.7 3454.5 69.88",     // paper: above pthread
	"fig8/Wasp (no pooling)":             "187978.0 0.0 69.88",        // paper: KVM creation bound
	"fig8/Wasp+C (pooled, sync clean)":   "16716.0 0.0 6.21",          // paper: below pthread
	"fig8/Wasp+CA (pooled, async clean)": "7942.0 0.0 2.95",           // paper: within ~4% of vmrun
	"fig8/vmrun":                         "6951.9 130.8 2.58",         // paper: ≈1.6 µs, the floor
	"fig8/SGX create":                    "4843498.2 86591.3 1800.56", // paper: far above a process
	"fig8/SGX ecall":                     "14314.5 267.7 5.32",        // paper: above vmrun
	// Table 2, 100 trials: mean µs. The paper's published comparators:
	// Wedge 60 µs, LwC 2.0, Enclosures 0.9, SeCage 0.5, Hodor 0.1 µs.
	"tab2/Virtines (measured)": "6.2", // paper: ≈5 µs (syscall interface + VMRUN)
	// Fig 11, 10 trials (3 from fib(25)): native, virtine and
	// virtine+snapshot cycles; both slowdowns against native.
	"fig11/fib(0)":  "3600.0 62956.0 33786.0 17.49 9.38",             // paper: ≈6.6x with snapshot; snapshot ≈2.5x cheaper
	"fig11/fib(5)":  "4517.0 63873.0 34703.0 14.14 7.68",             // paper: overhead-dominated
	"fig11/fib(10)": "15128.0 74484.0 45314.0 4.92 3.00",             // paper: amortizing
	"fig11/fib(15)": "132766.0 192122.0 162952.0 1.45 1.23",          // paper: amortizing
	"fig11/fib(20)": "1437395.0 1496751.0 1467581.0 1.04 1.02",       // paper: ≈1.0x
	"fig11/fib(25)": "15905952.0 15965308.0 15936138.0 1.00 1.00",    // paper: ≈1.0x
	"fig11/fib(30)": "176364708.0 176424064.0 176394894.0 1.00 1.00", // paper: ≈1.0x
	// Fig 12, 5 trials: mean snapshot start-up cycles, ms, GB/s.
	"fig12/16KB":  "53072.0 0.020 0.83",   // paper: fixed overhead dominates
	"fig12/64KB":  "72812.0 0.027 2.42",   // paper: fixed overhead dominates
	"fig12/256KB": "151771.0 0.056 4.65",  // paper: past the knee
	"fig12/1MB":   "467607.0 0.174 6.03",  // paper: memcpy-bound
	"fig12/4MB":   "1730952.0 0.643 6.52", // paper: memcpy-bound
	"fig12/16MB":  "6784330.0 2.522 6.65", // paper: ≈2.3 ms, ≈6.8 GB/s
	// Fig 13, 20 requests: mean latency µs, harmonic-mean req/s, latency
	// against native.
	"fig13/native":           "13.29 75251.1 1.00", // paper: the baseline
	"fig13/virtine":          "57.80 17301.3 4.35", // paper: ≈2x+ native latency
	"fig13/virtine+snapshot": "46.96 21296.8 3.53", // paper: below the plain virtine
	// Fig 14, 3 trials of a 512-byte base64: mean cycles, µs, slowdown.
	"fig14/native":              "1129144 419.8 1.00", // paper: 419 µs
	"fig14/virtine":             "1291320 480.0 1.14", // paper: ≈1.3x
	"fig14/virtine+snapshot":    "747114 277.7 0.66",  // paper: below native
	"fig14/virtine NT":          "1049320 390.1 0.93", // paper: below the plain virtine
	"fig14/virtine+snapshot+NT": "505114 187.8 0.45",  // paper: ≈137 µs (0.33x)
	// Fig 15, 12 seconds of the burst pattern: users; vespid p50, p99 ms;
	// openwhisk p50, p99 ms; vespid and openwhisk completions/s. Paper:
	// virtines hold sub-ms latency through the bursts, container cold
	// starts spike OpenWhisk's.
	"fig15/0":       "2 0.46 0.48 513.80 518.26 2.0 1.0",
	"fig15/1":       "9 0.45 0.47 30.56 82.24 9.0 10.0",
	"fig15/2":       "16 0.45 0.47 30.45 31.33 16.0 16.0",
	"fig15/3":       "50 0.45 0.48 30.35 31.53 50.0 49.0",
	"fig15/4":       "50 0.45 0.48 30.43 493.41 50.0 50.0",
	"fig15/5":       "20 0.46 0.48 30.39 31.41 20.0 21.0",
	"fig15/6":       "20 0.45 0.47 30.39 31.92 20.0 20.0",
	"fig15/7":       "50 0.45 0.47 30.40 31.66 50.0 49.0",
	"fig15/8":       "50 0.45 0.48 30.33 72.05 50.0 50.0",
	"fig15/9":       "20 0.45 0.48 30.34 31.11 20.0 21.0",
	"fig15/10":      "20 0.45 0.48 30.56 31.58 20.0 20.0",
	"fig15/11":      "13 0.45 0.47 30.26 31.01 13.0 13.0",
	"fig15/summary": "0.45 70.69 0.5 518.3", // mean p50, worst p99 ms: vespid, openwhisk
	"fig15/cleaner": "10.37 320",            // Wasp+CA: zeroing ms and shells on the cleaner core
	// §6.4, 5 iterations per block: native and virtine MB/s, slowdown.
	"sec6.4/16":    "1000.9 0.4 2572.73",
	"sec6.4/64":    "3310.8 2.6 1265.27",
	"sec6.4/256":   "7567.5 10.4 725.13",
	"sec6.4/1024":  "11289.2 41.3 273.60",
	"sec6.4/4096":  "12826.8 157.8 81.30",
	"sec6.4/16384": "13291.0 536.4 24.78", // paper: ≈17x
}

// table is one regenerated figure: a header and rows whose first cell
// is the row's label.
type table struct {
	id     string
	header []string
	rows   [][]string
}

func (tb *table) add(label string, cells ...string) {
	tb.rows = append(tb.rows, append([]string{label}, cells...))
}

// check logs the table and pins each row against want.
func (tb *table) check(t *testing.T, want map[string]string) {
	t.Helper()
	var b strings.Builder
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(tb.header, "\t"))
	for _, r := range tb.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	t.Logf("%s\n%s", tb.id, b.String())
	for _, r := range tb.rows {
		pin(t, want, tb.id+"/"+r[0], r[1:])
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func us(c float64) string { return f2(cycles.Micros(uint64(c))) }

// band checks one of the paper's claims: lo <= v <= hi.
func band(t *testing.T, what string, v, lo, hi float64) {
	t.Helper()
	if v < lo || v > hi {
		t.Errorf("%s = %v, want within [%v, %v]", what, v, lo, hi)
	}
}

func mustRun(t *testing.T, w *wasp.Wasp, img *guest.Image, cfg wasp.RunConfig, clk *cycles.Clock) *wasp.Result {
	t.Helper()
	res, err := w.Run(img, cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// measure runs f once per trial, each on a fresh clock, and reduces the
// clocks the way the paper does: Tukey-filtered.
func measure(trials int, f func(clk *cycles.Clock)) stats.Summary {
	samples := make([]float64, trials)
	for i := range samples {
		clk := cycles.NewClock()
		f(clk)
		samples[i] = float64(clk.Now())
	}
	return stats.Summarize(samples)
}

// warmRuns measures trials of img on w after one untimed run has
// populated the pool and any snapshot.
func warmRuns(t *testing.T, w *wasp.Wasp, img *guest.Image, cfg wasp.RunConfig, trials int) stats.Summary {
	mustRun(t, w, img, cfg, cycles.NewClock())
	return measure(trials, func(clk *cycles.Clock) { mustRun(t, w, img, cfg, clk) })
}

// baseline summarizes trials of a calibrated comparison context.
func baseline(b vmm.Baseline, noise *cycles.Noise, trials int) stats.Summary {
	return stats.Summarize(stats.FromUint64(b.Measure(cycles.NewClock(), noise, trials)))
}

// fibAsm is the recursive fib(n) microbenchmark.
func fibAsm(n int) string {
	return fmt.Sprintf(`
	movi rdi, %d
	call vx_fib
	hlt
vx_fib:
	cmp rdi, 2
	jge vx_fib_rec
	mov rax, rdi
	ret
vx_fib_rec:
	push rdi
	sub rdi, 1
	call vx_fib
	pop rdi
	push rax
	sub rdi, 2
	call vx_fib
	pop rbx
	add rax, rbx
	ret
`, n)
}

// TestFig2ContextCreation: lower bounds on execution-context creation —
// a null call, a pthread, a real virtual context created and halted,
// and the bare vmrun round trip (§4.2).
func TestFig2ContextCreation(t *testing.T) {
	const trials = 100
	noise := cycles.NewNoise(2)
	halt := guest.RealModeHalt()
	fn := baseline(vmm.BaselineFunction, noise, trials)
	pthread := baseline(vmm.BaselinePthread, noise, trials)
	kvm := measure(trials, func(clk *cycles.Clock) {
		ctx := vmm.Create(halt.MemBytes(), clk)
		if err := ctx.Load(halt.Code, halt.Origin, halt.Entry, halt.Mode); err != nil {
			t.Fatal(err)
		}
		if ex := ctx.Run(1000); ex.Reason != cpu.ExitHalt {
			t.Fatalf("unexpected exit %+v", ex)
		}
	})
	vmrun := baseline(vmm.BaselineVMRun, noise, trials)
	tb := &table{id: "fig2", header: []string{"context", "mean", "sd", "min", "us"}}
	for i, s := range []stats.Summary{fn, pthread, kvm, vmrun} {
		name := []string{"function", "pthread", "KVM (create+hlt)", "vmrun"}[i]
		tb.add(name, f1(s.Mean), f1(s.StdDev), f1(s.Min), us(s.Mean))
	}
	tb.check(t, figures)
	if !(fn.Mean < vmrun.Mean && vmrun.Mean < pthread.Mean && pthread.Mean < kvm.Mean) {
		t.Errorf("ordering violated: fn=%v vmrun=%v pthread=%v kvm=%v", fn.Mean, vmrun.Mean, pthread.Mean, kvm.Mean)
	}
}

// TestTab1BootBreakdown boots the minimal long-mode runtime cold 20
// times and reports each boot component's minimum from the CPU's event
// stamps, as the paper does. A component spans two milestones, with the
// few setup instructions between them; the GDT load is timed from guest
// entry.
func TestTab1BootBreakdown(t *testing.T) {
	const entry = cpu.NumEvents // indexes the guest entry stamp below
	comps := []struct {
		name     string
		from, to cpu.Event
		lo, hi   float64 // the band the paper's number must fall in
	}{
		{"Paging identity mapping", cpu.EvIdentMapStart, cpu.EvCR3Load, 24000, 34000},
		{"Protected transition", cpu.EvLgdt, cpu.EvProtected, 3000, 4500},
		{"Long transition (lgdt)", cpu.EvCR3Load, cpu.EvLongActive, 0, 1e9},
		{"Jump to 32-bit (ljmp)", cpu.EvProtected, cpu.EvLjmp32, 0, 1e9},
		{"Jump to 64-bit (ljmp)", cpu.EvLongActive, cpu.EvLjmp64, 0, 1e9},
		{"Load 32-bit GDT (lgdt)", entry, cpu.EvLgdt, 4000, 5500},
		{"First Instruction", cpu.EvLjmp64, cpu.EvFirstInstr64, 70, 300},
	}
	w, img := wasp.New(wasp.WithPooling(false)), guest.MinimalHalt()
	samples := make([][]float64, len(comps))
	for i := 0; i < 20; i++ {
		res := mustRun(t, w, img, wasp.RunConfig{}, cycles.NewClock())
		ev := append(res.BootEvents[:], res.GuestEntry)
		for j, c := range comps {
			if ev[c.from] != 0 && ev[c.to] > ev[c.from] {
				samples[j] = append(samples[j], float64(ev[c.to]-ev[c.from]))
			}
		}
	}
	tb := &table{id: "tab1", header: []string{"component", "min-cycles"}}
	mins := map[string]float64{}
	for j, c := range comps {
		mins[c.name] = stats.Min(samples[j])
		tb.add(c.name, f1(mins[c.name]))
		band(t, c.name, mins[c.name], c.lo, c.hi)
	}
	tb.check(t, figures)
	ident, prot := mins["Paging identity mapping"], mins["Protected transition"]
	lgdt, first := mins["Load 32-bit GDT (lgdt)"], mins["First Instruction"]
	if !(ident > lgdt && lgdt > prot/2 && prot > first) {
		t.Error("component ordering violated")
	}
}

// TestFig3ModeLatency runs fib(20) warm in the three processor modes.
func TestFig3ModeLatency(t *testing.T) {
	noise := cycles.NewNoise(3)
	tb := &table{id: "fig3", header: []string{"mode", "mean", "sd", "min", "us"}}
	var means []float64
	for _, m := range []struct {
		name string
		img  *guest.Image
	}{
		{"16-bit (real)", guest.MustFromAsm("fib16", ".bits 16\n.org 0x8000\n_start:\n"+fibAsm(20))},
		{"32-bit (protected)", guest.MustFromAsm("fib32", guest.WrapProtected(fibAsm(20)))},
		{"64-bit (long)", guest.MustFromAsm("fib64", guest.WrapLongMode(fibAsm(20)))},
	} {
		w := wasp.New()
		mustRun(t, w, m.img, wasp.RunConfig{}, cycles.NewClock())
		samples := make([]float64, 30)
		for i := range samples {
			clk := cycles.NewClock()
			mustRun(t, w, m.img, wasp.RunConfig{}, clk)
			samples[i] = float64(noise.Jitter(clk.Now()))
		}
		s := stats.Summarize(samples)
		tb.add(m.name, f1(s.Mean), f1(s.StdDev), f1(s.Min), us(s.Mean))
		means = append(means, s.Mean)
	}
	tb.check(t, figures)
	m16, m32, m64 := means[0], means[1], means[2]
	if !(m16 < m32 && m16 < m64) {
		t.Errorf("16-bit (%v) should be cheapest (32: %v, 64: %v)", m16, m32, m64)
	}
	band(t, "long mode over protected mode", (m64-m32)/m32, 0, 0.30)
}

// TestFig4EchoMilestones: the echo server's startup milestones, in
// cycles from guest entry, over 30 warm requests.
func TestFig4EchoMilestones(t *testing.T) {
	w, img, pol := wasp.New(), httpd.EchoImage(), httpd.EchoPolicy()
	series := map[uint64][]float64{}
	for i := 0; i <= 30; i++ {
		env := hypercall.NewEnv()
		env.NetIn = []byte("GET /echo HTTP/1.0\r\n\r\n")
		res := mustRun(t, w, img, wasp.RunConfig{Policy: pol, Env: env}, cycles.NewClock())
		for _, m := range res.Marks {
			if i > 0 { // the first request warms the pool
				series[m.ID] = append(series[m.ID], float64(m.Cycle))
			}
		}
	}
	tb := &table{id: "fig4", header: []string{"milestone", "mean", "sd", "us"}}
	var means []float64
	for i, id := range []uint64{httpd.MarkMainEntry, httpd.MarkRecvDone, httpd.MarkSendDone} {
		s := stats.Summarize(series[id])
		name := []string{"main entry (C code reached)", "request received (recv return)", "response sent (send return)"}[i]
		tb.add(name, f1(s.Mean), f1(s.StdDev), us(s.Mean))
		means = append(means, s.Mean)
	}
	tb.check(t, figures)
	entry, recv, send := means[0], means[1], means[2]
	band(t, "main entry cycles", entry, 5000, 25000)
	band(t, "response sent cycles", send, 0, cycles.Frequency/1000)
	if !(entry < recv && recv < send) {
		t.Error("milestone ordering violated")
	}
}

// TestFig8CreationLatency: creation latency with Wasp's pooling
// configurations against the process, pthread, KVM, vmrun and SGX
// baselines.
func TestFig8CreationLatency(t *testing.T) {
	const trials = 100
	noise := cycles.NewNoise(8)
	tb := &table{id: "fig8", header: []string{"context", "mean", "sd", "us"}}
	mean := map[string]float64{}
	add := func(name string, s stats.Summary) {
		tb.add(name, f1(s.Mean), f1(s.StdDev), us(s.Mean))
		mean[name] = s.Mean
	}
	addWasp := func(name string, opts ...wasp.Option) {
		add(name, warmRuns(t, wasp.New(opts...), guest.RealModeHalt(), wasp.RunConfig{}, trials))
	}
	for _, b := range []vmm.Baseline{vmm.BaselineProcess, vmm.BaselinePthread, vmm.BaselineKVM} {
		add(b.String(), baseline(b, noise, trials))
	}
	addWasp("Wasp (no pooling)", wasp.WithPooling(false))
	addWasp("Wasp+C (pooled, sync clean)")
	addWasp("Wasp+CA (pooled, async clean)", wasp.WithAsyncClean(true))
	for _, b := range []vmm.Baseline{vmm.BaselineVMRun, vmm.BaselineSGXCreate, vmm.BaselineSGXECall} {
		add(b.String(), baseline(b, noise, trials))
	}
	tb.check(t, figures)

	// Pooled shells approach the vmrun limit and beat pthread creation;
	// from-scratch creation is bound by KVM's VM construction.
	vmrun, pthread, process := mean["vmrun"], mean["pthread"], mean["process"]
	c, ca := mean["Wasp+C (pooled, sync clean)"], mean["Wasp+CA (pooled, async clean)"]
	band(t, "Wasp+CA over vmrun", (ca-vmrun)/vmrun, 0, 0.35)
	if !(ca < c && c < pthread) {
		t.Errorf("pooling ordering violated: CA=%v C=%v pthread=%v", ca, c, pthread)
	}
	band(t, "from-scratch Wasp", mean["Wasp (no pooling)"], pthread, process)
	if mean["SGX ecall"] < vmrun || mean["SGX create"] < process {
		t.Error("SGX anchors out of place")
	}
}

// TestTab2BoundaryCrossing measures the virtine's boundary-crossing
// cost: a warm pooled run of the smallest image.
func TestTab2BoundaryCrossing(t *testing.T) {
	s := warmRuns(t, wasp.New(), guest.RealModeHalt(), wasp.RunConfig{}, 100)
	v := cycles.Micros(uint64(s.Mean))
	tb := &table{id: "tab2", header: []string{"system", "latency-us"}}
	tb.add("Virtines (measured)", f1(v))
	tb.check(t, figures)
	band(t, "virtine boundary µs", v, 1, 15)
}

// TestFig11FibScaling sweeps fib(n) through the vcc-compiled virtine,
// with and without snapshotting, against a native model: a measurement
// harness plus the same guest compute, since guest code runs at native
// speed under VT-x. Each point is a warm mean of 10 runs (3 from
// fib(25): long runs that vary little).
func TestFig11FibScaling(t *testing.T) {
	// nativeHarness models the measurement and marshalling wrapper the
	// paper's native bars include.
	const nativeHarness = 3600
	v, err := vcc.CompileFunc(`virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }`, "fib")
	if err != nil {
		t.Fatal(err)
	}
	warmMean := func(w *wasp.Wasp, n int64, snap bool) float64 {
		cfg := wasp.RunConfig{Policy: v.Policy, Args: vcc.MarshalArgs(n), RetBytes: vcc.RetSize, Snapshot: snap}
		mustRun(t, w, v.Image, cfg, cycles.NewClock())
		samples := make([]float64, 10)
		if n >= 25 {
			samples = samples[:3]
		}
		for i := range samples {
			clk := cycles.NewClock()
			mustRun(t, w, v.Image, cfg, clk)
			samples[i] = float64(clk.Now())
		}
		return stats.Mean(samples)
	}
	// The guest's fixed cost at fib(0), taken off every snapshot run to
	// leave its compute.
	base0 := warmMean(wasp.New(), 0, true)
	tb := &table{id: "fig11", header: []string{"n", "native", "virtine", "virtine+snapshot", "slowdown", "slowdown+snap"}}
	var slow0, slowN, ratio0 float64
	for _, n := range []int64{0, 5, 10, 15, 20, 25, 30} {
		virt := warmMean(wasp.New(wasp.WithSnapshotting(false)), n, false)
		snap := warmMean(wasp.New(), n, true)
		native := nativeHarness + max(snap-base0, 0)
		tb.add(fmt.Sprintf("fib(%d)", n), f1(native), f1(virt), f1(snap), f2(virt/native), f2(snap/native))
		if n == 0 {
			slow0, ratio0 = snap/native, virt/snap
		}
		slowN = snap / native
	}
	tb.check(t, figures)
	band(t, "fib(0) snapshot slowdown", slow0, 3, 12)
	band(t, "fib(30) snapshot slowdown", slowN, 0, 1.2)
	band(t, "snapshot speedup at fib(0)", ratio0, 1.5, 4)
}

// TestFig12ImageSize: snapshot start-up latency against padded image
// size, five warm runs each on one Wasp+CA runtime. Large images are
// memory-bandwidth bound.
func TestFig12ImageSize(t *testing.T) {
	w := wasp.New(wasp.WithAsyncClean(true))
	tb := &table{id: "fig12", header: []string{"image", "mean-cycles", "ms", "GB/s"}}
	var prev, gbps, ms float64
	for _, size := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20} {
		s := warmRuns(t, w, guest.MinimalHalt().WithPad(size), wasp.RunConfig{Snapshot: true}, 5)
		gbps = float64(size) / (s.Mean / cycles.Frequency) / 1e9
		ms = cycles.Millis(uint64(s.Mean))
		name := fmt.Sprintf("%dKB", size>>10)
		if size >= 1<<20 {
			name = fmt.Sprintf("%dMB", size>>20)
		}
		tb.add(name, f1(s.Mean), fmt.Sprintf("%.3f", ms), f2(gbps))
		band(t, name+" latency (monotone in size)", s.Mean, prev, 1e12)
		prev = s.Mean
	}
	tb.check(t, figures)
	band(t, "16MB GB/s", gbps, 5.5, 8.0)
	band(t, "16MB ms", ms, 2.0, 3.0)
}

// TestFig13HTTPServer: mean latency and harmonic-mean throughput of the
// native, virtine and virtine+snapshot file servers over 20 requests.
func TestFig13HTTPServer(t *testing.T) {
	files := map[string][]byte{"/index.html": []byte("<html>hello virtines</html>")}
	req := httpd.Request("/index.html")
	tb := &table{id: "fig13", header: []string{"server", "latency-us", "throughput-req/s", "vs-native"}}
	lat, tput := map[string]float64{}, map[string]float64{}
	row := func(name string, serve func(clk *cycles.Clock) (*httpd.Response, error)) {
		var samples, rates []float64
		for i := 0; i < 20; i++ {
			clk := cycles.NewClock()
			if _, err := serve(clk); err != nil {
				t.Fatal(err)
			}
			samples = append(samples, float64(clk.Now()))
			rates = append(rates, cycles.Frequency/float64(clk.Now()))
		}
		lat[name], tput[name] = stats.Summarize(samples).Mean, stats.HarmonicMean(rates)
		tb.add(name, us(lat[name]), f1(tput[name]), f2(lat[name]/lat["native"]))
	}
	nsrv := httpd.NewNativeFileServer(files)
	row("native", func(clk *cycles.Clock) (*httpd.Response, error) { return nsrv.Serve(req, clk) })
	for _, snap := range []bool{false, true} {
		srv, err := httpd.NewFileServer(wasp.New(), files)
		if err != nil {
			t.Fatal(err)
		}
		srv.Snapshot = snap
		if _, err := srv.Serve(req, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		row(map[bool]string{false: "virtine", true: "virtine+snapshot"}[snap],
			func(clk *cycles.Clock) (*httpd.Response, error) { return srv.Serve(req, clk) })
	}
	tb.check(t, figures)
	if !(lat["native"] < lat["virtine+snapshot"] && lat["virtine+snapshot"] < lat["virtine"]) {
		t.Errorf("latency ordering violated: %v", lat)
	}
	band(t, "virtine throughput drop (paper ≈2x)", tput["native"]/tput["virtine"], 1, 6)
}

// TestFig14JavaScript: the JavaScript (base64) virtine against native,
// with snapshotting and without teardown.
func TestFig14JavaScript(t *testing.T) {
	pts, err := js.RunFig14(wasp.New(), 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	tb := &table{id: "fig14", header: []string{"variant", "cycles", "us", "slowdown"}}
	slow := map[string]float64{}
	for _, p := range pts {
		tb.add(p.Name, fmt.Sprint(p.Cycles), f1(p.Micros), f2(p.Slowdown))
		slow[p.Name] = p.Slowdown
	}
	tb.check(t, figures)
	band(t, "virtine slowdown (paper ≈1.3)", slow["virtine"], 1.05, 2.0)
	if v := slow["virtine+snapshot+NT"]; v >= 1 {
		t.Errorf("snapshot+NT slowdown = %v, want < 1 (paper ≈0.33)", v)
	}
}

// TestFig15Serverless drives Vespid (virtines, Wasp+CA: each reused
// shell's zeroing is settled on the virtual cleaner core) and OpenWhisk
// (containers) with 12 seconds of the burst pattern.
func TestFig15Serverless(t *testing.T) {
	w := wasp.New(wasp.WithAsyncClean(true))
	trace, err := serverless.RunFig15(w, serverless.DefaultPattern(12), 15)
	if err != nil {
		t.Fatal(err)
	}
	tb := &table{id: "fig15", header: []string{"sec", "users", "vespid-p50-ms", "vespid-p99-ms",
		"whisk-p50-ms", "whisk-p99-ms", "vespid-tput", "whisk-tput"}}
	for _, tp := range trace {
		tb.add(fmt.Sprint(tp.Sec), fmt.Sprint(tp.Users), f2(tp.VespidP50), f2(tp.VespidP99),
			f2(tp.WhiskP50), f2(tp.WhiskP99), f1(tp.VespidTput), f1(tp.WhiskTput))
		if tp.VespidP50 > 0 && tp.WhiskP50 > 0 && tp.VespidP50 >= tp.WhiskP50 {
			t.Errorf("second %d: vespid p50 %v >= whisk %v", tp.Sec, tp.VespidP50, tp.WhiskP50)
		}
	}
	s, c := serverless.Summarize(trace), w.Cleaner()
	tb.add("summary", f2(s.VespidMeanP50), f2(s.WhiskMeanP50), f1(s.VespidWorstP99), f1(s.WhiskWorstP99))
	tb.add("cleaner", f2(cycles.Millis(c.BusyCycles())), fmt.Sprint(c.VirtualDrains()))
	tb.check(t, figures)
}

// TestSec64OpenSSL: `openssl speed aes-128-cbc`, native against the
// virtine, per block size (reported in prose in §6.4). The slowdown must
// amortize as blocks grow.
func TestSec64OpenSSL(t *testing.T) {
	pts, err := aes.Speed(wasp.New(), []int{16, 64, 256, 1024, 4096, 16384}, 5)
	if err != nil {
		t.Fatal(err)
	}
	tb := &table{id: "sec6.4", header: []string{"block", "native-MB/s", "virtine-MB/s", "slowdown"}}
	for i, p := range pts {
		tb.add(fmt.Sprint(p.BlockBytes), f1(p.NativeBps/1e6), f1(p.VirtineBps/1e6), f2(p.Slowdown))
		if i > 0 && p.Slowdown >= pts[i-1].Slowdown {
			t.Errorf("slowdown not amortizing: %v after %v", p.Slowdown, pts[i-1].Slowdown)
		}
	}
	tb.check(t, figures)
}
