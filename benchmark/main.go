// Command benchmark is the repository's cost ledger: one harness, one
// schema, end to end and per layer (ROADMAP item 1). It runs five named
// workloads against the real stack, prints every metric by name and
// unit, and checks every output it receives. See README.md for the
// metric tables and why each workload exists; BENCHMARK.json is the
// machine-readable contract.
//
//	benchmark -workload http_pooled -seed 1            end-to-end metrics
//	benchmark -workload http_pooled -seed 1 -trace 1   per-layer metrics + Chrome trace
//	benchmark -workload all -repeat 10                 spread of every end-to-end metric
//
// A run has three phases: set-up (timed, repeated → setup_s), a
// virtual pass (fixed seeded request count in virtual time; repeats
// exactly for equal seeds) and a real pass (closed loop on OS threads,
// measured in quarter-second windows). The last line of standard
// output is the result object the benchmark driver reads; the line
// before it is the full document with the env block.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cycles"
	"repro/internal/stats"
)

// workload is one named set of inputs. setup builds everything needed
// before the first timed request from the seed; it is called several
// times per run, so each call returns an independent instance.
type workload struct {
	name, why string
	setup     func(seed uint64, sz sizes, l *ledger) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// virtualPass serves the workload's fixed, seeded request count in
	// virtual time and returns the requests' virtual latencies.
	virtualPass(l *ledger) (vstats, error)
	// realPass serves requests on OS threads until the pass's windows
	// have elapsed.
	realPass(p pass) (passStats, error)
	// probe calls each layer directly with the workload's own inputs,
	// single-threaded (traced run only).
	probe(tr *tracer, sz sizes, l *ledger) error
	// finish checks the end-of-run invariants and records end-of-run
	// counters. Called once, on the measured instance.
	finish(l *ledger) error
}

var workloads = []*workload{httpPooled, tenantRestore, forkStorm, guestCompute, clusterSim}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

type options struct {
	seed     uint64
	real     time.Duration // length of the real pass
	trace    bool
	traceOut string
	sz       sizes
}

// document is the full result of one run: what the driver reads plus
// the configuration needed to compare two result files.
type document struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Env       envBlock               `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	FailRatio float64                `json:"fail_ratio"`
	EndToEnd  map[string]metricValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Samples   map[string]int         `json:"percentile_samples"`
	MedianRPS float64                `json:"host_rps_median_window"`
	Windows   []float64              `json:"host_rps_windows"`
	HeapMB    []float64              `json:"host_live_heap_samples"`
	Setups    []float64              `json:"setup_samples"`
	Spans     []spanSummary          `json:"spans,omitempty"`
	TraceFile string                 `json:"trace_file,omitempty"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload executes one workload once. An invariant break or a layer
// error is returned (fatal); a wrong or refused response only counts
// into failed.
func runWorkload(wl *workload, o options) (*document, error) {
	l := newLedger()
	width := realWidth()

	// Set-up is timed on fresh instances, each from a collected heap, in
	// two rounds — before the virtual pass and after the real pass — so
	// the figure does not hang on the host's speed during one stretch of
	// the run. The first round's last instance is the measured one.
	var setups []float64
	timeSetups := func(atLeast int) (instance, error) {
		var inst instance
		begin := time.Now()
		for n := 0; n < atLeast || (len(setups) < o.sz.maxSetups && time.Since(begin) < o.sz.setupBudget/2); n++ {
			runtime.GC()
			t0 := time.Now()
			next, err := wl.setup(o.seed, o.sz, l)
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
			inst = next
		}
		return inst, nil
	}
	inst, err := timeSetups(o.sz.minSetups)
	if err != nil {
		return nil, err
	}

	vlat, err := inst.virtualPass(l)
	if err != nil {
		return nil, fmt.Errorf("virtual pass: %w", err)
	}
	l.set("vlat_p50_us", cycles.Micros(vlat.p50))
	l.set("vlat_p99_us", cycles.Micros(vlat.p99))
	l.samples["vlat_p50_us"], l.samples["vlat_p99_us"] = vlat.samples, vlat.samples

	p := pass{
		clients: width,
		warmup:  o.sz.warmup,
		window:  o.sz.window,
		windows: max(1, int(o.real/o.sz.window)),
	}
	if o.trace {
		// End-to-end numbers always come from an untraced pass; the traced
		// run splits its time between an untraced and a traced half so the
		// ratio of the two is the tracing overhead.
		p.windows = (p.windows + 1) / 2
	}
	st, err := inst.realPass(p)
	if err != nil {
		return nil, fmt.Errorf("real pass: %w", err)
	}
	l.count(st.ops, st.failed)
	l.set("host_rps", st.rps)
	l.set("host.alloc_kb_per_req", ratio(float64(st.mem.allocBytes)/1024, float64(st.units)))
	l.set("host.gc_pause_ms_total", float64(st.mem.pauseNs)/1e6)

	doc := &document{Workload: wl.name, Why: wl.why, Windows: st.perWindow, MedianRPS: median(st.perWindow), HeapMB: st.heapMB}
	if o.trace {
		tr := newTracer()
		p.tr, p.warmup = tr, 0
		traced, err := inst.realPass(p)
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		l.count(traced.ops, traced.failed)
		l.set("host.trace_overhead_ratio", ratio(traced.rps, st.rps))
		if err := inst.probe(tr, o.sz, l); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		recordSpanMetrics(tr, l)
		doc.Spans = tr.summary()
		doc.TraceFile = o.traceOut
		if err := tr.writeChrome(o.traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	l.set("host_live_heap_mb", trimmedMean(st.heapMB))
	if err := inst.finish(l); err != nil {
		return nil, fmt.Errorf("invariant: %w", err)
	}
	if _, err := timeSetups(1); err != nil {
		return nil, err
	}
	l.set("setup_s", undisturbed(setups))

	doc.Env = envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: width, Clients: width,
		GoVersion: runtime.Version(), GitHead: gitHead(),
		Seed: o.seed, Seconds: o.real.Seconds(), Windows: p.windows, Traced: o.trace,
	}
	doc.Attempted, doc.Failed = l.attempted, l.failed
	doc.FailRatio = ratio(float64(l.failed), float64(l.attempted))
	doc.Correct = l.failed == 0
	doc.EndToEnd = l.export(endToEnd)
	if o.trace {
		doc.PerLayer = l.export(perLayer)
	}
	doc.Samples = l.samples
	doc.Setups = setups
	return doc, nil
}

// recordSpanMetrics derives the span-based scheduler and hypercall
// metrics from the traced pass.
func recordSpanMetrics(tr *tracer, l *ledger) {
	if d := tr.durations("sched.submit"); len(d) > 0 {
		// Only requests that went through a scheduler have a host latency
		// to report under its name.
		l.setPct("sched.submit_ns_p50", d, 50)
		l.setPct("sched.wait_ns_p50", tr.durations("sched.wait"), 50)
		us := tr.durations("request")
		for i := range us {
			us[i] /= 1e3
		}
		l.setPct("sched.host_lat_p50_us", us, 50)
		l.setPct("sched.host_lat_p99_us", us, 99)
	}
	if d := tr.durations("hypercall.handle"); len(d) > 0 {
		l.setPct("hypercall.handle_ns_p50", d, 50)
		l.set("hypercall.host_ns_per_req", stats.Mean(d)*float64(len(d))/float64(tr.requests("hypercall.handle")))
	}
}

func (d *document) result(trace bool) result {
	r := result{Correct: d.Correct, Attempted: d.Attempted, Failed: d.Failed, Metrics: d.EndToEnd}
	if trace {
		r.Metrics = d.PerLayer
	}
	return r
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Uint64("seed", 1, "workload seed; the program only ever sees the inputs generated from it")
		seconds = flag.Int("seconds", 12, "length of the real pass in seconds")
		trace   = flag.Int("trace", 0, "1: print the per-layer metrics and write a Chrome trace")
		out     = flag.String("trace-out", "", "Chrome trace path (default .bench_build/trace_<workload>.json)")
		repeat  = flag.Int("repeat", 0, "run N sets with seeds seed..seed+N-1 and print each end-to-end metric's spread against its bound")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace != 0, *out, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, trace bool, traceOut string, repeat int) error {
	if seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if name == "all" || repeat > 0 {
		return runSets(name, seed, seconds, trace, max(repeat, 1))
	}
	wl := findWorkload(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if traceOut == "" {
		traceOut = filepath.Join(".bench_build", "trace_"+wl.name+".json")
	}
	doc, err := runWorkload(wl, options{seed: seed, real: time.Duration(seconds) * time.Second, trace: trace, traceOut: traceOut, sz: defaultSizes})
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	printSummary(doc)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(doc); err != nil {
		return err
	}
	return enc.Encode(doc.result(trace))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// printSummary writes the human-readable table to standard error.
func printSummary(d *document) {
	w := os.Stderr
	fmt.Fprintf(w, "%s  seed=%d  W=C=%d  attempted=%d failed=%d\n", d.Workload, d.Env.Seed, d.Env.Workers, d.Attempted, d.Failed)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-36s %s\n", m.name, fmtMetric(d.EndToEnd[m.name]))
	}
	for _, m := range perLayer {
		if v, ok := d.PerLayer[m.name]; ok && v.Value != 0 {
			fmt.Fprintf(w, "  %-36s %s\n", m.name, fmtMetric(v))
		}
	}
	if len(d.Spans) > 0 {
		fmt.Fprintf(w, "  %-24s %10s %14s %14s %12s\n", "span", "count", "total-ms", "self-ms", "p50-ns")
		for _, s := range d.Spans {
			fmt.Fprintf(w, "  %-24s %10d %14.2f %14.2f %12.0f\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6, s.P50Ns)
		}
	}
}
