package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"repro/internal/stats"
)

// metricDef names one metric. BENCHMARK.json repeats every entry (with
// the end-to-end bounds); bench_test.go keeps the two lists equal.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the runtime sees. Virtual
// latencies are in virtual microseconds at cycles.Frequency and repeat
// exactly for equal seeds; host_rps is sustainedRate over the real
// pass's windows.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"vlat_p50_us", "virt_us", "lower"},
	{"vlat_p99_us", "virt_us", "lower"},
	{"host_rps", "1/s", "higher"},
	{"host_live_heap_mb", "MB", "lower"},
}

// perLayer is the ledger proper: layer = package name. Every traced run
// prints every entry; a metric that does not apply to a workload reads
// 0 (benchmark/README.md lists which apply where).
var perLayer = []metricDef{
	{"sched.submit_ns_p50", "ns", "lower"},
	{"sched.wait_ns_p50", "ns", "lower"},
	{"sched.host_lat_p50_us", "us", "lower"},
	{"sched.host_lat_p99_us", "us", "lower"},
	{"sched.overhead_ns", "ns", "lower"},
	{"sched.queue_vcycles_p99", "vcycles", "lower"},
	{"sched.peak_queue_depth", "count", "lower"},
	{"sched.rejected", "count", "lower"},
	{"sched.sim_ns_per_ticket", "ns", "lower"},
	{"sched.autoscale_ns_per_epoch", "ns", "lower"},
	{"sched.scale_events", "count", "lower"},

	{"placement.place_ns_p50", "ns", "lower"},
	{"placement.migrations", "count", "lower"},
	{"placement.delta_migrations", "count", "higher"},

	{"wasp.run_ns_p50", "ns", "lower"},
	{"wasp.provision_vcycles", "vcycles", "lower"},
	{"wasp.snapshot_used_ratio", "ratio", "higher"},
	{"wasp.cow_pages_per_req", "count", "lower"},
	{"wasp.pool_cached", "count", "higher"},
	{"wasp.pool_dropped", "count", "lower"},
	{"wasp.cleaner_enqueued", "count", "lower"},
	{"wasp.cleaner_inline_reclaims", "count", "lower"},
	{"wasp.clean_ns_per_shell", "ns", "lower"},
	{"wasp.capture_ns", "ns", "lower"},
	{"wasp.export_ns", "ns", "lower"},
	{"wasp.export_bytes", "B", "lower"},
	{"wasp.import_ns", "ns", "lower"},
	{"wasp.migrate_ns", "ns", "lower"},
	{"wasp.drop_ns", "ns", "lower"},
	{"wasp.code_cache_hit_ratio", "ratio", "higher"},

	{"vmm.create_ns", "ns", "lower"},
	{"vmm.create_vcycles", "vcycles", "lower"},
	{"vmm.load_ns", "ns", "lower"},
	{"vmm.forest_store_mb", "MB", "lower"},
	{"vmm.forest_dedup_ratio", "ratio", "higher"},
	{"vmm.forest_marginal_kb_per_tenant", "KB", "lower"},
	{"vmm.forest_layers", "count", "lower"},

	{"cpu.host_mips", "MIPS", "higher"},
	{"cpu.retired_per_req", "count", "lower"},
	{"cpu.guest_vcycles_per_req", "vcycles", "lower"},
	{"cpu.jit_traces_compiled", "count", "lower"},
	{"cpu.jit_deopts", "count", "lower"},
	{"cpu.fused_entries", "count", "lower"},

	{"hypercall.handle_ns_p50", "ns", "lower"},
	{"hypercall.exits_per_req", "count", "lower"},
	{"hypercall.host_ns_per_req", "ns", "lower"},
	{"guest.boot_vcycles", "vcycles", "lower"},

	{"httpd.native_vcycles", "vcycles", "lower"},
	{"httpd.slowdown_ratio", "ratio", "lower"},
	{"js.native_encode_ns", "ns", "lower"},
	{"js.slowdown_ratio", "ratio", "lower"},
	{"aes.native_ns", "ns", "lower"},

	{"vcc.compile_ns", "ns", "lower"},
	{"asm.assemble_ns", "ns", "lower"},
	{"serverless.tracegen_ns", "ns", "lower"},

	{"host.alloc_kb_per_req", "KB", "lower"},
	{"host.gc_pause_ms_total", "ms", "lower"},
	{"host.trace_overhead_ratio", "ratio", "higher"},
}

// ledger collects one run's metrics. Only the goroutine driving the run
// writes to it.
type ledger struct {
	units   map[string]string
	values  map[string]float64
	samples map[string]int // sample count behind each percentile

	attempted, failed uint64
}

func newLedger() *ledger {
	l := &ledger{
		units:   make(map[string]string),
		values:  make(map[string]float64),
		samples: make(map[string]int),
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			l.units[d.name] = d.unit
		}
	}
	return l
}

// set records a metric. An undeclared name is a harness bug: the metric
// lists above are the schema.
func (l *ledger) set(name string, v float64) {
	if _, ok := l.units[name]; !ok {
		panic("benchmark: undeclared metric " + name)
	}
	l.values[name] = v
}

// setPct records the pth percentile of xs and its sample count.
func (l *ledger) setPct(name string, xs []float64, p float64) {
	l.set(name, stats.Percentile(xs, p))
	l.samples[name] = len(xs)
}

// count folds one pass's request outcomes into the run totals.
func (l *ledger) count(attempted, failed uint64) {
	l.attempted += attempted
	l.failed += failed
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// export renders the given metric list; missing entries read 0.
func (l *ledger) export(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: l.values[d.name], Unit: d.unit}
	}
	return out
}

// envBlock is the configuration two result files are compared by.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Clients    int     `json:"clients"`
	GoVersion  string  `json:"go_version"`
	GitHead    string  `json:"git_head"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Windows    int     `json:"windows"`
	Traced     bool    `json:"traced"`
}

// realWidth is the W = C rule for real passes: one core is left for the
// async cleaner, the GC and the harness (README, "Load sizing").
func realWidth() int {
	if n := runtime.NumCPU() - 1; n > 1 {
		return n
	}
	return 1
}

// gitHead reports the checkout's commit, or "unknown" outside a git
// work tree (the benchmark driver runs from an exported tree).
func gitHead() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// vstats is a virtual pass's latency distribution, in cycles.
type vstats struct {
	p50, p99 uint64
	samples  int
}

func vstatsOf(lat []uint64) vstats {
	xs := stats.FromUint64(lat)
	return vstats{p50: uint64(stats.Percentile(xs, 50)), p99: uint64(stats.Percentile(xs, 99)), samples: len(lat)}
}

// undisturbed is the set-up time a run reports: the 10th percentile of
// its timed set-ups, the mirror of sustainedRate. A set-up is a few
// milliseconds of CPU; the median of a run's set-ups follows the host's
// speed during those milliseconds, and moved by a third between two
// sets of ten runs of one commit.
func undisturbed(setups []float64) float64 { return stats.Percentile(setups, 10) }

// trimmedMean is the mean of the samples left after dropping the lowest
// and highest tenth, so one collection that caught a transient does not
// set the live-heap figure.
func trimmedMean(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	drop := len(sorted) / 10
	return stats.Mean(sorted[drop : len(sorted)-drop])
}

// median is the 50th percentile; 0 for no samples.
func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

// ratio is a/b guarded against an empty denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sortedNames lists a map's keys in order, for stable printing.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func fmtMetric(v metricValue) string { return fmt.Sprintf("%.6g %s", v.Value, v.Unit) }
