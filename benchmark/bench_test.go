package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny shrinks every fixed dimension so all five workloads smoke in a
// few seconds; the structure of a run is unchanged.
var tiny = sizes{minSetups: 1, warmup: 10 * time.Millisecond, window: 20 * time.Millisecond, vscale: 40, probeOps: 8}

func runTiny(t *testing.T, name string, seed uint64, trace bool) *document {
	t.Helper()
	doc, err := runWorkload(findWorkload(name), options{
		seed: seed, real: 80 * time.Millisecond, trace: trace,
		traceOut: filepath.Join(t.TempDir(), "trace.json"), sz: tiny,
	})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return doc
}

// benchmarkSpec is BENCHMARK.json as the driver reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// The harness's metric and workload lists and BENCHMARK.json name the
// same things, with the same units and directions.
func TestSpecMatchesHarness(t *testing.T) {
	spec := loadSpec(t)
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || len(spec.Command) == 0 {
		t.Errorf("paths %v command %v", spec.Paths, spec.Command)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := spec.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, wl.name, wl.why)
		}
		if !nameRE.MatchString(wl.name) || len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %q: bad name or why", wl.name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(got), len(want))
		}
		for i, d := range want {
			m := got[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", kind, d.name)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if m := spec.EndToEnd[0]; m.Name != "setup_s" || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s in s, lower: %+v", m)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
	}
}

// Every workload runs end to end at smoke size, plain and traced: the
// driver's result object has exactly its four keys and exactly the
// declared metrics, nothing fails its output check, the env block is
// filled, and the traced run writes a loadable Chrome trace.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			doc := runTiny(t, wl.name, 1, trace)
			raw, err := json.Marshal(doc.result(trace))
			if err != nil {
				t.Fatal(err)
			}
			var res map[string]json.RawMessage
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
				t.Errorf("%s: result keys %v", wl.name, sortedNames(res))
			}
			var metrics map[string]metricValue
			if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d declared", wl.name, trace, len(metrics), len(want))
			}
			for _, d := range want {
				if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or in unit %q, want %q", wl.name, trace, d.name, m.Unit, d.unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.name, metrics[d.name].Value)
					}
				}
			}
			if !doc.Correct || doc.Failed != 0 || doc.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, trace, doc.Correct, doc.Attempted, doc.Failed)
			}
			if e := doc.Env; e.NProc < 1 || e.GOMAXPROCS < 1 || e.Workers < 1 || e.Clients != e.Workers ||
				e.GoVersion == "" || e.GitHead == "" || e.Seed != 1 || e.Windows < 1 || e.Traced != trace {
				t.Errorf("%s: env block %+v", wl.name, e)
			}
			if doc.Samples["vlat_p99_us"] < 1 {
				t.Errorf("%s: no sample count behind vlat_p99_us", wl.name)
			}
			if trace {
				data, err := os.ReadFile(doc.TraceFile)
				if err != nil {
					t.Fatal(err)
				}
				var chrome struct {
					TraceEvents []struct {
						Name, Ph string
						Ts, Dur  float64
					} `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
					t.Errorf("%s: Chrome trace: %d events, err %v", wl.name, len(chrome.TraceEvents), err)
				}
				if len(doc.Spans) == 0 {
					t.Errorf("%s: traced run has no span table", wl.name)
				}
			}
		}
	}
}

// Virtual metrics are a function of the seed alone: equal seeds repeat
// them exactly, another seed moves them.
func TestVirtualMetricsFollowTheSeed(t *testing.T) {
	for _, wl := range workloads {
		virtual := func(seed uint64) [2]float64 {
			d := runTiny(t, wl.name, seed, false)
			return [2]float64{d.EndToEnd["vlat_p50_us"].Value, d.EndToEnd["vlat_p99_us"].Value}
		}
		a, b, c := virtual(7), virtual(7), virtual(8)
		if a != b {
			t.Errorf("%s: seed 7 gave %v then %v", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both gave %v", wl.name, a)
		}
	}
}

// The workload seed reaches the program only as generated inputs: the
// harness hands it to math/rand sources and to the repository's trace
// generators, never to any other function of the packages under test.
func TestSeedOnlyFeedsGenerators(t *testing.T) {
	generators := regexp.MustCompile(`serverless\.(NewTraceRNG|ClusterMix)\(`)
	// A call into a package under test with the seed among its arguments.
	program := regexp.MustCompile(`\b(wasp|sched|httpd|serverless|vmm|js|aes|vcc|placement|hypercall|guest|cycles)\.[A-Z]\w*\([^)]*\bseed\b`)
	mentions := regexp.MustCompile(`\bseed\b`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if !mentions.MatchString(code) {
				continue
			}
			if program.MatchString(generators.ReplaceAllString(code, "generate(")) {
				t.Errorf("%s:%d: the seed is passed into the program: %s", file, i+1, strings.TrimSpace(line))
			}
		}
	}
}

// iqr follows Python's statistics.quantiles(xs, n=4), the driver's rule.
func TestIQRMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 8.25 - 2.75},
		{[]float64{1, 2}, 2.25 - 0.75},
		{[]float64{3, 3, 3}, 0},
		{[]float64{5}, 0},
	} {
		if got := iqr(c.xs); got != c.want {
			t.Errorf("iqr(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// A span's self time is its duration minus its children's.
func TestSpanSelfTime(t *testing.T) {
	tr := newTracer()
	b := tr.buf(0)
	b.spans = []span{
		{name: "request", parent: -1, start: 0, end: 100},
		{name: "sched.submit", parent: 0, start: 5, end: 15},
		{name: "sched.wait", parent: 0, start: 15, end: 95},
		{name: "hypercall.handle", parent: 2, start: 20, end: 30},
	}
	self := map[string]int64{}
	for _, s := range tr.summary() {
		self[s.Name] = s.SelfNs
	}
	want := map[string]int64{"request": 10, "sched.submit": 10, "sched.wait": 70, "hypercall.handle": 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if n := tr.requests("hypercall.handle"); n != 1 {
		t.Errorf("requests with hypercall spans = %d, want 1", n)
	}
}
