package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry unifies the runtime's scattered stats structs
// (wasp.CodeStats, wasp.ForestStats, pool and cleaner counters, the
// scheduler's admission and backend telemetry) behind one Snapshot.
// Two ingestion models coexist:
//
//   - push: Counter/Gauge/Histogram handles are atomic and safe on hot
//     paths; and
//   - pull: RegisterCollector attaches a closure sampled at Snapshot
//     time, so existing accessors (CodeCacheStats, ForestStats, ...)
//     join the registry without changing their APIs or paying any
//     per-operation cost.

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge's current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is one bucket per power of two: bucket i counts samples v
// with bits.Len64(v) == i, i.e. 0, 1, 2-3, 4-7, ...
const histBuckets = 65

// Histogram is a lock-free log2-bucket histogram of uint64 samples.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports total samples observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile reports an upper bound for the qth quantile (0 < q <= 1):
// the top of the log2 bucket the quantile falls in. 0 for an empty
// histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			if i == 0 {
				return 0
			}
			return 1<<uint(i) - 1
		}
	}
	return math.MaxUint64
}

// Metric is one named sample of a Snapshot.
type Metric struct {
	Name  string
	Value float64
}

// Registry holds the named instruments and collectors.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func(emit func(name string, v float64))
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. The
// returned handle is the hot-path interface; the lookup is not.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// RegisterCollector attaches a pull-model source: fn is invoked at
// every Snapshot with an emit callback and may emit any number of
// metrics. Collectors let existing stats accessors join the registry
// without changing shape — register a closure over the owning object.
// fn must be safe to call concurrently with the owner's operation.
func (r *Registry) RegisterCollector(fn func(emit func(name string, v float64))) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Snapshot samples every instrument and collector, returning metrics
// sorted by name — one deterministic, alphabetized view of the whole
// runtime. Histograms expand to _count, _sum, _p50 and _p99 series.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	collectors := make([]func(func(string, float64)), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	var out []Metric
	for name, c := range counters {
		out = append(out, Metric{name, float64(c.Value())})
	}
	for name, g := range gauges {
		out = append(out, Metric{name, float64(g.Value())})
	}
	for name, h := range hists {
		out = append(out,
			Metric{name + "_count", float64(h.Count())},
			Metric{name + "_sum", float64(h.Sum())},
			Metric{name + "_p50", float64(h.Quantile(0.50))},
			Metric{name + "_p99", float64(h.Quantile(0.99))},
		)
	}
	for _, fn := range collectors {
		fn(func(name string, v float64) {
			out = append(out, Metric{name, v})
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText dumps the snapshot as plain "name value" lines, one metric
// per line, sorted by name — the scrape format.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %g\n", m.Name, m.Value); err != nil {
			return err
		}
	}
	return nil
}

// Default is the process-wide registry components register into when no
// explicit registry is wired.
var Default = NewRegistry()

// Snapshot samples the Default registry.
func Snapshot() []Metric { return Default.Snapshot() }

// WriteText dumps the Default registry as plain text.
func WriteText(w io.Writer) error { return Default.WriteText(w) }
