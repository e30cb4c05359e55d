package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// The metrics registry unifies the runtime's scattered stats structs
// (wasp.CodeStats, wasp.ForestStats, pool and cleaner counters, the
// scheduler's admission and backend telemetry) behind one Snapshot. It
// is pull-only: RegisterCollector attaches a closure sampled at
// Snapshot time, so existing accessors (CodeCacheStats, ForestStats,
// ...) join the registry without changing their APIs or paying any
// per-operation cost.

// Metric is one named sample of a Snapshot.
type Metric struct {
	Name  string
	Value float64
}

// Registry holds the collectors a Snapshot samples.
type Registry struct {
	mu         sync.Mutex
	collectors []func(emit func(name string, v float64))
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry { return &Registry{} }

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

// Snapshot samples every collector, returning metrics sorted by name —
// one deterministic, alphabetized view of the whole runtime.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	collectors := make([]func(func(string, float64)), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	var out []Metric
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
