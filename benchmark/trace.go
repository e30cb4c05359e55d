package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The harness's own span recorder. Layers are measured from outside:
// spans wrap the calls the harness makes into each package (and the
// hook interfaces it is allowed to wrap), never code inside them. A nil
// *spanBuf records nothing, so the untraced run pays one nil check per
// site.

// span is one timed call. Spans of one request share req; parent is the
// index of the enclosing span inside the same buffer, -1 for a root.
type span struct {
	name       string
	req        uint64
	parent     int32
	tid        int32
	start, end int64 // ns since the tracer's epoch
}

// tracer owns the spans of one traced run. Each goroutine records into
// its own spanBuf; the tracer reads them once their goroutines are done.
type tracer struct {
	epoch time.Time

	mu   sync.Mutex // guards bufs
	bufs []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span log.
type spanBuf struct {
	tr    *tracer
	tid   int32
	spans []span
}

// buf opens a span log for one goroutine (nil tracer: nil log).
func (t *tracer) buf(tid int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t, tid: int32(tid)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, req uint64, parent int) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{
		name: name, req: req, parent: int32(parent), tid: b.tid,
		start: int64(time.Since(b.tr.epoch)),
	})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) {
	if b != nil {
		b.spans[i].end = int64(time.Since(b.tr.epoch))
	}
}

// add records an already-timed child span (the hypercall hook times
// its calls on the worker's goroutine; the client files them once Wait
// has returned).
func (b *spanBuf) add(name string, req uint64, parent int, start, end int64) {
	if b != nil {
		b.spans = append(b.spans, span{name: name, req: req, parent: int32(parent), tid: b.tid, start: start, end: end})
	}
}

// now is the tracer-relative clock hook wrappers stamp with.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// spanSummary is one row of the per-layer span table.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalNs int64   `json:"total_ns"`
	SelfNs  int64   `json:"self_ns"` // duration minus the children's cover
	P50Ns   float64 `json:"p50_ns"`
}

// durations returns every recorded duration of the named span.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, b := range t.bufs {
		for i := range b.spans {
			if s := &b.spans[i]; s.name == name {
				out = append(out, float64(s.end-s.start))
			}
		}
	}
	return out
}

// requests counts the distinct requests that recorded the named span.
// A goroutine serves one request at a time, so within a buffer a
// request's spans are contiguous.
func (t *tracer) requests(name string) int {
	n := 0
	for _, b := range t.bufs {
		last := ^uint64(0)
		for i := range b.spans {
			if s := &b.spans[i]; s.name == name && s.req != last {
				last = s.req
				n++
			}
		}
	}
	return n
}

// summary aggregates spans by name. The harness's instrumentation never
// overlaps siblings, so a span's children cover the sum of their
// durations.
func (t *tracer) summary() []spanSummary {
	type agg struct {
		durs        []float64
		total, self int64
	}
	byName := map[string]*agg{}
	for _, b := range t.bufs {
		child := make([]int64, len(b.spans))
		for i := range b.spans {
			if p := b.spans[i].parent; p >= 0 {
				child[p] += b.spans[i].end - b.spans[i].start
			}
		}
		for i := range b.spans {
			s := &b.spans[i]
			a := byName[s.name]
			if a == nil {
				a = &agg{}
				byName[s.name] = a
			}
			d := s.end - s.start
			a.durs = append(a.durs, float64(d))
			a.total += d
			a.self += d - child[i]
		}
	}
	out := make([]spanSummary, 0, len(byName))
	for _, name := range sortedNames(byName) {
		a := byName[name]
		out = append(out, spanSummary{Name: name, Count: len(a.durs), TotalNs: a.total, SelfNs: a.self, P50Ns: median(a.durs)})
	}
	return out
}

// maxTraceEvents bounds the written Chrome trace (a five-second traced
// pass records several hundred thousand spans; a viewer needs the
// shape, the summary table carries the totals).
const maxTraceEvents = 50_000

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON — the format
// internal/obs/chrome.go targets — loadable in chrome://tracing or
// ui.perfetto.dev. Timestamps are host microseconds since the traced
// run began.
func (t *tracer) writeChrome(path string) (err error) {
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].start < all[j].start })
	dropped := 0
	if len(all) > maxTraceEvents {
		dropped = len(all) - maxTraceEvents
		all = all[:maxTraceEvents]
	}
	events := make([]chromeEvent, 0, len(all))
	for _, s := range all {
		cat, _, _ := strings.Cut(s.name, ".") // layer = package name
		events = append(events, chromeEvent{
			Name: s.name, Cat: cat, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.tid, Args: map[string]any{"req": s.req},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"spans_dropped": dropped},
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return json.NewEncoder(f).Encode(doc)
}
