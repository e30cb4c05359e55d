package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetEnabled(true)
	tr.Span(0, KindTicket, "x", 1, 2, 3, 4, 5)
	tr.Instant(ControlLane, KindSubmit, "x", 1, 0, 0, 0)
	if tr.Name("x") != 0 || tr.NameOf(0) != "" {
		t.Fatal("nil tracer interner not inert")
	}
	if tr.Events() != nil || tr.Marshal() != nil || tr.EventCount() != 0 {
		t.Fatal("nil tracer snapshot not empty")
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := NewTracer()
	tr.Span(0, KindTicket, "x", 1, 2, 3, 4, 5)
	if tr.EventCount() != 0 {
		t.Fatalf("disabled tracer recorded %d events", tr.EventCount())
	}
	tr.SetEnabled(true)
	tr.Span(0, KindTicket, "x", 1, 2, 3, 4, 5)
	tr.SetEnabled(false)
	tr.Span(0, KindTicket, "x", 6, 7, 8, 9, 10)
	if got := tr.EventCount(); got != 1 {
		t.Fatalf("EventCount = %d after enable/disable window, want 1", got)
	}
}

func TestRingWrapKeepsNewestOldestFirst(t *testing.T) {
	tr := NewTracer(Deterministic(true))
	tr.SetEnabled(true)
	const n = DefaultRingSize + 6
	for i := uint64(1); i <= n; i++ {
		tr.Instant(2, KindTicket, "t", i, i, 0, 0)
	}
	les := tr.Events()
	if len(les) != 4 { // lanes 0..3 exist (control + workers 0..2)
		t.Fatalf("lane count = %d, want 4", len(les))
	}
	le := les[3]
	if le.Lane != 2 {
		t.Fatalf("lane id = %d, want 2", le.Lane)
	}
	if le.Dropped != 6 || len(le.Events) != DefaultRingSize {
		t.Fatalf("dropped=%d survivors=%d, want 6/%d", le.Dropped, len(le.Events), DefaultRingSize)
	}
	for i, e := range le.Events {
		if want := uint64(7 + i); e.VStart != want {
			t.Fatalf("event %d VStart = %d, want %d (oldest-first after wrap)", i, e.VStart, want)
		}
	}
	if tr.EventCount() != n {
		t.Fatalf("EventCount = %d, want %d", tr.EventCount(), n)
	}
}

func TestInternerStableAndConcurrent(t *testing.T) {
	tr := NewTracer()
	a := tr.Name("alpha")
	b := tr.Name("beta")
	if a == b || tr.Name("alpha") != a || tr.NameOf(b) != "beta" {
		t.Fatal("interner ids unstable")
	}
	var wg sync.WaitGroup
	ids := make([]uint32, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids[g] = tr.Name("shared")
		}(g)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatal("concurrent interning returned distinct ids for one name")
		}
	}
}

func TestDeterministicSuppressesHostStamps(t *testing.T) {
	det := NewTracer(Deterministic(true))
	det.SetEnabled(true)
	det.Instant(0, KindShell, "s", 5, 0, 0, 0)
	if e := det.Events()[1].Events[0]; e.Host != 0 {
		t.Fatalf("deterministic tracer stamped host time %d", e.Host)
	}
	wall := NewTracer()
	wall.SetEnabled(true)
	wall.Instant(0, KindShell, "s", 5, 0, 0, 0)
	if e := wall.Events()[1].Events[0]; e.Host == 0 {
		t.Fatal("wall-clock tracer left host stamp zero")
	}
}

func TestMarshalExcludesHostAndResolvesNames(t *testing.T) {
	// Two tracers, identical virtual streams, only host stamping differs:
	// the canonical stream must match byte for byte.
	mk := func(opts ...TracerOption) *Tracer {
		tr := NewTracer(opts...)
		tr.SetEnabled(true)
		tr.Span(0, KindTicket, "fib", 100, 250, 1, 90, 2)
		tr.Instant(ControlLane, KindAutoscale, "fleet-resize", 300, 0, 4, 8)
		return tr
	}
	a, b := mk(Deterministic(true)), mk()
	if !bytes.Equal(a.Marshal(), b.Marshal()) {
		t.Fatalf("Marshal differs on host stamping alone:\n%s\nvs\n%s", a.Marshal(), b.Marshal())
	}
	out := string(a.Marshal())
	for _, want := range []string{"ticket fib v=100..250 id=1 a0=90 a1=2", "autoscale fleet-resize", "# lane -1", "# lane 0"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("Marshal output missing %q:\n%s", want, out)
		}
	}
}

// TestRingStressConcurrentSnapshot is the satellite -race gate: 16
// goroutines hammer distinct and shared lanes (forcing wraps and lane
// growth) while snapshot readers, the interner, and the enable flag all
// churn concurrently.
func TestRingStressConcurrentSnapshot(t *testing.T) {
	tr := NewTracer()
	tr.SetEnabled(true)
	const writers = 16
	const perWriter = 2000
	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			name := fmt.Sprintf("w%d", g%5)
			for i := 0; i < perWriter; i++ {
				lane := g % 8
				if i%7 == 0 {
					lane = ControlLane // shared-lane contention
				}
				tr.Span(lane, KindTicket, name, uint64(i), uint64(i+1), uint64(g), 0, 0)
			}
		}(g)
	}
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tr.Events()
			tr.Marshal()
			tr.Metrics.Snapshot()
			tr.SetEnabled(true)
		}
	}()
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	total := tr.EventCount()
	if want := uint64(writers * perWriter); total != want {
		t.Fatalf("EventCount = %d, want %d (no event may be lost, only ring-dropped)", total, want)
	}
}

func TestChromeTraceValidJSON(t *testing.T) {
	tr := NewTracer(Deterministic(true))
	tr.SetEnabled(true)
	// A ticket span with a flow arrow, an autoscale instant, and a shell
	// event.
	tr.Span(1, KindTicket, "api", 1000, 3000, 7, 500, 2)
	tr.Instant(ControlLane, KindAutoscale, "fleet-resize", 4000, 0, 4, 8)
	tr.Instant(ControlLane, KindShell, "shell-pool", 900, 0, 65536, 0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
	}
	if phases["X"] == 0 || phases["s"] == 0 || phases["f"] == 0 || phases["M"] == 0 || phases["i"] == 0 {
		t.Fatalf("exporter phase coverage incomplete: %v", phases)
	}
}

func TestChromeTraceNilTracer(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer export invalid JSON: %v", err)
	}
}
