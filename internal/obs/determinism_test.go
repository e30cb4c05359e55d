package obs_test

// Virtual-mode trace determinism: the flight recorder's contract is
// that two runs of the same seeded virtual workload record not just the
// same report but the same event stream, byte for byte. This is the
// property that makes a trace from a failed sweep replayable evidence
// rather than an approximation. The test lives in an external package
// because it drives the full stack (cluster simulator → scheduler →
// Wasp), which imports obs.

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/wasp"
)

// runClusterTraced drives the standard seeded mix through a fresh fleet
// with a fresh deterministic tracer and returns the canonical stream.
func runClusterTraced(t *testing.T) ([]byte, *obs.Tracer) {
	t.Helper()
	const F = uint64(cycles.Frequency)
	tr := obs.NewTracer(obs.Deterministic(true))
	tr.SetEnabled(true)
	mix := serverless.ClusterMix(1, 0.5, F/2)
	pol := sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 64}
	if _, err := serverless.RunCluster(wasp.New(wasp.WithTracer(tr)), pol, serverless.ClusterConfig{
		InitialWorkers: 4, Trace: mix,
	}); err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	return tr.Marshal(), tr
}

func TestVirtualTraceDeterminism(t *testing.T) {
	a, _ := runClusterTraced(t)
	b, _ := runClusterTraced(t)
	if len(a) == 0 {
		t.Fatal("traced cluster run recorded nothing")
	}
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		lo, hi := i-80, i+80
		if lo < 0 {
			lo = 0
		}
		clip := func(s []byte) []byte {
			if hi > len(s) {
				return s[lo:]
			}
			return s[lo:hi]
		}
		t.Fatalf("virtual trace streams diverge at byte %d:\n...%s...\nvs\n...%s...",
			i, clip(a), clip(b))
	}
}

// TestClusterTraceCoverage asserts the recorded flight spans the
// lifecycle layers a trace viewer needs: ticket service spans, shell
// provisioning underneath, and the autoscaler's decisions — in the
// recorder and in its Chrome trace_event export.
func TestClusterTraceCoverage(t *testing.T) {
	_, tr := runClusterTraced(t)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, e := range doc.TraceEvents {
		cats[e.Cat] = true
	}
	for _, want := range []string{"ticket", "shell", "autoscale"} {
		if !cats[want] {
			t.Errorf("chrome trace of %d events has no %q category", len(doc.TraceEvents), want)
		}
	}
	got := map[obs.Kind]bool{}
	for _, le := range tr.Events() {
		for _, e := range le.Events {
			got[e.Kind] = true
		}
	}
	for _, want := range []obs.Kind{
		obs.KindSubmit, obs.KindTicket, obs.KindShell,
		obs.KindAutoscale, obs.KindEpoch,
	} {
		if !got[want] {
			t.Errorf("cluster trace missing %v events (have %v)", want, got)
		}
	}
	// Ticket spans carry correlation ids and land on worker lanes.
	var onWorker bool
	for _, le := range tr.Events() {
		if le.Lane < 0 {
			continue
		}
		for _, e := range le.Events {
			if e.Kind == obs.KindTicket && e.ID != 0 && e.VEnd >= e.VStart {
				onWorker = true
			}
		}
	}
	if !onWorker {
		t.Error("no ticket span with a correlation id recorded on any worker lane")
	}
}
