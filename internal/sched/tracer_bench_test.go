package sched

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/wasp"
)

// BenchmarkTracerOverhead prices the flight recorder on the dispatch
// hot path: one 10k-ticket weighted batch through the virtual heap
// core with no tracer, with a tracer attached but disabled (the
// always-on production configuration — the overhead contract holds
// this under 2% of the untraced baseline), and with recording enabled
// (contract: under 10%).
func BenchmarkTracerOverhead(b *testing.B) {
	const n = 10_000
	reqs := benchTrace(n)
	for _, mode := range []struct {
		name string
		mk   func() *obs.Tracer
	}{
		{"none", func() *obs.Tracer { return nil }},
		{"disabled", func() *obs.Tracer { return obs.NewTracer(obs.Deterministic(true)) }},
		{"enabled", func() *obs.Tracer {
			tr := obs.NewTracer(obs.Deterministic(true))
			tr.SetEnabled(true)
			return tr
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			// One long-lived tracer across iterations, as in production:
			// ring buffers are allocated once and wrap thereafter.
			tr := mode.mk()
			for i := 0; i < b.N; i++ {
				s := NewVirtual(wasp.New(wasp.WithTracer(tr)), 16,
					WithAdmission(Admission{Weights: map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}}))
				s.SubmitBatchAt(reqs)
				if s.Makespan() == 0 {
					b.Fatal("empty makespan")
				}
				s.Close()
			}
		})
	}
}
