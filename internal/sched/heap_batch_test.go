package sched_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/wasp"
)

// TestHeapBatchMakespan pins one overloaded weighted batch through a
// 16-worker virtual fleet: a uniform api trace (seed 3, a ticket every
// 25k cycles, 30k-cycle service with spread 1) under the cluster mix's
// admission weights, at 10k and 100k tickets. The makespans are the
// ones the heap core and the linear reference both produced when the
// reference became test-only; the two cores' speed is
// BenchmarkVirtualDispatch's job.
func TestHeapBatchMakespan(t *testing.T) {
	for tickets, want := range map[int]uint64{10_000: 250_013_812, 100_000: 2_500_020_804} {
		rng, svc := serverless.NewTraceRNG(3), serverless.ServiceProfile{Base: 30_000, Spread: 1.0}
		batch := make([]sched.Request, tickets)
		for i := range batch {
			batch[i] = sched.Request{Arrival: uint64(i) * 25_000, Image: "api", Cost: svc.Draw(rng)}
		}
		s := sched.NewVirtual(wasp.New(), 16, sched.WithAdmission(
			sched.Admission{Weights: map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}}))
		s.SubmitBatchAt(batch)
		got := s.Makespan()
		s.Close()
		if got != want {
			t.Errorf("%d tickets: makespan %d drifted from the pinned %d", tickets, got, want)
		}
	}
}
