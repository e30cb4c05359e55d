package sched

import (
	"fmt"
	"testing"

	"repro/internal/wasp"
)

// benchTrace draws a dense four-image weighted batch: arrivals collide
// on a lattice spanning roughly the batch's own service demand, so the
// dispatcher runs with a persistent backlog — the regime where the
// per-step work of the two cores actually differs.
func benchTrace(n int) []Request {
	images := [...]string{"api", "web", "batch", "spike"}
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	reqs := make([]Request, n)
	for i := range reqs {
		r := next()
		reqs[i] = Request{
			Arrival: (r >> 2) % uint64(n) * 1000,
			Image:   images[r%4],
			Fn:      costTask(1000 + (r>>32)%50_000),
		}
	}
	return reqs
}

// BenchmarkVirtualDispatch measures one weighted batch dispatch through
// the O(log n) heap core and the linear reference at 1k/10k/100k
// tickets on a 16-worker virtual fleet. The linear core is O(n²) in
// batch size; its 100k point exists to demonstrate exactly that, so
// expect it to dominate the run (use -bench 'VirtualDispatch/heap' to
// skip it).
func BenchmarkVirtualDispatch(b *testing.B) {
	for _, mode := range []struct {
		name   string
		linear bool
	}{{"heap", false}, {"linear", true}} {
		for _, n := range []int{1_000, 10_000, 100_000} {
			reqs := benchTrace(n)
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s := virtualOn(mode.linear)(wasp.New(), 16,
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
}
