// Command tenants demonstrates the scheduler's multi-tenant dispatch
// layer: batched submission (SubmitBatchAt — one lock, one ticket slab,
// one wake per burst) and per-image admission control (WithAdmission).
// One hot tenant floods the node while two quiet tenants trickle small
// requests; plain FIFO lets the flood starve them, the weighted
// per-image queues do not.
package main

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/httpd"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/wasp"
)

// burst builds one tenant's arrival trace: n requests of svc cycles
// each, every gap cycles.
func burst(tenant string, n int, gap, svc uint64) []sched.Request {
	reqs := make([]sched.Request, n)
	for i := range reqs {
		cost := svc
		reqs[i] = sched.Request{
			Arrival: uint64(i) * gap,
			Image:   tenant,
			Fn: func(clk *cycles.Clock) (*wasp.Result, error) {
				clk.Advance(cost)
				return nil, nil
			},
		}
	}
	return reqs
}

func queueP99(tickets []*sched.Ticket, image string) float64 {
	var q []float64
	for _, t := range tickets {
		if t.Image == image {
			q = append(q, float64(t.QueueCycles()))
		}
	}
	return cycles.Millis(uint64(stats.Percentile(q, 99)))
}

func main() {
	trace := append(burst("hot", 96, 1, 8_000_000), // ~3 ms each, all at once
		append(burst("quiet-a", 8, 40_000_000, 500_000),
			burst("quiet-b", 8, 40_000_000, 500_000)...)...)

	fmt.Println("-- FIFO baseline vs weighted per-image queues (virtual time) --")
	for _, cfg := range []struct {
		name string
		opts []sched.Option
	}{
		{"fifo    ", nil},
		{"weighted", []sched.Option{sched.WithAdmission(sched.Admission{})}},
	} {
		s := sched.NewVirtual(wasp.New(), 4, cfg.opts...)
		tickets := s.SubmitBatchAt(append([]sched.Request(nil), trace...))
		if err := sched.WaitAll(tickets...); err != nil {
			panic(err)
		}
		fmt.Printf("%s  p99 queue: hot %7.2f ms   quiet-a %7.2f ms   quiet-b %7.2f ms\n",
			cfg.name, queueP99(tickets, "hot"),
			queueP99(tickets, "quiet-a"), queueP99(tickets, "quiet-b"))
		// The admission layer's per-image telemetry (none under FIFO).
		for _, image := range s.AdmissionImages() {
			st, _ := s.AdmissionStats(image)
			fmt.Printf("  %-8s weight %d   submitted %3d   completed %3d   mean queue %7.2f ms   svc-ewma %d cy\n",
				image, st.Weight, st.Submitted, st.Completed,
				cycles.Millis(st.QueueCycleSum/st.Completed), st.SvcEWMA)
		}
		s.Close()
	}

	fmt.Println("\n-- httpd.ServeTenants: per-tenant virtine images over one weighted scheduler --")
	w := wasp.New()
	srv, err := httpd.NewFileServer(w, map[string][]byte{
		"/index.html": []byte("<html>tenant isolation</html>"),
	})
	if err != nil {
		panic(err)
	}
	srv.Snapshot = true
	tenants := map[string][][]byte{}
	for i := 0; i < 24; i++ {
		tenants["hot"] = append(tenants["hot"], httpd.Request("/index.html"))
	}
	for _, name := range []string{"quiet-a", "quiet-b"} {
		for i := 0; i < 3; i++ {
			tenants[name] = append(tenants[name], httpd.Request("/index.html"))
		}
	}
	out, err := srv.ServeTenants(tenants, 4, &sched.Admission{})
	if err != nil {
		panic(err)
	}
	for _, name := range []string{"hot", "quiet-a", "quiet-b"} {
		ok := 0
		for _, resp := range out[name] {
			if resp != nil && resp.Status == 200 {
				ok++
			}
		}
		fmt.Printf("%-8s %2d/%2d responses 200 OK\n", name, ok, len(out[name]))
	}
}
