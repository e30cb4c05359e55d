package bench

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/cycles"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/wasp"
)

// Cluster is the cluster-scale autoscaling frontier: the standard
// four-tier trace mix (steady API, diurnal web, heavy-tailed batch,
// flash-crowd spikes) swept across fixed fleet widths and the two
// elastic policies, reporting each configuration's SLO attainment
// against its provisioned cost — the frontier a capacity planner walks.
// Two structural rows ride along: a scaling row that pushes the O(log n)
// event core to a 1024-worker fleet serving a million tickets, and a
// batch row that times one overloaded weighted batch through the
// dispatcher and fails the run unless its makespan matches the pinned
// value.
//
// Every simulated configuration runs twice on fresh fleets and the
// runner fails unless the reports are bit-identical — the determinism
// gate is part of the experiment.
//
// -trials scales the trace (-trials 1 is the CI smoke: a lighter mix,
// 100k scaling tickets, 10k batch tickets; -trials >= 2 is the
// committed run with the full 1M/100k rows).
func Cluster(trials int) (*Table, error) {
	const F = uint64(cycles.Frequency)
	scale := clampTrials(trials, 1, 4)
	horizon := 2 * F
	mix := serverless.ClusterMix(1, float64(scale), horizon)

	t := &Table{
		ID:    "cluster",
		Title: "Cluster autoscaling frontier: SLO vs provisioned cost (virtual fleet)",
		Header: []string{"policy", "w0", "peak", "tickets", "rejected", "slo",
			"p50-ms", "p99-ms", "makespan-ms", "cost-ws", "scale-events", "host-ms"},
	}

	configs := []struct {
		w0  int
		pol func() sched.AutoPolicy
	}{
		{4, func() sched.AutoPolicy { return sched.FixedScale{N: 4} }},
		{16, func() sched.AutoPolicy { return sched.FixedScale{N: 16} }},
		{64, func() sched.AutoPolicy { return sched.FixedScale{N: 64} }},
		{4, func() sched.AutoPolicy { return sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 256} }},
		{4, func() sched.AutoPolicy { return &sched.UtilScale{Target: 0.5, Min: 2, Max: 256, Patience: 2} }},
	}

	// runTwice is the determinism gate: every configuration is simulated
	// on two fresh fleets (fresh policy state too — UtilScale carries a
	// hysteresis streak) and must reproduce bit for bit.
	runTwice := func(pol func() sched.AutoPolicy, cfg serverless.ClusterConfig) (*serverless.ClusterReport, float64, error) {
		t0 := time.Now()
		a, err := serverless.RunCluster(wasp.New(), pol(), cfg)
		if err != nil {
			return nil, 0, err
		}
		hostMs := float64(time.Since(t0)) / float64(time.Millisecond)
		b, err := serverless.RunCluster(wasp.New(), pol(), cfg)
		if err != nil {
			return nil, 0, err
		}
		if !reflect.DeepEqual(a, b) {
			return nil, 0, fmt.Errorf("cluster %s/w0=%d: report not bit-identical across two runs", a.Policy, cfg.InitialWorkers)
		}
		return a, hostMs, nil
	}

	ms := cycles.Millis
	addRow := func(rep *serverless.ClusterReport, hostMs float64) {
		t.AddRow(rep.Policy, di(rep.InitialWorkers), di(rep.PeakWorkers),
			di(rep.Tickets), di(rep.Rejected), f2(rep.SLOAttained),
			f2(ms(rep.P50Latency)), f2(ms(rep.P99Latency)), f1(ms(rep.Makespan)),
			f1(rep.CostWorkerSec), di(rep.ScaleEvents), f1(hostMs))
	}

	var fixed64, elastic *serverless.ClusterReport
	for _, c := range configs {
		rep, hostMs, err := runTwice(c.pol, serverless.ClusterConfig{
			Seed: 1, InitialWorkers: c.w0, Trace: mix, Tracer: globalTracer,
		})
		if err != nil {
			return nil, err
		}
		addRow(rep, hostMs)
		switch rep.Policy {
		case "fixed-64":
			fixed64 = rep
		case "queue-p99":
			elastic = rep
		}
	}
	if elastic.PeakWorkers <= elastic.InitialWorkers {
		return nil, fmt.Errorf("cluster: queue-p99 never scaled past %d workers", elastic.InitialWorkers)
	}
	if elastic.CostWorkerSec >= fixed64.CostWorkerSec {
		return nil, fmt.Errorf("cluster: elastic cost %.1f ws should undercut the fixed-64 fleet's %.1f ws",
			elastic.CostWorkerSec, fixed64.CostWorkerSec)
	}

	// Scaling row: a 1024-worker fleet through a million dense tickets
	// (100k in the CI smoke). The point is host wall time: the O(log n)
	// core keeps the decision cost flat while fleet and trace grow three
	// orders past the frontier sweep.
	bigN, bigW := 1_000_000, 1024
	if trials < 2 {
		bigN = 100_000
	}
	bigTrace := serverless.UniformTrace(2, "api", bigN, F/800_000, serverless.ServiceProfile{Base: F / 1000, Spread: 0.5})
	bigRep, bigHost, err := runTwice(
		func() sched.AutoPolicy { return sched.FixedScale{N: bigW} },
		// The scaling row runs untraced even under -trace: a 1024-lane
		// flight recorder is ~70 MB of rings, and holding that live
		// poisons the timing of everything after it. The frontier sweep
		// above already records every event kind the trace needs.
		serverless.ClusterConfig{InitialWorkers: bigW, Trace: bigTrace})
	if err != nil {
		return nil, err
	}
	addRow(bigRep, bigHost)
	if bigRep.Tickets != bigN || bigRep.Rejected != 0 {
		return nil, fmt.Errorf("cluster scaling row dropped tickets: %d of %d served", bigRep.Tickets-bigRep.Rejected, bigN)
	}

	// Batch row: one overloaded weighted batch straight through the
	// dispatcher, wall time on this host. The makespan is pinned to the
	// value the heap core and the linear reference both produced when
	// the reference became test-only (their speed ratio is
	// BenchmarkVirtualDispatch's job in internal/sched).
	spdN, wantMk := 100_000, uint64(2500020804)
	if trials < 2 {
		spdN, wantMk = 10_000, 250013812
	}
	batch := serverless.UniformTrace(3, "api", spdN, 25_000, serverless.ServiceProfile{Base: 30_000, Spread: 1.0})
	s := sched.NewVirtual(wasp.New(), 16, sched.WithAdmission(
		sched.Admission{Weights: map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}}))
	t0 := time.Now()
	s.SubmitBatchAt(batch)
	heapMs := float64(time.Since(t0)) / float64(time.Millisecond)
	heapMk := s.Makespan()
	s.Close()
	if heapMk != wantMk {
		return nil, fmt.Errorf("cluster batch row: makespan %d drifted from the pinned %d", heapMk, wantMk)
	}
	t.AddRow("heap-batch", di(16), di(16), di(spdN), di(0), "", "", "",
		f1(ms(heapMk)), "", di(0), f1(heapMs))

	t.Note("mix: %s over %.1f virtual s; SLO %.0f ms, epoch %.0f ms, cold start %.1f ms",
		serverless.TraceImages(mix), float64(horizon)/float64(F), ms(F/20), ms(F/4), ms(F/40))
	t.Note("every simulated row ran twice on fresh fleets and is asserted bit-identical before printing")
	t.Note("scaling row: %d workers x %d tickets in %.0f ms host time (%s)", bigW, bigN, bigHost, bigRep.String())
	t.Note("batch row: one %d-ticket weighted batch in %.1f ms host time, makespan pinned", spdN, heapMs)
	return t, nil
}
