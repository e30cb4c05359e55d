package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/cycles"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// cluster_sim: the scheduler's other half. Virtual mode only: the
// seeded four-tier ClusterMix trace through RunCluster under the
// queue-p99 autoscaler, then the drifting-tenant rebalance mix on a
// three-backend fleet. RunCluster's tickets are cost-model tasks, so
// host time is the event core, the treaps, admission batches, autoscale
// and the migrating placer — almost no guest work.
var clusterSim = &workload{
	name:  "cluster_sim",
	why:   "virtual-mode cluster (event core, treaps, admission batches, autoscale, migrating placement) with almost no guest work: the same sched package as http_pooled through its other half",
	setup: setupClusterSim,
}

const (
	// clusterScale and clusterHorizon size the trace at about 310k
	// tickets; one simulation takes a little over a host second.
	clusterScale   = 60
	clusterHorizon = 24 * cycles.Frequency
	clusterWorkers = 160
	// clusterMinSims is the floor on identical simulations per real pass.
	clusterMinSims = 5
	// The rebalance tail: a KVM + Hyper-V + Paravirt fleet, two workers
	// each, flipping after three consecutive preferences.
	rebalanceHysteresis = 3
	rebalancePerPhase   = 64
)

var rebalanceFleet = []vmm.Platform{vmm.KVM{}, vmm.HyperV{}, vmm.Paravirt{}, vmm.KVM{}, vmm.HyperV{}, vmm.Paravirt{}}

type clusterInstance struct {
	seed  uint64
	sz    sizes
	trace []sched.Request

	first     *serverless.ClusterReport   // the virtual pass's report; every repeat must equal it
	rebalance *serverless.RebalanceReport // likewise for the rebalance tail
	scaleNs   time.Duration               // host time inside the wrapped AutoPolicy
	scaleN    int
}

func setupClusterSim(seed uint64, sz sizes, l *ledger) (instance, error) {
	in := &clusterInstance{seed: seed, sz: sz}
	t0 := time.Now()
	in.trace = serverless.ClusterMix(seed, clusterScale, clusterHorizon/uint64(sz.vscale))
	l.set("serverless.tracegen_ns", float64(time.Since(t0)))
	t0 = time.Now()
	serverless.DriftImage() // the rebalance tail's guest, assembled per run
	l.set("asm.assemble_ns", float64(time.Since(t0)))
	return in, nil
}

// timedPolicy wraps the autoscaling policy hook and times every
// decision.
type timedPolicy struct {
	inner sched.AutoPolicy
	in    *clusterInstance
}

func (p timedPolicy) Name() string { return p.inner.Name() }

func (p timedPolicy) Scale(sig sched.AutoSignal) sched.AutoDecision {
	t0 := time.Now()
	dec := p.inner.Scale(sig)
	p.in.scaleNs += time.Since(t0)
	p.in.scaleN++
	return dec
}

// simulate runs the whole workload once on fresh runtimes: the cluster
// trace, then the rebalance mix. Fresh policy state too — runs must be
// bit-identical.
func (in *clusterInstance) simulate() (*serverless.ClusterReport, *serverless.RebalanceReport, error) {
	const F = cycles.Frequency
	pol := timedPolicy{inner: sched.QueueScale{TargetP99: F / 20, Min: 2, Max: 256}, in: in}
	rep, err := serverless.RunCluster(wasp.New(), pol, serverless.ClusterConfig{InitialWorkers: clusterWorkers, Trace: in.trace})
	if err != nil {
		return nil, nil, err
	}
	w := wasp.New(wasp.WithPlatforms(rebalanceFleet[:3]...))
	rb, err := serverless.RunRebalanceMix(w, "migrating", rebalanceFleet, rebalanceHysteresis, rebalancePerPhase/in.sz.vscale)
	if err != nil {
		return nil, nil, err
	}
	if err := w.VerifyForest(); err != nil {
		return nil, nil, err
	}
	return rep, rb, nil
}

// tickets is the work one simulation completes.
func (in *clusterInstance) tickets() uint64 {
	return uint64(in.first.Tickets-in.first.Rejected) + in.rebalance.Completed
}

func (in *clusterInstance) virtualPass(l *ledger) (vstats, error) {
	rep, rb, err := in.simulate()
	if err != nil {
		return vstats{}, err
	}
	in.first, in.rebalance = rep, rb
	// Every cluster ticket that was not rejected completed; the rebalance
	// mix fails outright on a lost ticket.
	l.count(uint64(rep.Tickets)+rb.Completed, uint64(rep.Rejected))
	return vstats{p50: rep.P50Latency, p99: rep.P99Latency, samples: rep.Tickets - rep.Rejected}, nil
}

// realPass repeats the simulation back to back for the pass's length
// (at least clusterMinSims times). Each repeat is one window: simulated
// tickets per host second; every report must equal the first bit for
// bit.
func (in *clusterInstance) realPass(p pass) (passStats, error) {
	var st passStats
	spans := p.tr.buf(0)
	begin := time.Now()
	budget := time.Duration(p.windows) * p.window
	for i := 0; i < clusterMinSims || time.Since(begin) < budget; i++ {
		s := spans.begin("sched.simulate", uint64(i), -1)
		t0 := time.Now()
		rep, rb, err := in.simulate()
		dt := time.Since(t0)
		spans.end(s)
		if err != nil {
			return st, err
		}
		if !reflect.DeepEqual(rep, in.first) || !reflect.DeepEqual(rb, in.rebalance) {
			return st, fmt.Errorf("cluster_sim: repeat %d is not bit-identical to the first simulation", i)
		}
		st.perWindow = append(st.perWindow, float64(in.tickets())/dt.Seconds())
		if i < clusterMinSims {
			st.heapMB = append(st.heapMB, liveHeapMB())
		}
		st.ops += in.tickets()
		st.units += in.tickets()
	}
	st.rps = sustainedRate(st.perWindow)
	return st, nil
}

// probe times the placement policy directly: the migrating cost-model
// placer over the rebalance fleet's three backends, for images whose
// guest-entry rate drifts the way the rebalance tenant's does.
func (in *clusterInstance) probe(tr *tracer, sz sizes, l *ledger) error {
	spans := tr.buf(probeTid)
	placer := placement.NewMigrating(placement.CostModel{}, rebalanceHysteresis)
	backends := make([]placement.BackendInfo, 3)
	for i := range backends {
		backends[i] = placement.BackendInfo{Platform: rebalanceFleet[i], Workers: 2, SvcEWMA: 60_000}
	}
	place, _ := timeCalls(4*sz.probeOps, func(i int) error {
		img := placement.ImageInfo{Name: fmt.Sprintf("tenant-%02d", i%32), MemBytes: 64 << 10, SvcEWMA: 60_000, EntriesEWMA: uint64(2 + i%150)}
		s := spans.begin("placement.place", uint64(i), -1)
		placer.Place(img, backends)
		spans.end(s)
		return nil
	})
	l.setPct("placement.place_ns_p50", place, 50)
	return nil
}

func (in *clusterInstance) finish(l *ledger) error {
	l.set("sched.rejected", float64(in.first.Rejected))
	l.set("sched.scale_events", float64(in.first.ScaleEvents))
	l.set("sched.sim_ns_per_ticket", ratio(1e9, l.values["host_rps"]))
	l.set("sched.autoscale_ns_per_epoch", ratio(float64(in.scaleNs), float64(in.scaleN)))
	l.set("placement.migrations", float64(in.rebalance.Migrations))
	l.set("placement.delta_migrations", float64(in.rebalance.DeltaMigrations))
	return nil
}
