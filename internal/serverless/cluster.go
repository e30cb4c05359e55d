package serverless

import (
	"fmt"
	"sort"

	"repro/internal/cycles"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/wasp"
)

// Cluster-scale capacity planning on the deterministic virtual-time
// scheduler: an epoch-driven simulation loop that feeds a trace through
// the fleet one control interval at a time and lets an autoscaling
// policy resize the virtual fleet — and the pool prewarm target —
// between epochs from the interval's telemetry. Everything is virtual
// cycles, so a sweep over fleet sizes × policies × million-ticket
// traces is bit-reproducible and runs in host seconds: the "millions of
// users without a datacenter" engine the ROADMAP asks for.

// ClusterConfig shapes one simulation run.
type ClusterConfig struct {
	Seed           uint64
	InitialWorkers int
	Epoch          uint64 // control interval in cycles (default: 250 ms)
	SLO            uint64 // end-to-end latency SLO in cycles (default: 50 ms)
	ColdStart      uint64 // boot penalty for growth beyond the prewarmed standby (default: 25 ms)
	Trace          []sched.Request
	// Tracer, when non-nil, records the run's full flight: per-ticket
	// service spans on worker lanes, epoch boundaries, every autoscale
	// decision, and the pool/cleaner events underneath. Construct it
	// with obs.Deterministic(true) to keep the recorded stream
	// bit-identical across runs of the same config.
	Tracer *obs.Tracer
}

// ClusterReport is one run's outcome: the SLO side and the cost side of
// the frontier, plus the fleet trajectory.
type ClusterReport struct {
	Policy         string
	InitialWorkers int
	PeakWorkers    int
	FinalWorkers   int
	ScaleEvents    int
	Epochs         int
	Tickets        int
	Rejected       int
	SLOAttained    float64 // fraction of completed tickets inside the SLO
	P50Latency     uint64  // end-to-end, cycles
	P99Latency     uint64
	Makespan       uint64
	CostWorkerSec  float64 // provisioned capacity: (active+standby) worker-seconds
}

func (r *ClusterReport) String() string {
	ms := func(c uint64) float64 { return float64(c) / float64(cycles.Frequency) * 1e3 }
	return fmt.Sprintf("cluster{%s w0=%d peak=%d tickets=%d slo=%.3f p99=%.2fms cost=%.1fws}",
		r.Policy, r.InitialWorkers, r.PeakWorkers, r.Tickets, r.SLOAttained, ms(r.P99Latency), r.CostWorkerSec)
}

// RunCluster drives one trace through a fresh virtual fleet under one
// autoscaling policy. Per epoch: submit the interval's arrivals as one
// weighted batch (the event-driven dispatcher services them in virtual
// time), fold the interval's queueing/latency/utilization telemetry
// into an AutoSignal, and apply the policy's decision with
// SetVirtualWorkers — growth inside the previous decision's prewarmed
// standby starts warm at the decision time, growth beyond it pays the
// cold-start penalty, and the pool layer sees the standby target via
// Prewarm. Cost accrues as provisioned (active + standby)
// worker-time whether or not the capacity served anything; that is the
// quantity the SLO buys down. Deterministic: same config, same policy
// parameters, bit-identical report.
func RunCluster(w *wasp.Wasp, pol sched.AutoPolicy, cfg ClusterConfig) (*ClusterReport, error) {
	const F = uint64(cycles.Frequency)
	if cfg.Epoch == 0 {
		cfg.Epoch = F / 4
	}
	if cfg.SLO == 0 {
		cfg.SLO = F / 20
	}
	if cfg.ColdStart == 0 {
		cfg.ColdStart = F / 40
	}
	if cfg.InitialWorkers < 1 {
		cfg.InitialWorkers = 1
	}
	trace := cfg.Trace
	if len(trace) == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	opts := []sched.Option{
		sched.WithAdmission(sched.Admission{
			Weights: map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1},
		}),
	}
	tr := cfg.Tracer
	if tr != nil {
		opts = append(opts, sched.WithTracer(tr))
		w.SetTracer(tr)
	}
	s := sched.NewVirtual(w, cfg.InitialWorkers, opts...)
	defer s.Close()

	rep := &ClusterReport{
		Policy:         pol.Name(),
		InitialWorkers: cfg.InitialWorkers,
		PeakWorkers:    cfg.InitialWorkers,
		Tickets:        len(trace),
	}
	var (
		latencies []uint64
		inSLO     int
		svcEWMA   uint64
		standby   int
		idx       int
	)
	for epoch := uint64(0); idx < len(trace); epoch++ {
		end := (epoch + 1) * cfg.Epoch
		lo := idx
		for idx < len(trace) && trace[idx].Arrival < end {
			idx++
		}
		chunk := trace[lo:idx]
		width := s.NumWorkers()
		rep.CostWorkerSec += float64(uint64(width+standby)*cfg.Epoch) / float64(F)
		var (
			queueDelays []uint64
			served      uint64
			backlog     int
		)
		if len(chunk) > 0 {
			tickets := s.SubmitBatchAt(chunk)
			for _, t := range tickets {
				if _, err := t.Wait(); err != nil {
					rep.Rejected++
					continue
				}
				lat := t.Done - t.Arrival
				latencies = append(latencies, lat)
				if lat <= cfg.SLO {
					inSLO++
				}
				queueDelays = append(queueDelays, t.QueueCycles())
				svc := t.ServiceCycles()
				served += svc
				if svcEWMA == 0 {
					svcEWMA = svc
				} else {
					svcEWMA += (svc - svcEWMA) / 8
				}
				if t.Done > end {
					backlog++
				}
			}
		}
		sig := sched.AutoSignal{
			At:       end,
			Epoch:    cfg.Epoch,
			Workers:  width,
			Arrivals: len(chunk),
			Backlog:  backlog,
			SvcEWMA:  svcEWMA,
			QueueP99: percentileU64(queueDelays, 0.99),
			Util:     float64(served) / float64(uint64(width)*cfg.Epoch),
		}
		dec := pol.Scale(sig)
		if dec.Workers < 1 {
			dec.Workers = 1
		}
		if tr.Enabled() {
			tr.Span(obs.ControlLane, obs.KindEpoch, "epoch", epoch*cfg.Epoch, end,
				epoch+1, uint64(len(chunk)), uint64(width))
			tr.Instant(obs.ControlLane, obs.KindAutoscale, "autoscale-decision", end,
				uint64(dec.Prewarm), uint64(width), uint64(dec.Workers))
		}
		if dec.Workers != width {
			rep.ScaleEvents++
			if growth := dec.Workers - width; growth > 0 {
				warm := growth
				if warm > standby {
					warm = standby
				}
				if warm > 0 {
					s.SetVirtualWorkers(width+warm, end)
				}
				if growth > warm {
					// Beyond the prewarmed standby, new capacity boots cold.
					s.SetVirtualWorkers(dec.Workers, end+cfg.ColdStart)
				}
			} else {
				s.SetVirtualWorkers(dec.Workers, end)
			}
		}
		standby = dec.Prewarm
		if standby > 0 {
			// Surface the standby target to the pool layer too: warm
			// shells ahead of the width the policy expects to need.
			w.Prewarm(64<<10, standby)
		}
		if n := s.NumWorkers(); n > rep.PeakWorkers {
			rep.PeakWorkers = n
		}
		rep.Epochs++
	}
	rep.FinalWorkers = s.NumWorkers()
	rep.Makespan = s.Makespan()
	if n := len(latencies); n > 0 {
		rep.SLOAttained = float64(inSLO) / float64(n)
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		rep.P50Latency = latencies[n/2]
		rep.P99Latency = percentileSortedU64(latencies, 0.99)
	}
	return rep, nil
}

// percentileU64 is the pth percentile of an unsorted sample (copied,
// so the caller's slice is untouched); 0 for an empty sample.
func percentileU64(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]uint64(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return percentileSortedU64(cp, p)
}

func percentileSortedU64(xs []uint64, p float64) uint64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(float64(len(xs)-1) * p)
	return xs[i]
}
