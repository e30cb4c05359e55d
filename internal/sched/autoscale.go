package sched

// Autoscaling policies for the virtual-mode capacity-planning engine:
// pure, deterministic functions from epoch telemetry to a desired fleet
// width and standby (prewarm) target, applied between epochs with
// SetVirtualWorkers. The signals are the fleet's utilization and the
// SLO-facing queueing percentile a capacity planner actually cares
// about.

// AutoSignal is the telemetry snapshot a policy reads at each epoch
// boundary. Times are virtual cycles.
type AutoSignal struct {
	Workers  int     // active fleet width during the epoch
	QueueP99 uint64  // p99 queueing delay among the epoch's arrivals
	Util     float64 // served cycles / (workers × epoch), may exceed 1 under backlog
}

// AutoDecision is a policy's output for the next epoch. Workers is the
// active width; Prewarm is the standby capacity to keep booted ahead of
// demand — growth within the standby pool starts warm at the decision
// time, growth beyond it pays the cold-start penalty. Standby capacity
// is provisioned (it appears in the cost accounting) but serves nothing
// until a later decision activates it.
type AutoDecision struct {
	Workers int
	Prewarm int
}

// AutoPolicy maps epoch telemetry to the next epoch's fleet shape.
type AutoPolicy interface {
	Name() string
	Scale(sig AutoSignal) AutoDecision
}

// QueueScale reacts to the queueing SLO directly: when the epoch's p99
// queueing delay exceeds the target it grows multiplicatively (×3/2,
// the classic fast-attack slope), and when the fleet is both quiet
// (p99 under a quarter of target) and idle (utilization under 40%) it
// decays by a quarter — slow release, so one calm epoch inside a
// diurnal trough does not flap the fleet. It keeps a quarter of the
// fleet as prewarmed standby, buying warm starts for the next attack.
type QueueScale struct {
	TargetP99 uint64 // queueing-delay SLO in cycles
	Min, Max  int
}

func (p QueueScale) Name() string { return "queue-p99" }

func (p QueueScale) Scale(sig AutoSignal) AutoDecision {
	n := sig.Workers
	switch {
	case sig.QueueP99 > p.TargetP99:
		n = n + n/2 + 1
	case sig.QueueP99 < p.TargetP99/4 && sig.Util < 0.40:
		n = n - n/4
	}
	n = clampInt(n, p.Min, p.Max)
	return AutoDecision{Workers: n, Prewarm: (n + 3) / 4}
}

func clampInt(n, lo, hi int) int {
	if lo > 0 && n < lo {
		n = lo
	}
	if hi > 0 && n > hi {
		n = hi
	}
	return n
}
