package sched

import "fmt"

// Autoscaling policies for the virtual-mode capacity-planning engine:
// pure, deterministic functions from epoch telemetry to a desired fleet
// width and standby (prewarm) target, applied between epochs with
// SetVirtualWorkers. The signals mirror what the pool-sizing layer
// already consumes through ObserveLoad — queue depth and smoothed
// service cost — plus the SLO-facing queueing percentile a capacity
// planner actually cares about. Policies may keep internal state
// (hysteresis streaks); a fresh instance per run keeps runs
// reproducible.

// AutoSignal is the telemetry snapshot a policy reads at each epoch
// boundary. All times are virtual cycles.
type AutoSignal struct {
	At       uint64  // decision time: the epoch's end
	Epoch    uint64  // epoch length
	Workers  int     // active fleet width during the epoch
	Arrivals int     // tickets that arrived in the epoch
	Backlog  int     // of those, still queued or running at the end
	SvcEWMA  uint64  // smoothed per-ticket service cycles
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

// FixedScale is the no-op policy: a constant width, the baseline every
// frontier sweep compares against.
type FixedScale struct {
	N int
}

func (p FixedScale) Name() string { return fmt.Sprintf("fixed-%d", p.N) }

func (p FixedScale) Scale(AutoSignal) AutoDecision {
	return AutoDecision{Workers: p.N}
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

// UtilScale is rate-based provisioning: the width that serves the
// epoch's observed arrival work at the target utilization,
// ceil(arrivals × svcEWMA / (epoch × target)). Growth applies
// immediately; shrink waits for Patience consecutive epochs of lower
// demand, the hysteresis that keeps heavy-tailed service times from
// flapping the fleet. Standby is the gap to the recent demand peak,
// capped at half the fleet.
type UtilScale struct {
	Target   float64 // e.g. 0.70
	Min, Max int
	Patience int // epochs of lower demand before shrinking (default 2)

	streak int
	peak   int
}

func (p *UtilScale) Name() string { return "util-target" }

func (p *UtilScale) Scale(sig AutoSignal) AutoDecision {
	target := p.Target
	if target <= 0 || target > 1 {
		target = 0.70
	}
	patience := p.Patience
	if patience <= 0 {
		patience = 2
	}
	work := float64(sig.Arrivals) * float64(sig.SvcEWMA)
	needed := int(work/(float64(sig.Epoch)*target)) + 1
	// Backlogged work is demand too: a fleet that fell behind must
	// catch up, not just match the arrival rate.
	if sig.Backlog > 0 {
		needed += (sig.Backlog*int(sig.SvcEWMA)/int(sig.Epoch) + 1)
	}
	needed = clampInt(needed, p.Min, p.Max)
	n := sig.Workers
	if needed > n {
		n = needed
		p.streak = 0
	} else if needed < n {
		p.streak++
		if p.streak >= patience {
			n = needed
			p.streak = 0
		}
	} else {
		p.streak = 0
	}
	if n > p.peak {
		p.peak = n
	}
	standby := p.peak - n
	if standby > n/2 {
		standby = n / 2
	}
	return AutoDecision{Workers: n, Prewarm: standby}
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
