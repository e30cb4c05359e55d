package sched

import (
	"fmt"

	"repro/internal/obs"
)

// RegisterMetrics attaches this scheduler's telemetry to a metrics
// registry as pull-model collectors: lifetime ticket counters, queue
// depths, per-backend completion totals, cleaner drains and the tickets
// waiters ran on borrowed lanes, sampled at Snapshot time with no
// per-ticket cost. Counters with no accessor of their own
// (sched_queue_depth, sched_cleaner_drains, sched_helped_total) are
// published here only.
func (s *Scheduler) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("sched_submitted", float64(s.Submitted()))
		emit("sched_completed", float64(s.Completed()))
		emit("sched_rejected", float64(s.Rejected()))
		emit("sched_queue_depth", float64(s.depth.Load()))
		emit("sched_queue_depth_peak", float64(s.PeakQueueDepth()))
		emit("sched_workers_active", float64(s.NumWorkers()))
		emit("sched_cleaner_drains", float64(s.cleanerDrains.Load()))
		emit("sched_helped_total", float64(s.helped.Load()))
		for _, bl := range s.BackendLoads() {
			emit(fmt.Sprintf("sched_backend_completed{platform=%s}", bl.Platform), float64(bl.Completed))
			emit(fmt.Sprintf("sched_backend_workers{platform=%s}", bl.Platform), float64(bl.Workers))
		}
	})
}
