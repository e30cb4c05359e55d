package sched

import (
	"fmt"

	"repro/internal/obs"
)

// ImageStat is a snapshot-consistent copy of one image's placement
// telemetry: its smoothed service cycles and guest entries per run.
type ImageStat struct {
	SvcEWMA     uint64
	EntriesEWMA uint64
}

// ImageTelemetry reads one image's placement EWMAs under the core
// lock, so concurrent readers can never observe a torn
// svc/entries pair mid-update (note writes the two fields back to
// back; an unlocked reader could see one new and one old). The second
// return is false when no placer is attached or the image has never
// been noted (or was LRU-evicted). Unlike the internal get, this read
// is safe from any goroutine at any time, in both modes.
func (s *Scheduler) ImageTelemetry(image string) (ImageStat, bool) {
	if s.imgStats == nil {
		return ImageStat{}, false
	}
	s.core.Lock()
	defer s.core.Unlock()
	if _, ok := s.imgStats.m[image]; !ok {
		return ImageStat{}, false
	}
	svc, entries := s.imgStats.get(image)
	return ImageStat{SvcEWMA: svc, EntriesEWMA: entries}, true
}

// TrackedImages reports how many images the placement telemetry store
// currently holds (bounded by the LRU cap), under the core lock.
func (s *Scheduler) TrackedImages() int {
	if s.imgStats == nil {
		return 0
	}
	s.core.Lock()
	defer s.core.Unlock()
	return s.imgStats.size()
}

// RegisterMetrics attaches this scheduler's telemetry to a metrics
// registry as pull-model collectors: lifetime ticket counters, queue
// depths, per-backend completion totals, and cleaner drains, sampled
// at Snapshot time with no per-ticket cost. The individual accessors
// (Submitted, QueueDepth, BackendLoads, ...) remain supported; the
// registry is the aggregation point new tooling should prefer.
func (s *Scheduler) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("sched_submitted", float64(s.Submitted()))
		emit("sched_completed", float64(s.Completed()))
		emit("sched_rejected", float64(s.Rejected()))
		emit("sched_queue_depth", float64(s.QueueDepth()))
		emit("sched_queue_depth_peak", float64(s.PeakQueueDepth()))
		emit("sched_workers_active", float64(s.NumWorkers()))
		emit("sched_cleaner_drains", float64(s.CleanerDrains()))
		emit("sched_helped_total", float64(s.HelpedRuns()))
		for _, bl := range s.BackendLoads() {
			emit(fmt.Sprintf("sched_backend_completed{platform=%s}", bl.Platform), float64(bl.Completed))
			emit(fmt.Sprintf("sched_backend_workers{platform=%s}", bl.Platform), float64(bl.Workers))
		}
	})
}
