package sched

import (
	"repro/internal/lru"
	"repro/internal/stats"
)

// maxTrackedImages bounds the scheduler's per-image placement telemetry.
// Under tenant churn every WithName clone is a distinct image name, so an
// unbounded map leaks one entry per tenant forever; the LRU cap keeps the
// hot working set and ages cold tenants out. Eviction follows note order,
// which virtual mode replays identically — the bound never breaks
// determinism.
const maxTrackedImages = 4096

// imgStat is one image's smoothed placement telemetry: service cycles
// per run and guest entries per run.
type imgStat struct{ svc, entries uint64 }

// imgStats is the LRU-bounded per-image EWMA store the placement layer
// consults (ImageInfo.SvcEWMA / EntriesEWMA). Guarded by the owning
// scheduler's core lock.
type imgStats struct{ lru.Cache[string, imgStat] }

// note folds one completed run into the image's EWMAs, evicting the
// coldest image when the store is full.
func (s *imgStats) note(name string, svc, entries uint64) {
	st, _ := s.Peek(name)
	s.Put(name, imgStat{stats.EWMA(st.svc, svc), stats.EWMA(st.entries, entries)})
}

// get reads the image's EWMAs without touching its LRU position; (0, 0)
// for images never noted (or already evicted).
func (s *imgStats) get(name string) (svc, entries uint64) {
	st, _ := s.Peek(name)
	return st.svc, st.entries
}
