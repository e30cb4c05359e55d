package sched

import (
	"container/list"

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
type imgStat struct {
	name    string
	svc     uint64
	entries uint64
}

// imgStats is the LRU-bounded per-image EWMA store the placement layer
// consults (ImageInfo.SvcEWMA / EntriesEWMA). Guarded by the owning
// scheduler's core lock.
type imgStats struct {
	limit int
	m     map[string]*list.Element
	lru   *list.List // *imgStat, front = most recently noted
}

func newImgStats(limit int) *imgStats {
	if limit <= 0 {
		limit = maxTrackedImages
	}
	return &imgStats{limit: limit, m: make(map[string]*list.Element), lru: list.New()}
}

// note folds one completed run into the image's EWMAs, evicting the
// coldest image when the store is full.
func (s *imgStats) note(name string, svc, entries uint64) {
	if e, ok := s.m[name]; ok {
		st := e.Value.(*imgStat)
		st.svc = stats.EWMA(st.svc, svc)
		st.entries = stats.EWMA(st.entries, entries)
		s.lru.MoveToFront(e)
		return
	}
	for s.lru.Len() >= s.limit {
		old := s.lru.Back()
		s.lru.Remove(old)
		delete(s.m, old.Value.(*imgStat).name)
	}
	s.m[name] = s.lru.PushFront(&imgStat{name: name, svc: svc, entries: entries})
}

// get reads the image's EWMAs without touching its LRU position; (0, 0)
// for images never noted (or already evicted).
func (s *imgStats) get(name string) (svc, entries uint64) {
	if e, ok := s.m[name]; ok {
		st := e.Value.(*imgStat)
		return st.svc, st.entries
	}
	return 0, 0
}
