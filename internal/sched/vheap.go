package sched

import "sort"

// This file holds the O(log n) side structures of the virtual core's
// event-driven weighted batch dispatcher (virtualCore.dispatchWeighted)
// and the incremental per-(backend, image) completion records behind
// the admission quota. Every structure obeys the determinism rules in
// internal/sched/README.md: total orders with explicit tie-breaks
// (submission index, (pass, name), (done, worker id)) and no
// map iteration in decision order.

// heapPush, heapDown and heapPop are the binary min-heap primitives the
// dispatcher's heaps share; less must be a total order.
func heapPush[T any](h *[]T, x T, less func(a, b T) bool) {
	s := append(*h, x)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !less(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func heapDown[T any](s []T, i int, less func(a, b T) bool) {
	for {
		l, r, small := 2*i+1, 2*i+2, i
		if l < len(s) && less(s[l], s[small]) {
			small = l
		}
		if r < len(s) && less(s[r], s[small]) {
			small = r
		}
		if small == i {
			return
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
}

func heapPop[T any](h *[]T, less func(a, b T) bool) T {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	var zero T
	s[n] = zero
	*h = s[:n]
	heapDown(s[:n], 0, less)
	return top
}

// imgWindow is one image's backlog inside the decision window: a
// min-heap of batch indices (submission order — the "first submitted
// per image" rule survives out-of-order arrivals) under the image's
// admission state.
type imgWindow struct {
	st     *imageState
	fifo   []int // min-heap of batch indices
	inHeap bool  // member of the pass-ordered image heap
}

func intLess(a, b int) bool { return a < b }

func (iw *imgWindow) push(idx int) { heapPush(&iw.fifo, idx, intLess) }

// popMin removes and returns the lowest batch index.
func (iw *imgWindow) popMin() int { return heapPop(&iw.fifo, intLess) }

// heapify restores the min-heap property after an in-place filter.
func (iw *imgWindow) heapify() {
	for i := len(iw.fifo)/2 - 1; i >= 0; i-- {
		heapDown(iw.fifo, i, intLess)
	}
}

// imgHeap is the pass-ordered image heap: the weighted fair pick pops
// the minimum (pass, name), the winner of a scan over every backlogged
// image. An image is in the heap iff its window backlog is nonempty;
// pop/push maintain the membership flag.
type imgHeap []*imgWindow

func imgLess(a, b *imgWindow) bool {
	if a.st.pass != b.st.pass {
		return a.st.pass < b.st.pass
	}
	return a.st.name < b.st.name
}

func (h *imgHeap) push(iw *imgWindow) {
	iw.inHeap = true
	heapPush((*[]*imgWindow)(h), iw, imgLess)
}

func (h *imgHeap) pop() *imgWindow {
	top := heapPop((*[]*imgWindow)(h), imgLess)
	top.inHeap = false
	return top
}

// quotaRec is one worker's last completed run of an image on a backend
// — the record set behind the virtual per-backend quota. The slice per
// (backend, image) is kept sorted by (done, worker id), so the quota
// query walks at most the in-flight suffix and maintenance is a binary
// search.
type quotaRec struct {
	start, done uint64
	wid         int
}

// quotaRecAdd records worker wid's latest run of img on backend be.
func (c *virtualCore) quotaRecAdd(be int, img string, start, done uint64, wid int) {
	m := c.quotaRecs[be]
	if m == nil {
		m = make(map[string][]quotaRec)
		c.quotaRecs[be] = m
	}
	recs := m[img]
	i := sort.Search(len(recs), func(i int) bool {
		if recs[i].done != done {
			return recs[i].done > done
		}
		return recs[i].wid >= wid
	})
	recs = append(recs, quotaRec{})
	copy(recs[i+1:], recs[i:])
	recs[i] = quotaRec{start: start, done: done, wid: wid}
	m[img] = recs
}

// quotaRecRemove drops worker wid's previous record (located by its old
// (done, wid) key) before the worker's clock moves.
func (c *virtualCore) quotaRecRemove(be int, img string, done uint64, wid int) {
	m := c.quotaRecs[be]
	if m == nil {
		return
	}
	recs := m[img]
	i := sort.Search(len(recs), func(i int) bool {
		if recs[i].done != done {
			return recs[i].done > done
		}
		return recs[i].wid >= wid
	})
	if i < len(recs) && recs[i].done == done && recs[i].wid == wid {
		m[img] = append(recs[:i], recs[i+1:]...)
	}
}

// quotaStart returns the earliest virtual time >= start at which the
// per-backend admission quota admits one more run of img on backend be:
// enough of the same-image runs in flight there at `start` must
// complete first. Each worker's last-run record is exact for "what is
// this worker running at T" — workers serialize — but says nothing
// about dispatches not yet decided, so for out-of-order arrivals the
// quota is a best-effort lower bound rather than a global invariant
// (the same relaxation the global cap's pruned span history accepts).
// Walking the done-sorted records from the largest completion, the
// quota-th qualifying one (started by `start`, completing after it) is
// the completion that brings the in-flight count below the quota; fewer
// than quota qualifying records means the start stands. The candidate
// worker's own record never qualifies — its done equals its clock,
// which is <= start — so no self-exclusion is needed.
func (c *virtualCore) quotaStart(img string, be int, start uint64, quota int) uint64 {
	m := c.quotaRecs[be]
	if m == nil {
		return start
	}
	recs := m[img]
	n := 0
	for i := len(recs) - 1; i >= 0 && recs[i].done > start; i-- {
		if recs[i].start <= start {
			n++
			if n == quota {
				return recs[i].done
			}
		}
	}
	return start
}
