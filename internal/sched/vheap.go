package sched

// This file holds the O(log n) side structures of the virtual core's
// event-driven weighted batch dispatcher (virtualCore.dispatchWeighted).
// Every structure obeys the determinism rules in
// internal/sched/README.md: total orders with explicit tie-breaks
// (submission index, (pass, name)) and no map iteration in decision
// order.

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
