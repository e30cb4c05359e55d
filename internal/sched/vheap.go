package sched

// This file holds the binary min-heap primitives behind the fair pick's
// ready heap (admission.enter/next, ordered by (pass, name)) and the
// virtual core's per-image batch backlogs (submission index). Both obey
// the determinism rules in internal/sched/README.md: total orders with
// explicit tie-breaks and no map iteration in decision order.

// heapPush, heapDown and heapPop are the primitives; less must be a
// total order.
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

// An image's backlog inside the decision window (imageState.backlog) is a
// min-heap of batch indices: submission order, so the "first submitted
// per image" rule survives out-of-order arrivals.

func intLess(a, b int) bool { return a < b }

func (st *imageState) push(idx int) { heapPush(&st.backlog, idx, intLess) }

// popMin removes and returns the lowest batch index.
func (st *imageState) popMin() int { return heapPop(&st.backlog, intLess) }
