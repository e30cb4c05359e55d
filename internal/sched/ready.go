package sched

import (
	"math"
	"slices"
)

// readySet is one backend's active workers as (clock, id) keys kept
// sorted: the virtual dispatcher's ready structure. The earliest-free
// candidate is the first key, and "how many workers are busy at time T"
// is one binary search. Keys hold no pointers; the worker behind a key
// is s.workers[id].
//
// Determinism (see internal/sched/README.md): (clock, id) never ties
// across distinct workers, so the order is total and a function of the
// members' clocks alone.
type readySet []rkey

type rkey struct {
	clk uint64
	id  int
}

func (a rkey) less(b rkey) bool {
	return a.clk < b.clk || (a.clk == b.clk && a.id < b.id)
}

// search returns the index of the first key not less than k.
func (r readySet) search(k rkey) int {
	lo, hi := 0, len(r)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r[m].less(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// insert adds wk under its current clock, moving the keys after it.
// The caller must not change wk's clock while it is in the set —
// remove first, reinsert after.
func (r *readySet) insert(wk *worker) {
	k := rkey{wk.clk.Now(), wk.id}
	i := r.search(k)
	// Not slices.Insert: its variadic argument escapes under -race,
	// which TestVirtualBatchAllocs would count.
	*r = append(*r, rkey{})
	copy((*r)[i+1:], (*r)[i:])
	(*r)[i] = k
}

// remove deletes wk, located by its current (clock, id) key. Removing
// the first key — dispatch's usual case — re-slices instead of
// shifting.
func (r *readySet) remove(wk *worker) {
	s := *r
	i := s.search(rkey{wk.clk.Now(), wk.id})
	if i == 0 {
		*r = s[1:]
		return
	}
	*r = slices.Delete(s, i, i+1)
}

// min returns the least key; ok is false when the set is empty.
func (r readySet) min() (k rkey, ok bool) {
	if len(r) == 0 {
		return rkey{}, false
	}
	return r[0], true
}

// countLE reports how many workers have clock <= at.
func (r readySet) countLE(at uint64) int { return r.search(rkey{at, math.MaxInt}) }
