package sched

import (
	"math"
	"math/bits"
	"slices"
)

// readySet is one backend's active workers as pointer-free (clock, id)
// keys, sorted, in buf[head:]; the worker behind a key is s.workers[id].
// The first key is the earliest-free candidate, and "busy at time T" is
// at most one binary search. Removing the first key advances head; an
// insert into a full buf slides the members down over the freed slots
// when those number at least half the members, else moves them to an
// array twice their size, so pop-min/insert cycles at a fixed size keep
// one array.
//
// Determinism (see internal/sched/README.md): (clock, id) never ties
// across distinct workers, so the order is total and a function of the
// members' clocks alone.
type readySet struct {
	buf  []rkey
	head int
}

type rkey struct {
	clk uint64
	id  int
}

// below is 1 when a sorts before b, else 0, with no data-dependent
// branch: the borrow out of the 128-bit (a.clk:a.id) - (b.clk:b.id).
func below(a, b rkey) uint64 {
	_, c := bits.Sub64(uint64(a.id), uint64(b.id), 0)
	_, c = bits.Sub64(a.clk, b.clk, c)
	return c
}

// search returns the index of the first key in keys not less than k: a
// lower bound whose steps mask with below's borrow instead of branching.
func search(keys []rkey, k rkey) int {
	base, n := 0, len(keys)
	for n > 0 {
		half := n >> 1
		m := -int(below(keys[base+half], k)) // all ones: keys[base+half] < k
		base += (half + 1) & m
		n = half + (n-2*half-1)&m
	}
	return base
}

// insert adds wk under its current clock, moving the keys after it.
// The caller must not change wk's clock while it is in the set —
// remove first, reinsert after.
func (r *readySet) insert(wk *worker) {
	k := rkey{wk.clk.Now(), wk.id}
	if live := r.buf[r.head:]; len(r.buf) == cap(r.buf) {
		if 2*r.head < len(live) {
			r.buf = make([]rkey, len(live), 2*len(live)+1)
		}
		r.buf, r.head = r.buf[:copy(r.buf, live)], 0
	}
	i := r.head + search(r.buf[r.head:], k)
	// Not slices.Insert: its variadic argument escapes under -race,
	// which TestVirtualBatchAllocs would count.
	r.buf = append(r.buf, rkey{})
	copy(r.buf[i+1:], r.buf[i:])
	r.buf[i] = k
}

// remove deletes wk, located by its current (clock, id) key: the first
// key with no search.
func (r *readySet) remove(wk *worker) {
	if k := (rkey{wk.clk.Now(), wk.id}); r.buf[r.head] == k {
		r.head++
	} else {
		i := r.head + search(r.buf[r.head:], k)
		r.buf = slices.Delete(r.buf, i, i+1)
	}
}

// size reports the number of members.
func (r *readySet) size() int { return len(r.buf) - r.head }

// min returns the least key; ok is false when the set is empty.
func (r *readySet) min() (k rkey, ok bool) {
	if r.size() == 0 {
		return rkey{}, false
	}
	return r.buf[r.head], true
}

// countLE reports how many workers have clock <= at, from the set's
// ends when at lies outside its clocks.
func (r *readySet) countLE(at uint64) int {
	keys := r.buf[r.head:]
	if len(keys) == 0 || at < keys[0].clk {
		return 0
	}
	if at >= keys[len(keys)-1].clk {
		return len(keys)
	}
	return search(keys, rkey{at, math.MaxInt})
}
