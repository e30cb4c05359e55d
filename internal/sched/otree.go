package sched

// otree is an order-statistic treap over workers keyed by (clock, id):
// the virtual dispatcher's ready structure. One tree per backend holds
// that backend's active workers, so the earliest-free candidate is the
// leftmost node and "how many workers are busy at time T" is a rank
// query — both O(log n).
//
// Determinism rules (see internal/sched/README.md): the key comparison
// is total — (clock, id) never ties across distinct workers — and node
// priorities are a pure hash of the worker id, so the tree's shape is a
// function of its membership alone. Same fleet, same clocks, same tree,
// same decisions; no randomness, no map iteration.
type otree struct {
	root *onode
}

type onode struct {
	w    *worker
	prio uint64
	l, r *onode
	sz   int
}

// oprio derives a node's heap priority from the worker id. splitmix64:
// deterministic, well mixed, and independent of insertion order.
func oprio(id int) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// okeyLess orders (clock a, id ai) before (clock b, id bi).
func okeyLess(a uint64, ai int, b uint64, bi int) bool {
	if a != b {
		return a < b
	}
	return ai < bi
}

func osize(n *onode) int {
	if n == nil {
		return 0
	}
	return n.sz
}

func (n *onode) refresh() {
	n.sz = 1 + osize(n.l) + osize(n.r)
}

// osplit partitions n into (< key) and (>= key) subtrees.
func osplit(n *onode, clk uint64, id int) (l, r *onode) {
	if n == nil {
		return nil, nil
	}
	if okeyLess(n.w.clk.Now(), n.w.id, clk, id) {
		n.r, r = osplit(n.r, clk, id)
		n.refresh()
		return n, r
	}
	l, n.l = osplit(n.l, clk, id)
	n.refresh()
	return l, n
}

func omerge(l, r *onode) *onode {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.r = omerge(l.r, r)
		l.refresh()
		return l
	default:
		r.l = omerge(l, r.l)
		r.refresh()
		return r
	}
}

// insert adds wk under its current clock. The caller must not change
// wk's clock while it is in the tree — remove first, reinsert after.
func (t *otree) insert(wk *worker) {
	n := &onode{w: wk, prio: oprio(wk.id), sz: 1}
	l, r := osplit(t.root, wk.clk.Now(), wk.id)
	t.root = omerge(omerge(l, n), r)
}

// remove deletes wk, located by its current (clock, id) key.
func (t *otree) remove(wk *worker) {
	var rec func(n *onode) *onode
	rec = func(n *onode) *onode {
		if n == nil {
			return nil
		}
		if n.w == wk {
			return omerge(n.l, n.r)
		}
		if okeyLess(wk.clk.Now(), wk.id, n.w.clk.Now(), n.w.id) {
			n.l = rec(n.l)
		} else {
			n.r = rec(n.r)
		}
		n.refresh()
		return n
	}
	t.root = rec(t.root)
}

// min returns the worker with the least (clock, id), or nil when empty.
func (t *otree) min() *worker {
	n := t.root
	if n == nil {
		return nil
	}
	for n.l != nil {
		n = n.l
	}
	return n.w
}

// countLE reports how many workers have clock <= at.
func (t *otree) countLE(at uint64) int {
	count := 0
	for n := t.root; n != nil; {
		if n.w.clk.Now() <= at {
			count += 1 + osize(n.l)
			n = n.r
		} else {
			n = n.l
		}
	}
	return count
}

// size reports the tree's population.
func (t *otree) size() int { return osize(t.root) }
