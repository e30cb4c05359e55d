package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"repro/internal/cycles"
	"repro/internal/wasp"
)

// TestReadySetMatchesScan drives per-backend ready sets through seeded
// random sequences of insert, remove (a third of them of a set's first
// key) and clock advances between a remove and the reinsert, with
// clocks drawn from a narrow range so they collide. After every step
// each set's min, size and countLE — at just below, at and just above
// every worker's clock, at 0 and at the largest clock, so below and
// above every set and on empty ones — must equal a scan over the fleet.
// Two subtests check search against sort.Search on colliding clocks and
// that pop-min/insert cycles at a fixed size keep the set's array.
func TestReadySetMatchesScan(t *testing.T) {
	const backends = 3
	for _, n := range []int{1, 2, 7, 40, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("w=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				sets := make([]readySet, backends)
				fleet := make([]*worker, n)
				in := make([]bool, n)
				for i := range fleet {
					fleet[i] = &worker{id: i, clk: cycles.NewClock(), beIdx: i % backends}
				}
				for step := range min(2000, 20*n+200) {
					wk := fleet[rng.Intn(n)]
					if k, ok := sets[rng.Intn(backends)].min(); ok && rng.Intn(3) == 0 {
						wk = fleet[k.id] // pop the first key
					}
					if in[wk.id] {
						sets[wk.beIdx].remove(wk)
						in[wk.id] = false
					} else {
						wk.clk.Advance(uint64(rng.Intn(4)) * 10)
						sets[wk.beIdx].insert(wk)
						in[wk.id] = true
					}
					checkReadySets(t, step, sets, fleet, in)
				}
			})
		}
	}
	t.Run("search", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for n := range 40 {
			keys := make([]rkey, n)
			for i := range keys {
				keys[i] = rkey{uint64(rng.Intn(4)), i}
			}
			slices.SortFunc(keys, func(a, b rkey) int { return cmp.Or(cmp.Compare(a.clk, b.clk), cmp.Compare(a.id, b.id)) })
			for clk := range uint64(6) {
				for _, id := range []int{0, 1, n / 2, n - 1, n, math.MaxInt} {
					k := rkey{clk, id}
					want := sort.Search(n, func(i int) bool {
						return keys[i].clk > k.clk || keys[i].clk == k.clk && keys[i].id >= k.id
					})
					if got := search(keys, k); got != want {
						t.Fatalf("n=%d: search(%+v) = %d, sort.Search %d (keys %v)", n, k, got, want, keys)
					}
				}
			}
		}
	})
	for _, n := range []int{1, 2, 7, 160, 256} {
		t.Run(fmt.Sprintf("cycles/n=%d", n), func(t *testing.T) {
			// Dispatch's pattern: pop the earliest-free worker, advance it,
			// reinsert. After a warm-up the array never changes.
			rng := rand.New(rand.NewSource(int64(n)))
			var r readySet
			fleet := make([]*worker, n)
			for i := range fleet {
				fleet[i] = &worker{id: i, clk: cycles.NewClock()}
				fleet[i].clk.Advance(uint64(rng.Intn(100)))
				r.insert(fleet[i])
			}
			cycle := func() {
				k, _ := r.min()
				wk := fleet[k.id]
				r.remove(wk)
				wk.clk.Advance(uint64(rng.Intn(200)))
				r.insert(wk)
			}
			for range 2*n + 2 {
				cycle()
			}
			arr, c := unsafe.SliceData(r.buf), cap(r.buf)
			for i := range 50*n + 100 {
				cycle()
				if unsafe.SliceData(r.buf) != arr || cap(r.buf) != c {
					t.Fatalf("cycle %d at size %d: the set moved to a new array (capacity %d, was %d)", i, n, cap(r.buf), c)
				}
			}
			checkReadySets(t, -1, []readySet{r}, fleet, slices.Repeat([]bool{true}, n))
		})
	}
}

func checkReadySets(t *testing.T, step int, sets []readySet, fleet []*worker, in []bool) {
	t.Helper()
	// Just below, at and just above every worker's clock; colliding
	// clocks make most of these repeats, checked once.
	clk := make([]uint64, len(fleet))
	ats := map[uint64]bool{0: true, math.MaxUint64: true}
	for i, wk := range fleet {
		clk[i] = wk.clk.Now()
		ats[clk[i]-1], ats[clk[i]], ats[clk[i]+1] = true, true, true
	}
	for be, r := range sets {
		size, best := 0, -1
		perClk := map[uint64]int{} // the backend's members per clock value
		for i, wk := range fleet {
			if wk.beIdx != be || !in[i] {
				continue
			}
			size++
			perClk[clk[i]]++
			if best < 0 || clk[i] < clk[best] {
				best = i // ids ascend, so ties keep the lowest
			}
		}
		k, ok := r.min()
		if r.size() != size || ok != (best >= 0) || (ok && (k.id != best || k.clk != clk[best])) {
			t.Fatalf("step %d backend %d: size %d min %+v/%v, scan size %d min worker %d",
				step, be, r.size(), k, ok, size, best)
		}
		for at := range ats {
			want := 0
			for c, n := range perClk {
				if c <= at {
					want += n
				}
			}
			if got := r.countLE(at); got != want {
				t.Fatalf("step %d backend %d: countLE(%d) = %d, scan %d", step, be, at, got, want)
			}
		}
	}
}

// BenchmarkReadySet times virtual dispatch's ready-set work per ticket
// at 160 and 256 workers: pop the earliest-free worker, advance its
// clock by a drawn service time and reinsert it, then count the workers
// free at a drawn time inside the set's clocks.
func BenchmarkReadySet(b *testing.B) {
	for _, n := range []int{160, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var r readySet
			fleet := make([]*worker, n)
			for i := range fleet {
				fleet[i] = &worker{id: i, clk: cycles.NewClock()}
				fleet[i].clk.Advance(uint64(rng.Intn(1000)))
				r.insert(fleet[i])
			}
			draws := make([]uint64, 4096)
			for i := range draws {
				draws[i] = uint64(rng.Intn(1000))
			}
			free := 0
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				k, _ := r.min()
				wk := fleet[k.id]
				r.remove(wk)
				wk.clk.Advance(draws[i&4095])
				r.insert(wk)
				free += r.countLE(k.clk + draws[(i+1)&4095])
			}
			b.ReportMetric(float64(free)/float64(b.N), "free/op")
		})
	}
}

// TestVirtualBatchAllocs pins the virtual core's allocation budget: a
// 10k-ticket weighted batch on a 16-worker fleet allocates the ticket
// slab and the dispatcher's per-batch state, nothing per ticket — at
// most one allocation per ten tickets.
func TestVirtualBatchAllocs(t *testing.T) {
	const n = 10_000
	reqs := benchTrace(n)
	w := wasp.New()
	pol := Admission{Weights: map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}}
	allocs := testing.AllocsPerRun(3, func() {
		s := NewVirtual(w, 16, WithAdmission(pol))
		s.SubmitBatchAt(reqs)
		s.Close()
	})
	t.Logf("%.0f allocations for %d tickets", allocs, n)
	if allocs > n/10 {
		t.Errorf("%.0f allocations for %d tickets, want at most %d", allocs, n, n/10)
	}
}
