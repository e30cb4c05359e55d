package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cycles"
	"repro/internal/wasp"
)

// TestReadySetMatchesScan drives per-backend ready sets through seeded
// random sequences of insert, remove, and clock advances between a
// remove and the reinsert, with clocks drawn from a narrow range so
// they collide. After every step each set's min, size and countLE —
// at just below, at and just above every worker's clock — must equal a
// scan over the fleet.
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
}

func checkReadySets(t *testing.T, step int, sets []readySet, fleet []*worker, in []bool) {
	t.Helper()
	// Just below, at and just above every worker's clock; colliding
	// clocks make most of these repeats, checked once.
	clk := make([]uint64, len(fleet))
	ats := map[uint64]bool{}
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
		if len(r) != size || ok != (best >= 0) || (ok && (k.id != best || k.clk != clk[best])) {
			t.Fatalf("step %d backend %d: size %d min %+v/%v, scan size %d min worker %d",
				step, be, len(r), k, ok, size, best)
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

// TestVirtualBatchAllocs pins the virtual core's allocation budget: a
// 10k-ticket weighted batch on a 16-worker fleet allocates the ticket
// slab and the dispatcher's per-batch state, nothing per ticket — at
// most one allocation per ten tickets — with weights alone and under
// either flavour of hard cap.
func TestVirtualBatchAllocs(t *testing.T) {
	const n = 10_000
	reqs := benchTrace(n)
	w := wasp.New()
	weights := map[string]int{"api": 3, "web": 2, "spike": 2, "batch": 1}
	for _, c := range []struct {
		name string
		pol  Admission
	}{
		{"weights", Admission{Weights: weights}},
		{"defer", Admission{Weights: weights, MaxInFlight: 4}},
		{"reject", Admission{Weights: weights, MaxInFlight: 4, RejectOverflow: true}},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			s := NewVirtual(w, 16, WithAdmission(c.pol))
			s.SubmitBatchAt(reqs)
			s.Close()
		})
		t.Logf("%s: %.0f allocations for %d tickets", c.name, allocs, n)
		if allocs > n/10 {
			t.Errorf("%s: %.0f allocations for %d tickets, want at most %d", c.name, allocs, n, n/10)
		}
	}
}
