package serverless

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/wasp"
)

// The virtual core against queueing theory: an oracle independent of
// the dispatch code. Cost tickets (sched.Request.Cost) with Poisson
// arrivals and exponential service on a fixed virtual fleet are an
// M/M/c queue; dispatched first come, first served they must wait what
// Erlang C says, and under admission weights the overall wait must
// still obey Kleinrock's conservation law. Every run is seeded, so a
// band below is a tolerance on sampling error, not on host noise.

// queueSvc is the mean service time of the queueing tests, in cycles.
const queueSvc = 100_000

// mmcTrace draws n Poisson arrivals at utilization rho on c servers, each
// with an exponential service draw, cycling through images.
func mmcTrace(seed uint64, n, c int, rho float64, images ...string) []sched.Request {
	rng := NewTraceRNG(seed)
	gap := queueSvc / (rho * float64(c))
	reqs := make([]sched.Request, n)
	at := 0.0
	for i := range reqs {
		at += rng.Exp(gap)
		reqs[i] = sched.Request{Arrival: uint64(at), Image: images[i%len(images)], Cost: 1 + uint64(rng.Exp(queueSvc))}
	}
	return reqs
}

// erlangCWait is the M/M/c mean queueing delay: the Erlang C
// probability of waiting over the rate at which the backlog drains.
func erlangCWait(c int, rho float64) float64 {
	a := rho * float64(c) // offered load in Erlangs
	term, sum := 1.0, 0.0
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	tail := term / (1 - rho)
	return tail / (sum + tail) * queueSvc / (float64(c) * (1 - rho))
}

// meanWaits runs reqs through a c-worker virtual scheduler and returns
// the mean queueing delay over all tickets and per image, dropping the
// first tenth of the trace as warm-up.
func meanWaits(t *testing.T, reqs []sched.Request, c int, opts ...sched.Option) (all float64, byImage map[string]float64) {
	t.Helper()
	s := sched.NewVirtual(wasp.New(), c, opts...)
	defer s.Close()
	tks := s.SubmitBatchAt(reqs)
	sum, n := 0.0, 0
	sums, ns := map[string]float64{}, map[string]int{}
	for _, tk := range tks[len(tks)/10:] {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
		w := float64(tk.QueueCycles())
		sum, n = sum+w, n+1
		sums[tk.Image] += w
		ns[tk.Image]++
	}
	byImage = map[string]float64{}
	for img, s := range sums {
		byImage[img] = s / float64(ns[img])
	}
	return sum / float64(n), byImage
}

// TestErlangC: first come, first served on c workers, the mean wait of
// 400k tickets sits within a band of Erlang C's. The band widens with
// load, where the wait's sampling error grows: over seeds 1–12 the
// ratio read 0.975–1.036 at rho 0.5 and 0.927–1.072 at rho 0.9.
func TestErlangC(t *testing.T) {
	cases := []struct {
		c    int
		rho  float64
		band float64
	}{
		{1, 0.5, 0.05},
		{1, 0.9, 0.10},
		{4, 0.5, 0.05},
		{4, 0.9, 0.10},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("c%d/rho%.1f", tc.c, tc.rho), func(t *testing.T) {
			got, _ := meanWaits(t, mmcTrace(1, 400_000, tc.c, tc.rho, "mmc"), tc.c)
			want := erlangCWait(tc.c, tc.rho)
			t.Logf("mean wait %.0f cycles, Erlang C %.0f (ratio %.3f)", got, want, got/want)
			if math.Abs(got/want-1) > tc.band {
				t.Fatalf("mean wait %.0f cycles is %.3f of Erlang C's %.0f, outside ±%.0f%%", got, got/want, want, 100*tc.band)
			}
		})
	}
}

// TestKleinrockConservation: three images at equal arrival rates under
// Admission.Weights 4:2:1 through SubmitBatchAt (the weighted fair pick
// of the virtual batch dispatcher). The pick is work-conserving, never
// preempts and never looks at the ticket's own service time, and every
// image shares one service distribution, so the conservation law pins
// the count-weighted mean wait to first come, first served's on the same
// trace (over seeds 1–10 the ratio read 0.996–1.008); the weights only
// split it, heaviest weight waiting least.
func TestKleinrockConservation(t *testing.T) {
	const c, rho = 4, 0.9
	images := []string{"w4", "w2", "w1"}
	reqs := mmcTrace(2, 200_000, c, rho, images...)
	fifo, _ := meanWaits(t, reqs, c)
	adm := sched.Admission{Weights: map[string]int{"w4": 4, "w2": 2, "w1": 1}}
	weighted, by := meanWaits(t, reqs, c, sched.WithAdmission(adm))
	t.Logf("FIFO %.0f, weighted %.0f (ratio %.4f); per image w4 %.0f, w2 %.0f, w1 %.0f; Erlang C %.0f",
		fifo, weighted, weighted/fifo, by["w4"], by["w2"], by["w1"], erlangCWait(c, rho))
	if math.Abs(weighted/fifo-1) > 0.02 {
		t.Fatalf("weighted mean wait %.0f is %.4f of FIFO's %.0f: the pick is not work-conserving", weighted, weighted/fifo, fifo)
	}
	if !(by["w4"] < by["w2"] && by["w2"] < by["w1"]) {
		t.Fatalf("waits by weight 4, 2, 1: %.0f, %.0f, %.0f; want increasing", by["w4"], by["w2"], by["w1"])
	}
}
