package sched

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/wasp"
)

// pairTask advances the clock by svc and reports svc as the run's entry
// count, so every note for the image folds equal svc/entries values
// into the EWMAs: the two smoothed fields must stay exactly equal for
// the image's whole lifetime. A torn read — one field new, the other
// old — is the only way a reader can observe them unequal.
func pairTask(svc uint64) Task {
	return func(clk *cycles.Clock) (*wasp.Result, error) {
		clk.Advance(svc)
		return &wasp.Result{Entries: svc}, nil
	}
}

// TestImageTelemetryTornPairs hammers virtual-mode completions on two
// images with wildly different service costs while concurrent readers
// poll the EWMA store under the core lock, as placement does; any torn
// svc/entries pair (or, under -race, any unsynchronized write to the
// store) fails the test. This is the regression gate for the store's
// locking contract.
func TestImageTelemetryTornPairs(t *testing.T) {
	s := NewVirtual(wasp.New(), 4, WithPlacer(placement.LeastLoaded{}))
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, img := range []string{"hot", "cold"} {
					s.core.Lock()
					svc, entries := s.imgStats.get(img)
					s.core.Unlock()
					if svc != entries {
						t.Errorf("torn telemetry pair for %q: svc=%d entries=%d", img, svc, entries)
					}
				}
			}
		}()
	}

	const rounds = 200
	for i := 0; i < rounds; i++ {
		reqs := []Request{
			{Image: "hot", Fn: pairTask(1000)},
			{Image: "hot", Fn: pairTask(9000)},
			{Image: "cold", Fn: pairTask(9000)},
			{Image: "cold", Fn: pairTask(1000)},
		}
		for _, tk := range s.SubmitBatch(reqs) {
			if _, err := tk.Wait(); err != nil {
				t.Fatalf("ticket: %v", err)
			}
		}
	}
	close(stop)
	wg.Wait()

	s.core.Lock()
	defer s.core.Unlock()
	if got := s.imgStats.Len(); got != 2 {
		t.Fatalf("tracking %d images, want 2", got)
	}
	if _, ok := s.imgStats.Peek("hot"); !ok {
		t.Fatalf("no telemetry for hot after %d rounds", rounds)
	}
	if _, ok := s.imgStats.Peek("never-ran"); ok {
		t.Fatalf("telemetry invented for an unknown image")
	}
}

// RegisterMetrics attaches this scheduler's telemetry to a metrics
// registry as pull-model collectors: lifetime ticket counters, queue
// depths and per-backend completion totals, sampled at Snapshot time with
// no per-ticket cost. sched_queue_depth, which has no accessor of its
// own, is published here only.
func (s *Scheduler) RegisterMetrics(r *obs.Registry) {
	r.RegisterCollector(func(emit func(string, float64)) {
		emit("sched_submitted", float64(s.Submitted()))
		emit("sched_completed", float64(s.Completed()))
		emit("sched_rejected", float64(s.Rejected()))
		emit("sched_queue_depth", float64(s.depth.Load()))
		emit("sched_queue_depth_peak", float64(s.PeakQueueDepth()))
		emit("sched_workers_active", float64(s.NumWorkers()))
		for _, bl := range s.BackendLoads() {
			emit(fmt.Sprintf("sched_backend_completed{platform=%s}", bl.Platform), float64(bl.Completed))
			emit(fmt.Sprintf("sched_backend_workers{platform=%s}", bl.Platform), float64(bl.Workers))
		}
	})
}

// metric reads one series of the registry src fills (-1 when absent):
// a Scheduler's or a Wasp's.
func metric(src interface{ RegisterMetrics(*obs.Registry) }, name string) float64 {
	r := obs.NewRegistry()
	src.RegisterMetrics(r)
	for _, m := range r.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return -1
}

// TestSchedRegisterMetrics wires schedulers into a registry and checks
// the collector's counters against known counts: a virtual Wasp+CA run
// of task and image tickets (each image ticket releases one shell, which
// the virtual cleaner core settles), then a one-lane real scheduler with
// a backlog queued behind a held lane and waiters that may borrow it.
func TestSchedRegisterMetrics(t *testing.T) {
	w := wasp.New(wasp.WithAsyncClean(true))
	s := NewVirtual(w, 2, WithPlacer(placement.LeastLoaded{}))
	defer s.Close()
	img := guest.MustFromAsm("metrics-doubler", guest.WrapLongMode(doublerAsm))
	reqs := make([]Request, 12)
	for i := range reqs {
		reqs[i] = Request{Arrival: uint64(i) * 100, Image: "api", Fn: pairTask(5000)}
		if i%3 == 0 {
			reqs[i] = Request{Arrival: uint64(i) * 100, Img: img, Cfg: wasp.RunConfig{Args: le64(uint64(i)), RetBytes: 8}}
		}
	}
	if err := WaitAll(s.SubmitBatchAt(reqs)...); err != nil {
		t.Fatalf("ticket: %v", err)
	}
	checkMetrics(t, s, map[string]float64{
		"sched_submitted":                       12,
		"sched_completed":                       12,
		"sched_rejected":                        0,
		"sched_queue_depth":                     0,
		"sched_backend_completed{platform=kvm}": 12,
		"sched_backend_workers{platform=kvm}":   2,
	})
	if n := w.Cleaner().VirtualDrains(); n != 4 {
		t.Errorf("the virtual cleaner core settled %d releases, want 4", n)
	}

	r := New(wasp.New(), 1)
	defer r.Close()
	started, release := make(chan struct{}), make(chan struct{})
	gate := r.SubmitFn(func(*cycles.Clock) (*wasp.Result, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started
	backlog := make([]*Ticket, 3)
	for i := range backlog {
		backlog[i] = r.SubmitFn(costTask(1))
	}
	checkMetrics(t, r, map[string]float64{"sched_queue_depth": 3})
	close(release)
	if err := WaitAll(append(backlog, gate)...); err != nil {
		t.Fatal(err)
	}
	r.Close()
	checkMetrics(t, r, map[string]float64{
		"sched_completed":   4,
		"sched_queue_depth": 0,
	})
}

// checkMetrics requires each named series of s's registry to read its
// wanted value.
func checkMetrics(t *testing.T, s *Scheduler, want map[string]float64) {
	t.Helper()
	for name, v := range want {
		if got := metric(s, name); got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
}

// TestSchedulerRecordsIntoWaspTracer: the Wasp's recorder is the one
// way in. A real and a virtual scheduler built with no option of their
// own over a traced Wasp each record the ticket span of an image run
// beside the runtime's shell event.
func TestSchedulerRecordsIntoWaspTracer(t *testing.T) {
	img := guest.MustFromAsm("one-recorder", guest.WrapLongMode(doublerAsm))
	for _, mode := range []struct {
		name string
		mk   func(*wasp.Wasp, int, ...Option) *Scheduler
	}{{"real", New}, {"virtual", NewVirtual}} {
		tr := obs.NewTracer(obs.Deterministic(true))
		tr.SetEnabled(true)
		s := mode.mk(wasp.New(wasp.WithTracer(tr)), 2)
		_, err := s.Submit(img, wasp.RunConfig{Args: le64(1), RetBytes: 8}).Wait()
		s.Close()
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		kinds := map[obs.Kind]bool{}
		for _, le := range tr.Events() {
			for _, e := range le.Events {
				kinds[e.Kind] = true
			}
		}
		if !kinds[obs.KindTicket] || !kinds[obs.KindShell] {
			t.Errorf("%s: recorded %v, want ticket and shell events", mode.name, kinds)
		}
	}
}
