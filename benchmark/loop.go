package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hypercall"
	"repro/internal/stats"
)

// sizes are the fixed, seed-independent dimensions of a run. The
// defaults are the benchmark; the smoke test shrinks them.
type sizes struct {
	// Set-up is timed at least minSetups+1 times, then until setupBudget
	// is spent or maxSetups is reached; setup_s is undisturbed() of them.
	minSetups, maxSetups int
	setupBudget          time.Duration
	warmup               time.Duration // real-pass warm-up before the first window
	window               time.Duration // length of one measured window
	vscale               int           // divisor on every virtual-pass request count
	probeOps             int           // calls per probe in the traced run
}

var defaultSizes = sizes{
	minSetups: 2, maxSetups: 200, setupBudget: 1200 * time.Millisecond,
	warmup: 2 * time.Second, window: 250 * time.Millisecond, vscale: 1, probeOps: 400,
}

// pass configures one closed-loop real pass.
type pass struct {
	clients int
	warmup  time.Duration
	window  time.Duration
	windows int
	tr      *tracer // nil: untraced
}

// passStats is what a real pass measured.
type passStats struct {
	rps       float64   // sustainedRate of perWindow
	perWindow []float64 // completed work units per second, window by window
	heapMB    []float64 // live heap after a collection, every heapEvery windows
	ops       uint64    // requests attempted, warm-up included
	failed    uint64    // requests that errored or failed their output check
	units     uint64    // work units completed inside the windows
	mem       memDelta
}

// memDelta is the allocator's activity across the measured windows.
type memDelta struct {
	allocBytes uint64
	pauseNs    uint64
}

// clientFunc serves one request for one closed-loop client: it submits,
// waits, and checks the output. A non-nil error counts the request as
// failed. spans is nil in an untraced pass.
type clientFunc func(req uint64, spans *spanBuf) error

// sustainedRate is the rate a pass reports: the 90th percentile of its
// windows. On the shared two-core VMs this runs on, the host takes the
// CPU away in episodes of seconds that cut a window's rate by up to
// half; across ten runs the median window then spreads by 13-22% of its
// median while the 90th percentile of quarter-second windows spreads by
// 6-9% (README, "Load sizing"). The upper windows are the ones the host
// left alone.
func sustainedRate(perWindow []float64) float64 { return stats.Percentile(perWindow, 90) }

// heapEvery spaces the live-heap samples: one forced collection per
// two windows. fork_storm's heap is two shells deep, so a sample sees
// 0-2 of them alive; it takes a couple of dozen samples to average that.
const heapEvery = 2

// closedLoop drives p.clients goroutines, each sending its next request
// only once the previous one completed and verified. After the warm-up
// the completed-request counter is sampled at window boundaries.
// Closed, because every caller of a virtine waits for its reply.
func closedLoop(p pass, newClient func(id int) clientFunc) passStats {
	var (
		done, failed atomic.Uint64
		stop         atomic.Bool
		wg           sync.WaitGroup
	)
	for c := 0; c < p.clients; c++ {
		serve := newClient(c)
		spans := p.tr.buf(c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Request ids are unique across the clients of a pass.
			for req := uint64(c) << 40; !stop.Load(); req++ {
				if err := serve(req, spans); err != nil {
					failed.Add(1)
				}
				done.Add(1)
			}
		}(c)
	}
	time.Sleep(p.warmup)
	var st passStats
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	first := done.Load()
	for w := 0; w < p.windows; w++ {
		c0, t0 := done.Load(), time.Now()
		time.Sleep(p.window)
		c1, dt := done.Load(), time.Since(t0)
		st.perWindow = append(st.perWindow, float64(c1-c0)/dt.Seconds())
		if w%heapEvery == heapEvery-1 || w == p.windows-1 {
			st.heapMB = append(st.heapMB, liveHeapMB())
		}
	}
	st.units = done.Load() - first
	runtime.ReadMemStats(&m1)
	stop.Store(true)
	wg.Wait()
	st.rps = sustainedRate(st.perWindow)
	st.ops, st.failed = done.Load(), failed.Load()
	st.mem = memDelta{allocBytes: m1.TotalAlloc - m0.TotalAlloc, pauseNs: m1.PauseTotalNs - m0.PauseTotalNs}
	return st
}

// liveHeapMB forces a collection and reports what it marked live — the
// pools, COW shells, forests and code caches a workload keeps alive,
// plus whatever the requests in flight hold. (HeapAlloc would add what
// the still-running clients allocate between the collection's end and
// the read: a quarter of fork_storm's figure.) It is sampled between
// windows, and a pass reports the trimmed mean of the samples, not their
// median: the pool policy releases warm shells as a pass goes on, which
// moves the figure a shell (a tenth of http_pooled's heap) at a time.
func liveHeapMB() float64 {
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	return float64(live[0].Value.Uint64()) / (1 << 20)
}

// timedHandler wraps a request's hypercall handler — the client hook of
// §5.1, reached through RunConfig.Handler — and times every call on the
// serving worker's goroutine. The client reads calls only after
// Ticket.Wait returned, which orders the accesses.
type timedHandler struct {
	inner hypercall.Handler
	tr    *tracer
	calls [][2]int64 // start, end (tracer clock)
}

func (h *timedHandler) Handle(call hypercall.Args, mem hypercall.GuestMem) (uint64, error) {
	t0 := h.tr.now()
	ret, err := h.inner.Handle(call, mem)
	h.calls = append(h.calls, [2]int64{t0, h.tr.now()})
	return ret, err
}

// file records the handler's calls as children of the given span.
func (h *timedHandler) file(spans *spanBuf, req uint64, parent int) {
	for _, c := range h.calls {
		spans.add("hypercall.handle", req, parent, c[0], c[1])
	}
}

// timeCalls runs fn n times and returns each call's host nanoseconds.
func timeCalls(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0)))
	}
	return out, nil
}
