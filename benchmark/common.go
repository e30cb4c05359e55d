package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/sched"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// virtualWorkers is the virtual fleet width of every request-serving
// workload. It is a constant, not nproc, so virtual numbers do not
// depend on the host.
const virtualWorkers = 4

// guestAcc sums what the runtime reports about each run of the virtual
// pass (wasp.Result), so the per-request guest-side numbers are as
// deterministic as the virtual latencies.
type guestAcc struct {
	reqs                                             uint64 // requests served; a request may be several runs
	runs, snapUsed, booted                           uint64
	retired, exits, provision, guest, boot, cowPages uint64
}

// add folds one run in; start is the clock value when the run began.
func (a *guestAcc) add(start uint64, res *wasp.Result) {
	if res == nil {
		return
	}
	a.runs++
	a.retired += res.Retired
	a.exits += res.IOExits
	a.cowPages += uint64(res.COWPages)
	if res.GuestEntry >= start {
		prov := res.GuestEntry - start
		a.provision += prov
		a.guest += res.Cycles - prov
	}
	if res.SnapshotUsed {
		a.snapUsed++
	} else if at := res.BootEvents[cpu.EvFirstInstr64]; at > res.GuestEntry {
		a.boot += at - res.GuestEntry
		a.booted++
	}
}

func (a *guestAcc) record(l *ledger) {
	if a.runs == 0 || a.reqs == 0 {
		return
	}
	l.set("wasp.provision_vcycles", float64(a.provision)/float64(a.runs))
	l.set("wasp.snapshot_used_ratio", float64(a.snapUsed)/float64(a.runs))
	n := float64(a.reqs)
	l.set("wasp.cow_pages_per_req", float64(a.cowPages)/n)
	l.set("cpu.retired_per_req", float64(a.retired)/n)
	l.set("cpu.guest_vcycles_per_req", float64(a.guest)/n)
	l.set("hypercall.exits_per_req", float64(a.exits)/n)
	l.set("guest.boot_vcycles", ratio(float64(a.boot), float64(a.booted)))
	// Guest instructions retired per host second while serving: the
	// virtual pass's per-request count at the real pass's rate.
	l.set("cpu.host_mips", float64(a.retired)/n*l.values["host_rps"]/1e6)
}

// recordRuntime reads the runtime's own end-of-run counters: pools,
// cleaners, the decoded-code registry with the compiled tier, and every
// backend's snapshot forest.
func recordRuntime(w *wasp.Wasp, l *ledger) {
	l.set("wasp.pool_cached", float64(w.PoolTotal()))
	dropped := w.PoolDropped()
	var enqueued, inline uint64
	for _, c := range w.Cleaners() {
		dropped += c.Dropped()
		enqueued += c.Enqueued()
		inline += c.InlineReclaims()
	}
	l.set("wasp.pool_dropped", float64(dropped))
	l.set("wasp.cleaner_enqueued", float64(enqueued))
	l.set("wasp.cleaner_inline_reclaims", float64(inline))

	cs := w.CodeCacheStats()
	l.set("cpu.jit_traces_compiled", float64(cs.BlocksCompiled))
	l.set("cpu.jit_deopts", float64(cs.BlockDeopts))
	l.set("cpu.fused_entries", float64(cs.Fused))
	// Share of runs that adopted every code page predecoded and harvested
	// nothing new into the registry.
	if l.attempted > 0 {
		l.set("wasp.code_cache_hit_ratio", 1-math.Min(1, float64(cs.Merges)/float64(l.attempted)))
	}

	var pages, layers int
	var bytes int64
	var hits uint64
	for _, p := range w.Platforms() {
		fs := w.ForestStatsOn(p.Name())
		pages += fs.StorePages
		bytes += fs.StoreBytes
		hits += fs.DedupHits
		layers += fs.BaseLayers + fs.Snapshots
	}
	l.set("vmm.forest_store_mb", float64(bytes)/(1<<20))
	l.set("vmm.forest_layers", float64(layers))
	// Page insertions per page actually stored.
	l.set("vmm.forest_dedup_ratio", ratio(float64(hits)+float64(pages), float64(pages)))
}

// probeVMM times the layer under the pool: a cold context create and,
// given an image, its load.
func probeVMM(memBytes int, img *guest.Image, sz sizes, l *ledger) error {
	clk := cycles.NewClock()
	var ctxs []*vmm.Context
	create, _ := timeCalls(sz.probeOps, func(int) error {
		ctxs = append(ctxs, vmm.Create(memBytes, clk))
		return nil
	})
	l.setPct("vmm.create_ns", create, 50)
	l.set("vmm.create_vcycles", float64(clk.Now())/float64(sz.probeOps))
	if img == nil {
		return nil
	}
	load, err := timeCalls(sz.probeOps, func(i int) error {
		return ctxs[i].Load(img.Code, img.Origin, img.Entry, img.Mode)
	})
	if err != nil {
		return err
	}
	l.setPct("vmm.load_ns", load, 50)
	return nil
}

// probeOverhead measures what the scheduler adds to a request. It
// alternates, on one thread, a request through a one-worker scheduler
// with the same request run directly on the runtime, so both series see
// the same host conditions, and records the direct run's median
// (wasp.run_ns_p50) and the median pairwise difference
// (sched.overhead_ns).
func probeOverhead(spans *spanBuf, n int, l *ledger, scheduled, direct func(i int) error) error {
	run := make([]float64, 0, n)
	diff := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := scheduled(i); err != nil {
			return err
		}
		t1 := time.Now()
		s := spans.begin("wasp.run", uint64(i), -1)
		err := direct(i)
		spans.end(s)
		if err != nil {
			return err
		}
		d := float64(time.Since(t1))
		run = append(run, d)
		diff = append(diff, float64(t1.Sub(t0))-d)
	}
	l.setPct("wasp.run_ns_p50", run, 50)
	l.setPct("sched.overhead_ns", diff, 50)
	return nil
}

// conserved checks the scheduler's ticket conservation invariant.
func conserved(sc *sched.Scheduler) error {
	if s, c, r := sc.Submitted(), sc.Completed(), sc.Rejected(); s != c+r {
		return fmt.Errorf("scheduler lost tickets: submitted %d != completed %d + rejected %d", s, c, r)
	}
	return nil
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	var sum float64
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	return min(sort.SearchFloat64s(z.cdf, rng.Float64()), len(z.cdf)-1)
}
