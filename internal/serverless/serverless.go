// Package serverless implements Vespid, the prototype serverless platform
// of §7.1 (Fig 15): users register JavaScript functions; a concurrent
// server runs each invocation in a distinct virtine via the Wasp runtime
// API — instead of the container per invocation a stock OpenWhisk
// deployment uses. An OpenWhisk-model baseline (calibrated container
// cold/warm-start costs) and a Locust-like burst load generator complete
// the experiment.
//
// The simulation is event-driven over virtual time: each request's
// service cost comes from actually executing the JS virtine (Vespid) or
// from the container cost model (OpenWhisk), and requests queue on a
// bounded worker/container pool exactly as they would on one node.
//
// When the Wasp runtime cleans shells asynchronously (Wasp+CA), the
// platform's virtual scheduler additionally models the background
// cleaner as a dedicated virtual core: every shell a finished
// invocation releases is zeroed on that core's clock, off every request
// path (the runtime's Cleaner().BusyCycles() reports the total moved
// off-path).
package serverless

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/js"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// Function is one registered serverless action.
type Function struct {
	Name string
	// Payload is the input the generator sends on every invocation.
	Payload []byte
}

// Vespid is the virtine-backed platform.
type Vespid struct {
	W       *wasp.Wasp
	Workers int
	// FrontEndOverhead is the request parse/route cost of the main
	// endpoint (cycles).
	FrontEndOverhead uint64

	vm    *js.VirtineJS
	funcs map[string]*Function

	schedOnce sync.Once
	sched     *sched.Scheduler
}

// NewVespid builds the platform with the given worker parallelism.
func NewVespid(w *wasp.Wasp, workers int) *Vespid {
	return &Vespid{
		W:                w,
		Workers:          workers,
		FrontEndOverhead: 800_000, // ≈0.3 ms: HTTP parse, auth stub, route
		vm:               js.NewVirtineJS(w, true, true),
		funcs:            make(map[string]*Function),
	}
}

// Register installs a function.
func (v *Vespid) Register(f *Function) { v.funcs[f.Name] = f }

// Scheduler returns the platform's dispatch substrate: a virtual-time
// worker pool (internal/sched) as wide as the platform's worker count,
// created on first use. All invocations queue on it, so queueing delay
// under load comes from real scheduler state, not a side model.
func (v *Vespid) Scheduler() *sched.Scheduler {
	v.schedOnce.Do(func() { v.sched = sched.NewVirtual(v.W, v.Workers) })
	return v.sched
}

// InvokeAt submits one invocation of the named function arriving at the
// given virtual time. The ticket's Start/Done report when a platform
// worker actually served the request; jitter (nil for none) perturbs
// the sampled service cost the way run-to-run noise would.
func (v *Vespid) InvokeAt(name string, arrival uint64, jitter func(uint64) uint64) *sched.Ticket {
	return v.Scheduler().SubmitFnAt(arrival, func(clk *cycles.Clock) (*wasp.Result, error) {
		svc, err := v.ServiceCycles(name)
		if err != nil {
			return nil, err
		}
		if jitter != nil {
			svc = jitter(svc)
		}
		clk.Advance(svc)
		return nil, nil
	})
}

// ServiceCycles executes one invocation for real and reports its cost.
func (v *Vespid) ServiceCycles(name string) (uint64, error) {
	f, ok := v.funcs[name]
	if !ok {
		return 0, fmt.Errorf("vespid: no function %q", name)
	}
	clk := cycles.NewClock()
	if _, err := v.vm.Encode(f.Payload, clk); err != nil {
		return 0, err
	}
	return v.FrontEndOverhead + clk.Now(), nil
}

// OpenWhisk models the stock container-based platform: per-action warm
// container reuse with cold starts on scale-up, as §7.1 describes. It
// deliberately does NOT model SOCK/SEUSS/Catalyzer-class optimizations
// (the paper notes stock OpenWhisk lacks them).
type OpenWhisk struct {
	MaxContainers int
	IdleTimeout   uint64 // cycles before a warm container is reclaimed
	Overhead      uint64 // controller/broker cost per request

	noise *cycles.Noise
	// container free times and last-use times, one per live container.
	freeAt []uint64
	usedAt []uint64
}

// NewOpenWhisk builds the baseline with the given container cap.
func NewOpenWhisk(maxContainers int, seed int64) *OpenWhisk {
	return &OpenWhisk{
		MaxContainers: maxContainers,
		IdleTimeout:   uint64(30) * cycles.Frequency, // 30 s idle reclaim
		Overhead:      32_000_000,                    // ≈12 ms controller path
		noise:         cycles.NewNoise(seed),
	}
}

// invoke returns (start, serviceCycles) for a request arriving at t.
func (o *OpenWhisk) invoke(t uint64) (uint64, uint64) {
	// Reclaim idle containers.
	live := o.freeAt[:0]
	liveUsed := o.usedAt[:0]
	for i, f := range o.freeAt {
		idleSince := f
		if idleSince < t && t-idleSince > o.IdleTimeout {
			continue // reclaimed
		}
		live = append(live, f)
		liveUsed = append(liveUsed, o.usedAt[i])
	}
	o.freeAt, o.usedAt = live, liveUsed

	// Find a warm container that is free at or before t, else the one
	// that frees earliest; spawn cold if below the cap.
	best := -1
	for i, f := range o.freeAt {
		if best < 0 || f < o.freeAt[best] {
			best = i
		}
	}
	service := o.Overhead + o.noise.Jitter(cycles.ContainerWarmStart) + o.noise.Jitter(cycles.NodeJSInvoke)
	if best >= 0 && o.freeAt[best] <= t {
		start := t
		o.freeAt[best] = start + service
		o.usedAt[best] = o.freeAt[best]
		return start, service
	}
	if len(o.freeAt) < o.MaxContainers {
		// Cold start: new container.
		service = o.Overhead + o.noise.Jitter(cycles.ContainerColdStart) + o.noise.Jitter(cycles.NodeJSInvoke)
		start := t
		o.freeAt = append(o.freeAt, start+service)
		o.usedAt = append(o.usedAt, start+service)
		return start, service
	}
	// Queue on the earliest-free warm container.
	start := o.freeAt[best]
	o.freeAt[best] = start + service
	o.usedAt[best] = o.freeAt[best]
	return start, service
}

// LoadPattern is the Locust-style pattern of §7.1: "an initial ramp-up
// period that leads to two bursts, which then ramp down."
type LoadPattern struct {
	DurationSec int
	// UsersAt returns the concurrent-user count at second t.
	UsersAt func(sec int) int
}

// DefaultPattern is the Fig 15 pattern scaled to total seconds.
func DefaultPattern(total int) LoadPattern {
	return LoadPattern{
		DurationSec: total,
		UsersAt: func(sec int) int {
			frac := float64(sec) / float64(total)
			switch {
			case frac < 0.20: // ramp up
				return 2 + int(frac/0.20*18)
			case frac < 0.35: // burst 1
				return 50
			case frac < 0.55: // settle
				return 20
			case frac < 0.70: // burst 2
				return 50
			case frac < 0.85: // settle
				return 20
			default: // ramp down
				return 20 - int((frac-0.85)/0.15*18)
			}
		},
	}
}

// Arrivals expands the pattern into request arrival times (cycles): each
// user issues one request per second (1 s think time), evenly spaced
// within the second.
func (p LoadPattern) Arrivals() []uint64 {
	var out []uint64
	for sec := 0; sec < p.DurationSec; sec++ {
		users := p.UsersAt(sec)
		if users <= 0 {
			continue
		}
		step := uint64(cycles.Frequency) / uint64(users)
		for u := 0; u < users; u++ {
			out = append(out, uint64(sec)*cycles.Frequency+uint64(u)*step)
		}
	}
	return out
}

// TracePoint is one per-second bucket of Fig 15.
type TracePoint struct {
	Sec   int
	Users int
	// Latency percentiles in milliseconds.
	VespidP50, VespidP99 float64
	WhiskP50, WhiskP99   float64
	// Completions per second.
	VespidTput, WhiskTput float64
}

// RunFig15 drives both platforms with the pattern and buckets results
// per second.
func RunFig15(w *wasp.Wasp, pattern LoadPattern, seed int64) ([]TracePoint, error) {
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	vespid := NewVespid(w, 8)
	vespid.Register(&Function{Name: "b64", Payload: payload})
	// Warm once so the shared snapshot exists (the platform's deploy
	// step), then sample real service costs.
	if _, err := vespid.ServiceCycles("b64"); err != nil {
		return nil, err
	}
	// Pin Wasp+CA accounting before the simulation starts: settle the
	// ledger without charge, then create the scheduler so it drives the
	// ledger. The virtual cleaner core's telemetry then covers exactly the
	// simulated invocations.
	if c := w.Cleaner(); c != nil {
		c.Drain()
	}
	vespid.Scheduler()
	noise := cycles.NewNoise(seed)

	arrivals := pattern.Arrivals()
	whisk := NewOpenWhisk(8, seed+1)

	// Vespid requests queue on the platform's scheduler: each ticket is
	// assigned to the earliest-free worker in virtual time, so queueing
	// delay under the bursts comes from real scheduler state.
	type done struct {
		arrival, completion uint64
	}
	var wDone []done
	tickets := make([]*sched.Ticket, 0, len(arrivals))

	for _, t := range arrivals {
		tickets = append(tickets, vespid.InvokeAt("b64", t, noise.Jitter))

		// OpenWhisk.
		ws, wsvc := whisk.invoke(t)
		wDone = append(wDone, done{t, ws + wsvc})
	}
	if err := sched.WaitAll(tickets...); err != nil {
		return nil, err
	}
	vDone := make([]done, len(tickets))
	for i, tk := range tickets {
		vDone[i] = done{tk.Arrival, tk.Done}
	}

	// Bucket by arrival second.
	buckets := pattern.DurationSec
	vlat := make([][]float64, buckets)
	wlat := make([][]float64, buckets)
	vcomp := make([]int, buckets)
	wcomp := make([]int, buckets)
	for _, d := range vDone {
		sec := int(d.arrival / cycles.Frequency)
		if sec < buckets {
			vlat[sec] = append(vlat[sec], cycles.Millis(d.completion-d.arrival))
		}
		cs := int(d.completion / cycles.Frequency)
		if cs < buckets {
			vcomp[cs]++
		}
	}
	for _, d := range wDone {
		sec := int(d.arrival / cycles.Frequency)
		if sec < buckets {
			wlat[sec] = append(wlat[sec], cycles.Millis(d.completion-d.arrival))
		}
		cs := int(d.completion / cycles.Frequency)
		if cs < buckets {
			wcomp[cs]++
		}
	}

	out := make([]TracePoint, 0, buckets)
	for sec := 0; sec < buckets; sec++ {
		tp := TracePoint{
			Sec:        sec,
			Users:      pattern.UsersAt(sec),
			VespidTput: float64(vcomp[sec]),
			WhiskTput:  float64(wcomp[sec]),
		}
		if len(vlat[sec]) > 0 {
			tp.VespidP50 = stats.Percentile(vlat[sec], 50)
			tp.VespidP99 = stats.Percentile(vlat[sec], 99)
		}
		if len(wlat[sec]) > 0 {
			tp.WhiskP50 = stats.Percentile(wlat[sec], 50)
			tp.WhiskP99 = stats.Percentile(wlat[sec], 99)
		}
		out = append(out, tp)
	}
	return out, nil
}

// --- Multi-tenant noisy-neighbor fairness experiment ---------------------
//
// One hot function ("hog") bursts ~3x the node's capacity while several
// cold tenants trickle small requests through the horizon — the classic
// noisy-neighbor mix the scheduler's admission layer exists for. The
// whole arrival trace is presented to a virtual-mode scheduler as one
// SubmitBatchAt, so the experiment is deterministic, and it runs once
// per dispatch policy (plain FIFO, soft weights, hard cap).

// TenantFairness is one tenant's slice of a fairness run.
type TenantFairness struct {
	Image    string
	Weight   int
	Requests int
	// DoneByHorizon counts the tenant's requests completed within the
	// arrival horizon — the congestion window fairness is judged over.
	DoneByHorizon int
	// DemandCycles is the tenant's total offered service work;
	// ServedCycles the part of it completed within the horizon.
	DemandCycles, ServedCycles uint64
	// P50QueueMs/P99QueueMs reduce the tenant's per-request queueing
	// delay (admission deferral included).
	P50QueueMs, P99QueueMs float64
	// Share is the tenant's entitlement satisfaction in [0,1]:
	// ServedCycles over min(DemandCycles, weighted fair share of the
	// horizon's capacity). A tenant that received everything it was
	// entitled to scores 1 even if it demanded more — a backlogged hog
	// is not a victim of unfairness, only of its own excess.
	Share float64
}

// FairnessReport is one noisy-neighbor run under one dispatch policy.
type FairnessReport struct {
	Config     string
	Workers    int
	HorizonSec int
	Tenants    []TenantFairness // sorted by image name
	// Jain is Jain's fairness index over the tenants' Share values:
	// 1.0 when every tenant got its entitlement, 1/n when one tenant
	// captured everything.
	Jain     float64
	Makespan uint64
	Rejected uint64
}

// noisyNeighborTrace builds the deterministic tenant mix for the given
// horizon: per second, the hog issues 8 bursts of 32 requests at ~47 ms
// each (~3x a 4-worker node's capacity), and each cold tenant issues 16
// requests at ~4 ms. Requests carry seeded jitter, precomputed at trace
// build time so every policy replays the identical workload. The trace
// is sorted by arrival with the hog first at equal instants — the
// backlog position a cold tenant actually finds.
func noisyNeighborTrace(horizonSec int, seed int64) ([]sched.Request, map[string]uint64) {
	const F = uint64(cycles.Frequency)
	noise := cycles.NewNoise(seed)
	demand := make(map[string]uint64)
	var reqs []sched.Request
	add := func(image string, arrival, svc uint64) {
		svc = noise.Jitter(svc)
		demand[image] += svc
		cost := svc
		reqs = append(reqs, sched.Request{
			Arrival: arrival,
			Image:   image,
			Fn: func(clk *cycles.Clock) (*wasp.Result, error) {
				clk.Advance(cost)
				return nil, nil
			},
		})
	}
	for sec := 0; sec < horizonSec; sec++ {
		base := uint64(sec) * F
		for burst := 0; burst < 8; burst++ {
			at := base + uint64(burst)*(F/8)
			for i := 0; i < 32; i++ {
				add("hog", at, F/21) // ~47 ms: 256/s ≈ 3x of 4 workers
			}
		}
	}
	for _, tenant := range []string{"svc-a", "svc-b", "svc-c", "svc-d"} {
		for sec := 0; sec < horizonSec; sec++ {
			base := uint64(sec) * F
			for i := 0; i < 16; i++ {
				add(tenant, base+uint64(i)*(F/16), F/256) // ~4 ms each
			}
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs, demand
}

// RunNoisyNeighbor drives the noisy-neighbor mix through a virtual-mode
// scheduler with the given worker width and admission policy (nil for
// the FIFO baseline) and reduces the outcome to a FairnessReport.
func RunNoisyNeighbor(w *wasp.Wasp, config string, workers, horizonSec int, adm *sched.Admission, seed int64) (*FairnessReport, error) {
	if workers < 1 {
		workers = 4
	}
	if horizonSec < 1 {
		horizonSec = 2
	}
	reqs, demand := noisyNeighborTrace(horizonSec, seed)
	var opts []sched.Option
	if adm != nil {
		opts = append(opts, sched.WithAdmission(*adm))
	}
	s := sched.NewVirtual(w, workers, opts...)
	defer s.Close()
	tickets := s.SubmitBatchAt(reqs)

	horizon := uint64(horizonSec) * uint64(cycles.Frequency)
	capacity := uint64(workers) * horizon
	type acc struct {
		reqs, done int
		served     uint64
		queues     []float64
	}
	byImage := make(map[string]*acc)
	var rejected uint64
	for _, tk := range tickets {
		a := byImage[tk.Image]
		if a == nil {
			a = &acc{}
			byImage[tk.Image] = a
		}
		a.reqs++
		if _, err := tk.Wait(); err != nil {
			if errors.Is(err, sched.ErrAdmission) || errors.Is(err, sched.ErrClosed) {
				rejected++
				continue
			}
			return nil, err
		}
		a.queues = append(a.queues, float64(tk.QueueCycles()))
		if tk.Done <= horizon {
			a.done++
			a.served += tk.ServiceCycles()
		}
	}

	names := make([]string, 0, len(byImage))
	for name := range byImage {
		names = append(names, name)
	}
	sort.Strings(names)
	var weightSum int
	pol := sched.Admission{}
	if adm != nil {
		pol = *adm
	}
	weights := make(map[string]int, len(names))
	for _, name := range names {
		// The exact weights the scheduler enforced, not a reimplementation.
		weights[name] = pol.WeightFor(name)
		weightSum += weights[name]
	}

	rep := &FairnessReport{
		Config:     config,
		Workers:    workers,
		HorizonSec: horizonSec,
		Makespan:   s.Makespan(),
		Rejected:   rejected,
	}
	shares := make([]float64, 0, len(names))
	for _, name := range names {
		a := byImage[name]
		fairShare := float64(capacity) * float64(weights[name]) / float64(weightSum)
		entitled := float64(demand[name])
		if fairShare < entitled {
			entitled = fairShare
		}
		share := 0.0
		if entitled > 0 {
			share = float64(a.served) / entitled
			if share > 1 {
				share = 1
			}
		}
		shares = append(shares, share)
		rep.Tenants = append(rep.Tenants, TenantFairness{
			Image:         name,
			Weight:        weights[name],
			Requests:      a.reqs,
			DoneByHorizon: a.done,
			DemandCycles:  demand[name],
			ServedCycles:  a.served,
			P50QueueMs:    cycles.Millis(uint64(stats.Percentile(a.queues, 50))),
			P99QueueMs:    cycles.Millis(uint64(stats.Percentile(a.queues, 99))),
			Share:         share,
		})
	}
	rep.Jain = stats.Jain(shares)
	return rep, nil
}

// --- Multi-backend placement experiment ----------------------------------
//
// A mixed fleet (KVM and Hyper-V workers under one virtual scheduler)
// serves a saturating mix of short-lived virtines — whose cost is
// dominated by the Fig 5 create/entry/exit overheads, so the backend
// choice matters proportionally — and long-lived ones that amortize
// those overheads over real guest compute. The same trace runs on
// homogeneous half-fleets (only the KVM machines, only the Hyper-V
// machines) and on the full split fleet under each placement policy,
// so the bench table shows both the capacity win of spanning all the
// hardware and the policy differences on the split fleet itself.

// PlacementShortImage is the short-lived virtine of the placement mix:
// a real-mode guest that does a few dozen ALU ops and halts, so one
// entry/exit pair and the (amortized) create cost dominate its run.
func PlacementShortImage() *guest.Image {
	return guest.MustFromAsm("plc-short", `.bits 16
.org 0x8000
_start:
	movi rcx, 24
plc_spin:
	add rax, rcx
	dec rcx
	jnz plc_spin
	hlt
`)
}

// PlacementLongImage is the long-lived virtine: a 64-bit guest that
// boots to long mode and runs a recursive fib — enough retired
// instructions that the per-run hypervisor overhead is noise.
func PlacementLongImage() *guest.Image {
	return guest.MustFromAsm("plc-long", guest.WrapLongMode(`
	movi rdi, 15
	call plc_fib
	hlt
plc_fib:
	cmp rdi, 2
	jge plc_fib_rec
	mov rax, rdi
	ret
plc_fib_rec:
	push rdi
	sub rdi, 1
	call plc_fib
	pop rdi
	push rax
	sub rdi, 2
	call plc_fib
	pop rbx
	add rax, rbx
	ret
`))
}

// BackendSlice is one hypervisor backend's slice of a placement run.
type BackendSlice struct {
	Platform string
	Workers  int
	Runs     uint64
	// ShortRuns counts the short-lived class's runs that landed here —
	// the class a cost-aware policy should steer to the cheap backend.
	ShortRuns uint64
	// SvcCycles is the total service time the backend's workers
	// delivered; Share normalizes it by the backend's capacity share of
	// the fleet (1.0 = exactly its proportional load).
	SvcCycles uint64
	Share     float64
}

// PlacementReport is one fleet configuration's run of the mixed trace.
type PlacementReport struct {
	Config  string
	Workers int
	// Makespan is the virtual time the last worker went idle.
	Makespan uint64
	// ShortP50Ms and LongP50Ms are median arrival→completion latencies
	// per workload class.
	ShortP50Ms, LongP50Ms float64
	Backends              []BackendSlice
	// Jain is Jain's fairness index over the backends' capacity-
	// normalized service shares: 1.0 when every backend carries exactly
	// its proportional load.
	Jain                float64
	Completed, Rejected uint64
}

// PlacementTrace builds the deterministic mixed arrival trace: shorts
// requests of the short-lived image arriving every 2k cycles and longs
// requests of the long-lived one every 10k — a saturating burst for the
// fleets the experiment compares.
func PlacementTrace(shorts, longs int) []sched.Request {
	short, long := PlacementShortImage(), PlacementLongImage()
	reqs := make([]sched.Request, 0, shorts+longs)
	for i := 0; i < shorts; i++ {
		reqs = append(reqs, sched.Request{Arrival: uint64(i) * 2_000, Img: short})
	}
	for i := 0; i < longs; i++ {
		reqs = append(reqs, sched.Request{Arrival: uint64(i) * 10_000, Img: long})
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Arrival < reqs[j].Arrival })
	return reqs
}

// RunPlacementMix drives the mixed short/long trace through a
// virtual-mode scheduler whose workers are pinned round-robin to the
// given fleet platforms, under the given placement policy (nil for
// plain earliest-free dispatch). w must own every fleet platform
// (wasp.WithPlatforms). Fully deterministic: same trace, fleet, and
// policy produce bit-identical schedules.
func RunPlacementMix(w *wasp.Wasp, config string, fleet []vmm.Platform, pl placement.Placer, shorts, longs int) (*PlacementReport, error) {
	if len(fleet) == 0 {
		fleet = w.Platforms()
	}
	opts := []sched.Option{sched.WithWorkerPlatforms(fleet...)}
	if pl != nil {
		opts = append(opts, sched.WithPlacer(pl))
	}
	s := sched.NewVirtual(w, len(fleet), opts...)
	defer s.Close()

	shortName := PlacementShortImage().Name
	tickets := s.SubmitBatchAt(PlacementTrace(shorts, longs))

	rep := &PlacementReport{Config: config, Workers: len(fleet)}
	byPlat := make(map[string]*BackendSlice)
	for _, bl := range s.BackendLoads() {
		sl := &BackendSlice{Platform: bl.Platform, Workers: bl.Workers}
		byPlat[bl.Platform] = sl
	}
	var shortLat, longLat []float64
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			if errors.Is(err, sched.ErrPlacement) || errors.Is(err, sched.ErrAdmission) {
				rep.Rejected++
				continue
			}
			return nil, err
		}
		rep.Completed++
		sl := byPlat[tk.Platform]
		sl.Runs++
		sl.SvcCycles += tk.ServiceCycles()
		if tk.Image == shortName {
			sl.ShortRuns++
			shortLat = append(shortLat, float64(tk.Done-tk.Arrival))
		} else {
			longLat = append(longLat, float64(tk.Done-tk.Arrival))
		}
	}
	rep.Makespan = s.Makespan()
	rep.ShortP50Ms = cycles.Millis(uint64(stats.Percentile(shortLat, 50)))
	rep.LongP50Ms = cycles.Millis(uint64(stats.Percentile(longLat, 50)))

	var totalSvc uint64
	for _, sl := range byPlat {
		totalSvc += sl.SvcCycles
	}
	names := make([]string, 0, len(byPlat))
	for name := range byPlat {
		names = append(names, name)
	}
	sort.Strings(names)
	var shares []float64
	for _, name := range names {
		sl := byPlat[name]
		if totalSvc > 0 && sl.Workers > 0 {
			capShare := float64(sl.Workers) / float64(len(fleet))
			sl.Share = (float64(sl.SvcCycles) / float64(totalSvc)) / capShare
		}
		shares = append(shares, sl.Share)
		rep.Backends = append(rep.Backends, *sl)
	}
	rep.Jain = stats.Jain(shares)
	return rep, nil
}

// Summary reduces a trace to the headline comparison.
type Summary struct {
	VespidMeanP50, WhiskMeanP50   float64 // ms
	VespidWorstP99, WhiskWorstP99 float64 // ms
	VespidTotal, WhiskTotal       float64 // completed requests
}

// Summarize reduces a Fig 15 trace.
func Summarize(trace []TracePoint) Summary {
	var s Summary
	var vp, wp []float64
	for _, tp := range trace {
		if tp.VespidP50 > 0 {
			vp = append(vp, tp.VespidP50)
		}
		if tp.WhiskP50 > 0 {
			wp = append(wp, tp.WhiskP50)
		}
		if tp.VespidP99 > s.VespidWorstP99 {
			s.VespidWorstP99 = tp.VespidP99
		}
		if tp.WhiskP99 > s.WhiskWorstP99 {
			s.WhiskWorstP99 = tp.WhiskP99
		}
		s.VespidTotal += tp.VespidTput
		s.WhiskTotal += tp.WhiskTput
	}
	s.VespidMeanP50 = stats.Mean(vp)
	s.WhiskMeanP50 = stats.Mean(wp)
	return s
}
