// Package sched is the unified virtine scheduler: the one dispatch
// substrate every concurrent client of the Wasp runtime goes through.
//
// The paper anticipates virtines behaving "like asynchronous functions
// or futures" (§2), and the Wasp runtime (§5) is built to serve many
// concurrent invocations. sched is where core.Future, the serverless
// platform and httpd all dispatch: a bounded worker pool in which each
// worker owns a virtual clock (modelling one core's TSC, exactly like
// the paper's per-core rdtsc methodology), a ticket/future API, and
// queue-depth accounting.
//
// Two dispatch cores sit behind the same API and semantics (the core
// interface below):
//
//   - Real mode (New, real.go): N worker lanes drain a queue bounded
//     at 4N tickets (a submit past it blocks until one frees), each driven by its resident goroutine or by a caller blocked in
//     Ticket.Wait, which borrows an idle lane instead of paying two
//     thread wake-ups. Virtines on different workers execute
//     concurrently on the host — this is the mode the throughput
//     benchmarks exercise, and it is what makes the shell pools' locking
//     in internal/wasp matter.
//   - Virtual mode (NewVirtual, virtual.go): deterministic event-driven
//     dispatch in the submitting goroutine. Tickets are assigned to the
//     earliest-free worker in virtual time; queueing delay comes from
//     the worker clocks, i.e. from real queue state. The serverless
//     Fig 15 simulation uses this mode so results stay reproducible.
//
// Bursts submit through SubmitBatch/SubmitBatchAt: one lock
// acquisition, one ticket-slab allocation, and one worker wake for the
// whole burst. Multi-tenant deployments attach an Admission policy
// (WithAdmission): every ticket carries its image identity, and
// dispatch switches from one FIFO to per-image queues with weighted
// fair picking, so one hot image cannot starve other tenants of
// workers, and an optional bound on each image's real-mode backlog
// (ErrAdmission shedding). See the Admission type for the policy
// semantics.
//
// The fleet may span heterogeneous hypervisor backends (Fig 5):
// WithWorkerPlatforms pins each worker to a vmm.Platform, and image
// tickets execute through wasp.RunOn on their worker's backend, drawing
// shells only from that backend's pools. In real mode any lane serves
// any ticket. Placement is a virtual-mode policy: a placer (WithPlacer,
// internal/placement) maps each image to its eligible backends with
// weights, and the deterministic virtual dispatcher only considers
// workers on eligible backends, biasing the choice among them by the
// weights. A real-mode scheduler built with a placer fails every ticket
// with ErrPlacement. Admission decides whether a ticket runs; placement
// decides where.
//
// Under Wasp+CA (Fig 8) virtual mode drives each backend's Cleaner:
// after every ticket it settles the zeroing the ticket's releases owe on
// a dedicated virtual cleaner core, whose clock absorbs every such cost
// (wasp.Cleaner.Cycles). Real mode has nothing to drive: the zeroing is
// charged nowhere and no lane scrubs. Completed image tickets feed their
// queue depth back into the runtime's shell pools (wasp.ObserveLoadOn),
// so idle periods shrink them.
package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// Task is one unit of schedulable work. It runs on a worker, advancing
// that worker's virtual clock by the work's full service cost.
type Task func(clk *cycles.Clock) (*wasp.Result, error)

// ErrClosed is the error carried by tickets submitted to a scheduler
// that has been closed.
var ErrClosed = errors.New("sched: scheduler closed")

// ErrPlacement is the error carried by tickets whose image has no
// eligible backend in this fleet (e.g. a Static pin to a platform no
// worker serves), and by every ticket of a real-mode scheduler built
// with a placer. Rejecting at submission keeps an unservable ticket
// from occupying the queue forever.
var ErrPlacement = errors.New("sched: no eligible backend for image")

// errWork rejects a batch Request without exactly one kind of work.
var errWork = errors.New("sched: request must set exactly one of Img, Fn and Cost")

// Ticket is the future for one scheduled invocation. Wait blocks until
// the work completes; the timing fields (Arrival, Start, Done, Worker,
// DepthAtSubmit) are valid once Wait has returned.
type Ticket struct {
	run Task
	// done is held while the ticket sits in, or is served from, a real
	// core's queue: locked at enqueue, unlocked by finish, so Wait blocks
	// on it. A ticket no queue took, every virtual-mode ticket among
	// them, is finished before its submit returns and never holds it.
	done sync.Mutex
	// hasArrival records whether the caller declared a virtual arrival
	// time (SubmitAt/SubmitFnAt/SubmitBatchAt). Undeclared tickets take
	// their worker's clock at dequeue as Arrival, so they report zero
	// queueing delay — per-worker clocks are independent timelines, and
	// a wait measured against an arrival the caller never declared would
	// be fiction.
	hasArrival bool
	// queued is set while the ticket sits in a real core's queue (the
	// core's flag, under its lock).
	queued bool

	// Arrival is the virtual time the request entered the system: the
	// caller-declared arrival, or the assigned worker's clock at dequeue
	// when none was declared.
	Arrival uint64
	// Start and Done are the virtual times service began and finished
	// on the assigned worker; Start-Arrival is the queueing delay.
	Start, Done uint64
	// Worker is the index of the worker that served the ticket.
	Worker int
	// Platform is the name of the hypervisor backend whose worker served
	// the ticket ("" until service starts). Valid after Wait.
	Platform string
	// DepthAtSubmit is the queue depth observed when the ticket was
	// submitted (real mode: tickets waiting in the queue; virtual mode:
	// workers still busy at the arrival time).
	DepthAtSubmit int
	// Image is the identity of the guest image this ticket runs (the
	// image name, or the Request.Image tag for raw tasks; empty for
	// untagged tasks). Admission control and the per-image service
	// telemetry key on it.
	Image string

	// seq is the ticket's submission sequence number, assigned only
	// while a tracer is recording — the correlation id tying the
	// ticket's trace events together across lanes.
	seq uint64

	// memBytes is the guest-memory size class of an image submission;
	// 0 for raw tasks. A completed image ticket reports its depth at
	// submit to that size class's pool (wasp.ObserveLoadOn).
	memBytes int

	// img and cfg carry an image submission's work; the worker that pops
	// the ticket runs the image on its own pinned backend (wasp.RunOn),
	// which is why image tickets are not baked into a platform-blind
	// closure. Raw tasks use run instead. The config itself lives beside
	// the ticket in its submission's slab (imageTicket), so tickets of a
	// batch without images do not carry its bytes.
	img *guest.Image
	cfg *wasp.RunConfig
	// cost is a cost-model ticket's work (Request.Cost): serve advances
	// the worker's clock by it and calls nothing.
	cost uint64

	// st is the ticket's image state in the admission layer, set when
	// admission first sees the ticket (nil without a policy), so dispatch
	// and completion never look the image name up again.
	st *imageState

	// elig is the placement weight per scheduler backend (nil when no
	// placer is attached): <= 0 means the backend's workers must not
	// serve this ticket. Virtual mode only; the batch dispatcher
	// recomputes it at each placement decision so load-sensitive
	// policies see decision-time state.
	elig []float64

	// lender is the real core whose queue holds (or held) the ticket; nil
	// for virtual-mode and never-enqueued tickets. Wait helps it serve
	// the queue while queued is set.
	lender *realCore

	res *wasp.Result
	err error
}

// finish drops the ticket's work, freeing a run closure's captured
// request environment, and unblocks its waiters. A batch's Ticket
// structs (and their results) stay reachable while any one of them is
// retained: that is the deliberate cost of the single-slab allocation,
// so callers holding tickets long-term should copy out what they need.
func (t *Ticket) finish() {
	if t.cfg != nil {
		*t.cfg = wasp.RunConfig{}
	}
	t.run, t.img, t.cfg, t.elig = nil, nil, nil, nil
	if t.lender != nil {
		t.done.Unlock()
	}
}

// Wait blocks until the ticket's work has completed and returns its
// result. Wait may be called any number of times, from any goroutine.
// On a real-mode ticket that is still queued, the caller first drives
// an idle worker lane itself (realCore.help): it may run this ticket's
// task and hypercall handler — or, when the fair pick says so, another
// caller's — on its own goroutine. A ticket no queue took (a virtual-mode
// ticket, or one rejected at submit) was finished before its submit
// returned, so Wait returns at once.
func (t *Ticket) Wait() (*wasp.Result, error) {
	if c := t.lender; c != nil {
		c.help(t)
		t.done.Lock()
		t.done.Unlock()
	}
	return t.res, t.err
}

// QueueCycles reports how long the ticket waited between its declared
// virtual arrival and the start of service. Tickets submitted without an arrival time (Submit/SubmitFn)
// report 0 — use SubmitAt/SubmitFnAt for virtual-time queue accounting,
// or DepthAtSubmit for instantaneous backlog. Valid after Wait.
func (t *Ticket) QueueCycles() uint64 {
	// A ticket that never started service (e.g. submitted after Close)
	// keeps Start == 0; with a nonzero declared Arrival the subtraction
	// would wrap to ~1.8e19 cycles. Report zero queueing instead.
	if t.Start < t.Arrival {
		return 0
	}
	return t.Start - t.Arrival
}

// ServiceCycles reports the service time on the worker (virtual
// cycles). Valid after Wait.
func (t *Ticket) ServiceCycles() uint64 { return t.Done - t.Start }

// WaitAll waits for every ticket and returns the first error, if any.
// All tickets run to completion regardless — a virtine is destroyed
// with its VM, never interrupted.
func WaitAll(tickets ...*Ticket) error {
	var firstErr error
	for _, t := range tickets {
		if _, err := t.Wait(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Request describes one submission inside a batch, with exactly one kind
// of work — an image to run (Img + Cfg), a raw task (Fn), or a cost-model
// ticket (Cost > 0: the worker's clock advances Cost cycles, no call) —
// or it is rejected. Image, when set, overrides the ticket's image
// identity, the tag admission control and per-image telemetry key on.
// Arrival is the declared virtual arrival time, used by SubmitBatchAt
// only. Submission copies Cfg into the batch's ticket slab.
type Request struct {
	Arrival uint64
	Img     *guest.Image
	Cfg     wasp.RunConfig
	Fn      Task
	Cost    uint64
	Image   string
}

// worker is one execution lane with its own virtual clock — the model
// of one physical core serving virtines back to back — pinned to one
// hypervisor backend: every image ticket it pops executes via
// wasp.RunOn on that platform. runs is atomic so WorkerInfo stays a
// safe diagnostic read even while workers execute.
type worker struct {
	id    int
	clk   *cycles.Clock
	runs  atomic.Uint64
	pname string // platform name (always set; the runtime default when unpinned)
	beIdx int    // index into the scheduler's backend states

	// lent marks a lane a waiter borrowed from the real core's idle list
	// (under dmu): its resident neither picks nor exits until it is back.
	lent bool
}

// backendState aggregates the fleet's workers per hypervisor backend.
// completed is atomic (safe diagnostic reads); svcEWMA is guarded by
// the core lock and maintained only while a placer is attached.
type backendState struct {
	platform  vmm.Platform
	workers   int
	completed atomic.Uint64
	svcEWMA   uint64
}

// core is one dispatch implementation behind the shared front end.
// The cores share tickets, options, fleet construction, placement
// weights, ticket execution and telemetry, but nothing in dispatch. The
// embedded Locker is the core's dispatch lock: it guards adm, imgStats
// and backendState.svcEWMA, and is what the telemetry readers take.
type core interface {
	sync.Locker
	// submit dispatches a prepared ticket slice and returns the tickets
	// that will never run, each with its error set.
	submit(ts []*Ticket) (rejected []*Ticket)
	// close stops the core once the scheduler has stopped accepting work.
	close()
}

// Scheduler is a bounded worker-pool executor over a Wasp runtime: the
// shared front end over one dispatch core.
type Scheduler struct {
	w    *wasp.Wasp
	core core

	// cleaners are the runtime's Wasp+CA cleaner ledgers (one per
	// backend); virtual mode drives each as a dedicated virtual core.
	cleaners []*wasp.Cleaner

	// Multi-backend placement state: worker platform pins, per-backend
	// aggregates, and the attached policy. imgStats is the LRU-bounded
	// per-image service/entry EWMA store the policies consult (guarded by
	// the core lock, maintained only while placer != nil).
	platforms []vmm.Platform
	bstates   []*backendState
	placer    placement.Placer
	imgStats  *imgStats

	// adm is the per-image admission-control state, nil without
	// WithAdmission; guarded by the core lock.
	adm *admission

	closeMu   sync.RWMutex // guards closed; submits hold the read side
	closed    bool
	closeOnce sync.Once
	workers   []*worker

	depth     atomic.Int64 // tickets waiting in the real core's queue; 0 in virtual mode
	peakDepth atomic.Int64
	submitted atomic.Uint64
	completed atomic.Uint64
	rejected  atomic.Uint64

	// tracer is the Wasp's flight recorder, read once at construction
	// (nil or disabled: every instrumentation site is one nil check + one
	// atomic load).
	tracer *obs.Tracer
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithAdmission attaches a per-image admission-control policy. See
// Admission for the weighted-fairness and queue-bound semantics.
func WithAdmission(pol Admission) Option {
	return func(s *Scheduler) { s.adm = newAdmission(pol) }
}

// WithWorkerPlatforms pins the fleet's workers to hypervisor backends:
// worker i runs on ps[i%len(ps)], so New(w, 4, WithWorkerPlatforms(
// vmm.KVM{}, vmm.HyperV{})) builds a 2+2 split fleet. Every platform
// must be a backend of the scheduler's Wasp (wasp.WithPlatforms);
// construction panics otherwise — a misconfigured fleet would fail
// every ticket. Without this option all workers run on the runtime's
// default backend.
func WithWorkerPlatforms(ps ...vmm.Platform) Option {
	return func(s *Scheduler) {
		if len(ps) > 0 {
			s.platforms = append([]vmm.Platform(nil), ps...)
		}
	}
}

// WithPlacer attaches a placement policy (internal/placement) to a
// virtual-mode scheduler: each ticket is served only by workers on its
// eligible backends, and the dispatcher biases the choice among them by
// the policy's weights. A ticket whose image has no eligible backend is
// rejected with ErrPlacement at submission. A real-mode scheduler does
// not place: built with a placer, it rejects every ticket with
// ErrPlacement.
func WithPlacer(p placement.Placer) Option {
	return func(s *Scheduler) { s.placer = p }
}

// New builds a real-mode scheduler: n worker goroutines, each with its
// own virtual clock, draining a bounded queue. The scheduler records
// submission and ticket-service events into the Wasp's flight recorder
// (wasp.WithTracer).
func New(w *wasp.Wasp, n int, opts ...Option) *Scheduler {
	return newScheduler(w, n, newRealCore, opts...)
}

// NewVirtual builds a virtual-mode scheduler: deterministic
// earliest-free-worker dispatch over per-worker virtual clocks, run
// synchronously in the submitting goroutine.
func NewVirtual(w *wasp.Wasp, n int, opts ...Option) *Scheduler {
	return newScheduler(w, n, newVirtualCore, opts...)
}

// newScheduler builds the shared front end — options, fleet, backends —
// and hands it to mkCore for its dispatch core.
func newScheduler(w *wasp.Wasp, n int, mkCore func(*Scheduler) core, opts ...Option) *Scheduler {
	if n < 1 {
		n = 1
	}
	s := &Scheduler{w: w, cleaners: w.Cleaners(), tracer: w.Tracer()}
	for _, o := range opts {
		o(s)
	}
	if len(s.platforms) == 0 {
		s.platforms = w.Platforms()[:1]
	}
	for len(s.workers) < n {
		s.bstates[s.addWorker().beIdx].workers++
	}
	if s.placer != nil {
		s.imgStats = newImgStats(0)
	}
	s.core = mkCore(s)
	return s
}

// addWorker grows the fleet by one worker with a fresh clock, pinned
// round-robin across the requested platforms. Backend aggregates are
// registered in first-appearance order (stable, so virtual-mode runs
// are reproducible); a platform the scheduler's Wasp lacks panics — a
// misconfigured fleet would fail every ticket. The caller counts the
// worker into its backend when it becomes active.
func (s *Scheduler) addWorker() *worker {
	p := s.platforms[len(s.workers)%len(s.platforms)]
	wk := &worker{id: len(s.workers), clk: cycles.NewClock(), pname: p.Name(), beIdx: -1}
	for i, bs := range s.bstates {
		if bs.platform.Name() == wk.pname {
			wk.beIdx = i
		}
	}
	if wk.beIdx < 0 {
		if !s.w.HasPlatform(wk.pname) {
			panic(fmt.Sprintf("sched: worker platform %q is not a backend of this Wasp (use wasp.WithPlatforms)", wk.pname))
		}
		wk.beIdx = len(s.bstates)
		s.bstates = append(s.bstates, &backendState{platform: p})
	}
	s.workers = append(s.workers, wk)
	return wk
}

// NumWorkers reports the active worker-pool width. This is the fleet
// size except while virtual-mode autoscaling has parked a suffix of the
// fleet (SetVirtualWorkers); parked workers keep their clocks and run
// counts but take no work.
func (s *Scheduler) NumWorkers() int {
	n := 0
	for _, bs := range s.bstates {
		n += bs.workers
	}
	return n
}

// Submit schedules one virtine execution — the asynchronous analogue of
// wasp.Run. The returned Ticket is the future for its result.
func (s *Scheduler) Submit(img *guest.Image, cfg wasp.RunConfig) *Ticket {
	return s.submitOne(Request{Img: img, Cfg: cfg}, false)
}

// SubmitAt schedules a virtine execution arriving at the given virtual
// time. The assigned worker's clock first advances to the arrival time,
// so queueing delay is measured against it.
func (s *Scheduler) SubmitAt(arrival uint64, img *guest.Image, cfg wasp.RunConfig) *Ticket {
	return s.submitOne(Request{Arrival: arrival, Img: img, Cfg: cfg}, true)
}

// SubmitFn schedules an arbitrary task on the worker pool.
func (s *Scheduler) SubmitFn(fn Task) *Ticket {
	return s.submitOne(Request{Fn: fn}, false)
}

// SubmitFnAt schedules an arbitrary task arriving at the given virtual
// time.
func (s *Scheduler) SubmitFnAt(arrival uint64, fn Task) *Ticket {
	return s.submitOne(Request{Arrival: arrival, Fn: fn}, true)
}

// SubmitBatch schedules a burst of requests in one shot: one ticket
// slab, one queue lock acquisition, and one worker wake for the whole
// burst, instead of per-submission costs. Per-ticket semantics are
// identical to the equivalent sequence of Submit/SubmitFn calls;
// declared arrivals in the requests are ignored (use SubmitBatchAt).
func (s *Scheduler) SubmitBatch(reqs []Request) []*Ticket {
	return s.submitBatch(reqs, false)
}

// SubmitBatchAt is SubmitBatch for requests with declared virtual
// arrival times. Without an Admission policy, batching is a pure
// optimization: virtual mode dispatches the batch in submission order,
// producing exactly the per-ticket schedule of the equivalent SubmitAt
// sequence. With an Admission policy attached, virtual mode dispatches
// the batch event-driven with the weighted per-image pick — the
// deterministic multi-tenant fairness substrate.
func (s *Scheduler) SubmitBatchAt(reqs []Request) []*Ticket {
	return s.submitBatch(reqs, true)
}

// imageTicket is the slab element of a submission with an image
// request: the ticket and, beside it, the run config its cfg points at.
type imageTicket struct {
	Ticket
	cfg wasp.RunConfig
}

// oneTicket is the one allocation of a single submission: its ticket,
// the run config beside it, and the one-element list the core takes.
type oneTicket struct {
	imageTicket
	list [1]*Ticket
}

// submitOne builds and routes the ticket of a single submission.
func (s *Scheduler) submitOne(r Request, hasArrival bool) *Ticket {
	o := new(oneTicket)
	o.list[0] = &o.Ticket
	initTicket(&o.Ticket, &o.cfg, &r, hasArrival)
	s.submitTickets(o.list[:])
	return &o.Ticket
}

// submitBatch builds the tickets of a batch submission and routes them
// in.
func (s *Scheduler) submitBatch(reqs []Request, hasArrival bool) []*Ticket {
	n := len(reqs)
	if n == 0 {
		return nil
	}
	// One slab for the whole burst: the tickets of a batch are allocated
	// contiguously, and their pointers share the one backing array. A
	// batch with an image request takes a slab of imageTickets instead.
	var slab []Ticket
	var islab []imageTicket
	for i := range reqs {
		if reqs[i].Img != nil {
			islab = make([]imageTicket, n)
			break
		}
	}
	if islab == nil {
		slab = make([]Ticket, n)
	}
	tickets := make([]*Ticket, n)
	for i := range reqs {
		if islab != nil {
			tickets[i] = &islab[i].Ticket
			initTicket(tickets[i], &islab[i].cfg, &reqs[i], hasArrival)
		} else {
			tickets[i] = &slab[i]
			initTicket(tickets[i], nil, &reqs[i], hasArrival)
		}
	}
	s.submitTickets(tickets)
	return tickets
}

// initTicket fills a new ticket from its request. An image request's
// config is copied to cfg, the slot beside the ticket.
func initTicket(t *Ticket, cfg *wasp.RunConfig, r *Request, hasArrival bool) {
	if hasArrival {
		t.Arrival, t.hasArrival = r.Arrival, true
	}
	if r.Img != nil {
		*cfg = r.Cfg
		t.img, t.cfg = r.Img, cfg
		t.Image, t.memBytes = r.Img.Name, r.Img.MemBytes()
	}
	t.run, t.cost = r.Fn, r.Cost
	if r.Image != "" {
		t.Image = r.Image // the tag overrides the image identity
	}
}

// placeWeightsLocked computes the ticket's placement weights, one per
// fleet backend (nil = unrestricted: no placer attached). busy, when
// non-nil, is the per-backend count of workers busy at the decision
// time and fills each backend's Busy — meaningful only in virtual mode,
// where worker clocks are coherent under the core lock. Caller holds
// the core lock.
func (s *Scheduler) placeWeightsLocked(t *Ticket, busy []int) []float64 {
	if s.placer == nil {
		return nil
	}
	infos := make([]placement.BackendInfo, len(s.bstates))
	for i, bs := range s.bstates {
		infos[i] = placement.BackendInfo{
			Platform: bs.platform,
			Workers:  bs.workers,
			SvcEWMA:  bs.svcEWMA,
		}
		if busy != nil {
			infos[i].Busy = busy[i]
		}
	}
	svc, entries := s.imgStats.get(t.Image)
	img := placement.ImageInfo{Name: t.Image, MemBytes: t.memBytes, SvcEWMA: svc, EntriesEWMA: entries}
	ws := s.placer.Place(img, infos)
	if len(ws) < len(s.bstates) {
		return nil // short or nil return: treat as unrestricted
	}
	return ws
}

// anyEligible reports whether some backend may serve a ticket with
// these weights (nil = unrestricted).
func anyEligible(ws []float64) bool {
	if ws == nil {
		return true
	}
	for _, w := range ws {
		if w > 0 {
			return true
		}
	}
	return false
}

// eligibleOn reports whether backend beIdx may serve a ticket with
// these weights.
func eligibleOn(ws []float64, beIdx int) bool {
	return ws == nil || ws[beIdx] > 0
}

// noteServiceLocked folds a completed ticket's service time into the
// placement EWMAs (per backend and per image). Caller holds the core
// lock; called only while a placer is attached.
func (s *Scheduler) noteServiceLocked(t *Ticket, wk *worker) {
	bs := s.bstates[wk.beIdx]
	bs.svcEWMA = stats.EWMA(bs.svcEWMA, t.ServiceCycles())
	if t.Image != "" {
		var entries uint64
		if t.res != nil {
			entries = t.res.Entries
		}
		s.imgStats.note(t.Image, t.ServiceCycles(), entries)
	}
}

// vetLocked is the submission gate every core applies per ticket: one
// without exactly one kind of work, or whose image no backend may
// serve, is rejected here rather than parked forever. It returns the
// placement weights it computed (busy as in placeWeightsLocked). Caller
// holds the core lock.
func (s *Scheduler) vetLocked(t *Ticket, busy []int) (weights []float64, ok bool) {
	if t.img != nil && (t.run != nil || t.cost > 0) || t.img == nil && (t.run != nil) == (t.cost > 0) {
		s.rejectLocked(t, errWork)
		return nil, false
	}
	weights = s.placeWeightsLocked(t, busy)
	if !anyEligible(weights) {
		s.rejectLocked(t, ErrPlacement)
		return nil, false
	}
	return weights, true
}

// rejectLocked fails t with err and books the rejection against its
// image's admission telemetry. Caller holds the core lock.
func (s *Scheduler) rejectLocked(t *Ticket, err error) {
	t.err = err
	if s.adm != nil {
		s.adm.noteRejected(t.Image)
	}
}

// submitTickets routes a prepared ticket slice into the scheduler. It
// is the single entry point behind every Submit variant: the read lock
// lets submits proceed concurrently while excluding Close, so a submit
// racing or following Close yields rejected (ErrClosed) tickets instead
// of a panic, and Submitted always counts the attempt.
func (s *Scheduler) submitTickets(ts []*Ticket) {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	base := s.submitted.Add(uint64(len(ts))) - uint64(len(ts))
	if tr := s.tracer; tr.Enabled() {
		// Sequence numbers correlate a ticket's events across lanes;
		// one submit event covers the whole burst (not one per ticket —
		// the hot path's budget is a single emit per burst plus one per
		// completed ticket).
		for i, t := range ts {
			t.seq = base + uint64(i) + 1
		}
		tr.Instant(obs.ControlLane, obs.KindSubmit, "submit",
			ts[0].Arrival, base+1, uint64(len(ts)), 0)
	}
	var rejected []*Ticket
	if s.closed {
		s.core.Lock()
		for _, t := range ts {
			s.rejectLocked(t, ErrClosed)
		}
		s.core.Unlock()
		rejected = ts
	} else {
		rejected = s.core.submit(ts)
	}
	// Rejected tickets never run and their error is already set: account
	// them and unblock waiters. No core lock is held here (core.submit
	// released its own), so touch only the ticket and atomic counters.
	for _, t := range rejected {
		s.rejected.Add(1)
		t.finish()
	}
}

// serve runs one ticket on a worker, stamping its virtual-time bounds
// and booking the completion in the shared counters. The serving core
// folds the result into its own dispatch state, then calls retire.
func (s *Scheduler) serve(wk *worker, t *Ticket) {
	wk.clk.AdvanceTo(t.Arrival)
	t.Start = wk.clk.Now()
	if !t.hasArrival {
		t.Arrival = t.Start
	}
	t.Worker = wk.id
	t.Platform = wk.pname
	if t.cost > 0 {
		wk.clk.Advance(t.cost)
	} else {
		t.res, t.err = s.runTask(wk, t)
	}
	t.Done = wk.clk.Now()
	wk.runs.Add(1)
	s.completed.Add(1)
	s.bstates[wk.beIdx].completed.Add(1)
	if t.memBytes > 0 {
		// Feed the backend that served the ticket the backlog it found
		// at submit: its size class's pool shrinks when idle.
		s.w.ObserveLoadOn(wk.pname, t.memBytes, t.DepthAtSubmit)
	}
}

// PanicError is the error of a ticket whose task panicked: the panic
// value and the stack it was raised on.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("sched: task panicked: %v", e.Value) }

// runTask does the ticket's work. A panic in it — a host-side task
// function, or a bug below RunOn — fails the ticket instead of unwinding
// through the dispatch core: everything after serve (the admission
// telemetry, retire) must run for the waiter to return and Submitted ==
// Completed + Rejected to hold, and on a lent lane the stack above
// belongs to some other caller's Wait.
func (s *Scheduler) runTask(wk *worker, t *Ticket) (res *wasp.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	if t.img != nil {
		// Image tickets execute on the serving worker's pinned backend:
		// its platform's Fig 5 costs, its shell pools, its snapshots.
		return s.w.RunOn(wk.pname, t.img, *t.cfg, wk.clk)
	}
	return t.run(wk.clk)
}

// retire publishes a served ticket: its trace span, then the waiters.
func (s *Scheduler) retire(wk *worker, t *Ticket) {
	if tr := s.tracer; tr.Enabled() {
		// One span per serviced ticket: the worker lane carries the
		// service window, arg0 carries the arrival so the exporter can
		// render queueing delay and the submission→service flow arrow.
		name := t.Image
		if name == "" {
			name = "task"
		}
		tr.Span(wk.id, obs.KindTicket, name,
			t.Start, t.Done, t.seq, t.Arrival, uint64(t.DepthAtSubmit))
	}
	t.finish()
}

// PeakQueueDepth reports the high-water queue depth (real mode) or the
// peak busy-worker count observed at submission (virtual mode).
func (s *Scheduler) PeakQueueDepth() int { return int(s.peakDepth.Load()) }

// Submitted reports lifetime submission attempts, including rejected
// ones; after a drain, Submitted == Completed + Rejected.
func (s *Scheduler) Submitted() uint64 { return s.submitted.Load() }

// Completed reports how many tickets have finished service.
func (s *Scheduler) Completed() uint64 { return s.completed.Load() }

// Rejected reports tickets that never ran: submissions after Close,
// tickets shed by Admission.MaxQueued, tickets no backend may serve,
// and malformed batch requests.
func (s *Scheduler) Rejected() uint64 { return s.rejected.Load() }

// AdmissionStats snapshots one image's admission telemetry. The second
// return is false when no Admission policy is attached or the image has
// never been seen.
func (s *Scheduler) AdmissionStats(image string) (AdmissionStats, bool) {
	if s.adm == nil {
		return AdmissionStats{}, false
	}
	s.core.Lock()
	defer s.core.Unlock()
	return s.adm.statsLocked(image)
}

// AdmissionImages lists the image identities the admission layer has
// seen, sorted; nil when no policy is attached.
func (s *Scheduler) AdmissionImages() []string {
	if s.adm == nil {
		return nil
	}
	s.core.Lock()
	defer s.core.Unlock()
	return s.adm.imagesLocked()
}

// Close stops accepting work and waits for in-flight tickets to drain.
// Close is idempotent; a Submit racing or following Close returns a
// ticket that fails with ErrClosed.
func (s *Scheduler) Close() {
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	// Once, so that a Close racing the first one also returns only after
	// the core has drained.
	s.closeOnce.Do(s.core.close)
}

// errRealMode is SetVirtualWorkers' error on a real-mode scheduler.
var errRealMode = errors.New("sched: SetVirtualWorkers is a virtual-mode primitive")

// SetVirtualWorkers resizes the active virtual fleet to n workers at
// virtual time `at` — the autoscaling primitive. Growth reactivates
// parked workers (or creates new ones, pinned round-robin over the
// fleet's platforms like the constructor) and advances every
// (re)activated worker's clock to at least `at`, so new capacity can
// never serve work before the scaling decision that created it.
// Shrink parks the highest-id workers first: their clocks and run
// counts are retained (Makespan and WorkerInfo still see them) but
// they take no further work and leave the ready sets. Returns the
// resulting active width. Virtual mode only — real-mode fleets are
// goroutines, not clocks — and an error otherwise, with the fleet
// unchanged. Call between submissions, like every other virtual-mode
// read.
func (s *Scheduler) SetVirtualWorkers(n int, at uint64) (int, error) {
	c, ok := s.core.(*virtualCore)
	if !ok {
		return 0, errRealMode
	}
	if n < 1 {
		n = 1
	}
	return c.resize(n, at), nil
}

// Makespan reports the maximum worker-clock value — the virtual time at
// which the last worker went idle. Call only after Close (real mode) or
// between submissions (virtual mode); worker clocks are unsynchronized
// while workers run.
func (s *Scheduler) Makespan() uint64 {
	var max uint64
	for _, wk := range s.workers {
		if n := wk.clk.Now(); n > max {
			max = n
		}
	}
	return max
}

// WorkerLoad is one worker's identity and lifetime completion count.
type WorkerLoad struct {
	Worker   int
	Platform string
	Runs     uint64
}

// WorkerInfo reports each worker's pinned platform alongside its
// completed-run count. Unlike Makespan, the counts are atomic, so this
// diagnostic read is safe even while workers are executing.
func (s *Scheduler) WorkerInfo() []WorkerLoad {
	out := make([]WorkerLoad, len(s.workers))
	for i, wk := range s.workers {
		out[i] = WorkerLoad{Worker: wk.id, Platform: wk.pname, Runs: wk.runs.Load()}
	}
	return out
}

// BackendLoad aggregates one hypervisor backend's slice of the fleet.
type BackendLoad struct {
	Platform  string
	Workers   int
	Completed uint64
}

// BackendLoads reports per-backend worker counts and completed-ticket
// totals, in fleet declaration order — where the work actually landed.
// Safe while workers execute.
func (s *Scheduler) BackendLoads() []BackendLoad {
	out := make([]BackendLoad, len(s.bstates))
	for i, bs := range s.bstates {
		out[i] = BackendLoad{
			Platform:  bs.platform.Name(),
			Workers:   bs.workers,
			Completed: bs.completed.Load(),
		}
	}
	return out
}

// String summarizes scheduler state for diagnostics, including each
// backend's worker count and completed-ticket total so a mixed fleet
// shows where work landed.
func (s *Scheduler) String() string {
	backends := ""
	for i, bs := range s.bstates {
		if i > 0 {
			backends += " "
		}
		backends += fmt.Sprintf("%s:%dw/%d", bs.platform.Name(), bs.workers, bs.completed.Load())
	}
	return fmt.Sprintf("sched{%v, workers=%d, backends=[%s], submitted=%d, completed=%d, rejected=%d, depth=%d}",
		s.core, len(s.workers), backends, s.Submitted(), s.Completed(), s.Rejected(), s.depth.Load())
}
