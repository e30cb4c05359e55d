// Package sched is the unified virtine scheduler: the one dispatch
// substrate every concurrent client of the Wasp runtime goes through.
//
// The paper anticipates virtines behaving "like asynchronous functions
// or futures" (§2), and the Wasp runtime (§5) is built to serve many
// concurrent invocations. sched is where core.Future, the serverless
// platform and httpd all dispatch: a bounded worker pool in which each
// worker owns a virtual clock (modelling one core's TSC, exactly like
// the paper's per-core rdtsc methodology), a ticket/future API,
// queue-depth accounting, and completion hooks.
//
// Two dispatch cores sit behind the same API and semantics (the core
// interface below):
//
//   - Real mode (New, real.go): N worker lanes drain a bounded queue,
//     each driven by its resident goroutine or by a caller blocked in
//     Ticket.Wait, which borrows an idle lane instead of paying two
//     thread wake-ups. Virtines on different workers execute
//     concurrently on the host — this is the mode the throughput
//     benchmarks exercise, and it is what makes the sharded shell pools
//     in internal/wasp matter.
//   - Virtual mode (NewVirtual, virtual.go): deterministic event-driven
//     dispatch in the submitting goroutine. Tickets are assigned to the
//     earliest-free worker in virtual time; queueing delay comes from
//     the worker clocks, i.e. from real queue state. The serverless
//     Fig 15 simulation uses this mode so results stay reproducible.
//
// Bursts submit through SubmitBatch/SubmitBatchAt: one lock
// acquisition, one ticket-slab allocation, and one worker wake for the
// whole burst, with an optional batch-aware completion hook
// (WithOnBatchComplete) firing once when the last ticket of the burst
// finishes. Multi-tenant deployments attach an Admission policy
// (WithAdmission): every ticket carries its image identity, and
// dispatch switches from one FIFO to per-image queues with hard
// in-flight quotas (ErrAdmission rejection or deferred queueing) and
// weighted fair picking, so one hot image cannot starve other tenants
// of workers. See the Admission type for the policy semantics.
//
// The fleet may span heterogeneous hypervisor backends (Fig 5):
// WithWorkerPlatforms pins each worker to a vmm.Platform, and image
// tickets execute through wasp.RunOn on their worker's backend, drawing
// shells only from that backend's pools. A placement policy
// (WithPlacer, internal/placement) maps each image to its eligible
// backends with weights: a worker only pops tickets its backend may
// serve, the deterministic virtual dispatcher uses the weights as a
// cost bias when choosing among eligible workers, and real-mode dispatch
// steers each ticket toward its decisively-preferred backend while that
// backend has idle capacity (other eligible backends take over once it
// saturates). An Admission policy may additionally cap one image's
// in-flight tickets per backend (MaxPerBackend): real mode skips capped
// images at pop time, virtual mode models the wait as a delayed start.
// Admission decides whether a ticket runs; placement decides where.
//
// The scheduler is also the drive shaft of true Wasp+CA (Fig 8): when
// the runtime cleans shells asynchronously, real-mode workers scrub
// dirty shells on a low-priority lane whenever the ticket queue is
// momentarily empty (cleaning rides the pool's idle capacity, never a
// request clock), and virtual mode drives the runtime's Cleaner as a
// dedicated virtual core whose clock absorbs every zeroing cost
// (CleanerCycles). Completed image tickets additionally feed their
// queue-depth and service-time telemetry back into the runtime's
// per-image pool-sizing policy (wasp.ObserveLoad), so bursts prewarm
// the warm shell pool and idle periods shrink it.
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
// worker serves). Rejecting at submission keeps an unservable ticket
// from occupying the queue forever.
var ErrPlacement = errors.New("sched: no eligible backend for image")

// errNilTask rejects a batch Request carrying neither an image nor a
// task function.
var errNilTask = errors.New("sched: request has neither image nor task")

// Ticket is the future for one scheduled invocation. Wait blocks until
// the work completes; the timing fields (Arrival, Start, Done, Worker,
// DepthAtSubmit) are valid once Wait has returned.
type Ticket struct {
	run  Task
	done chan struct{}
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
	// untagged tasks). Admission control and the per-image pool-sizing
	// telemetry key on it.
	Image string

	// notBefore is the earliest virtual time admission control allows
	// service to start (virtual-mode deferred queueing); 0 means
	// unconstrained.
	notBefore uint64

	// seq is the ticket's submission sequence number, assigned only
	// while a tracer is recording — the correlation id tying the
	// ticket's trace events together across lanes.
	seq uint64

	// memBytes is the guest-memory size class of an image submission;
	// 0 for raw tasks. Completed image tickets feed the pool-sizing
	// policy with it.
	memBytes int

	// img and cfg carry an image submission's work; the worker that pops
	// the ticket runs the image on its own pinned backend (wasp.RunOn),
	// which is why image tickets are not baked into a platform-blind
	// closure. Raw tasks use run instead.
	img *guest.Image
	cfg wasp.RunConfig

	// elig is the placement weight per scheduler backend (nil when no
	// placer is attached or the ticket is untagged): <= 0 means the
	// backend's workers must not pop this ticket. Real mode fills it at
	// enqueue; virtual mode recomputes at each placement decision so
	// load-sensitive policies see decision-time state.
	elig []float64

	// prefBE is the backend real-mode dispatch steers this ticket toward
	// (weight-aware popping): a worker on another backend leaves the
	// ticket alone while the preferred backend still has an idle worker.
	// -1 means no steering — eligible workers race freely.
	prefBE int

	// lender is the real core whose queue holds (or held) the ticket; nil
	// for virtual-mode and never-enqueued tickets. Wait helps it serve
	// the queue while queued is set.
	lender *realCore

	// batch links tickets submitted in one SubmitBatch burst for the
	// batch completion hook; nil for single submissions.
	batch *batchGroup

	res *wasp.Result
	err error
}

// batchGroup counts down one burst's outstanding tickets and fires the
// batch completion hook once, when the last ticket (including rejected
// ones) finishes.
type batchGroup struct {
	tickets []*Ticket
	pending atomic.Int64
	fn      func([]*Ticket)
}

// finishBatch retires this ticket from its burst, invoking the batch
// hook if it was the last one out. It then drops the ticket's work
// closure and batch link, freeing the run closures' captured request
// environments and the burst's ticket-pointer graph. The slab's Ticket
// structs themselves (and their results) stay reachable while any one
// ticket is retained — that is the deliberate cost of the single-slab
// allocation; callers holding tickets long-term should copy out the
// results they need.
func (t *Ticket) finishBatch() {
	bg := t.batch
	t.run = nil
	t.img = nil
	t.cfg = wasp.RunConfig{}
	t.elig = nil
	t.batch = nil
	if bg == nil {
		return
	}
	if bg.pending.Add(-1) == 0 && bg.fn != nil {
		bg.fn(bg.tickets)
	}
}

// Wait blocks until the ticket's work has completed and returns its
// result. Wait may be called any number of times, from any goroutine.
// On a real-mode ticket that is still queued, the caller first drives
// an idle worker lane itself (realCore.help): it may run this ticket's
// task, hypercall handler and completion hook — or, when the fair pick
// says so, another caller's — on its own goroutine.
func (t *Ticket) Wait() (*wasp.Result, error) {
	if t.lender != nil {
		t.lender.help(t)
	}
	<-t.done
	return t.res, t.err
}

// QueueCycles reports how long the ticket waited between its declared
// virtual arrival and the start of service, including any admission
// deferral. Tickets submitted without an arrival time (Submit/SubmitFn)
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

// Request describes one submission inside a batch: either an image to
// run (Img + Cfg) or a raw task (Fn). Image, when set, overrides the
// ticket's image identity — the tag admission control and per-image
// telemetry key on (raw tasks are untagged otherwise). Arrival is the
// declared virtual arrival time, used by SubmitBatchAt only.
type Request struct {
	Arrival uint64
	Img     *guest.Image
	Cfg     wasp.RunConfig
	Fn      Task
	Image   string
}

// worker is one execution lane with its own virtual clock — the model
// of one physical core serving virtines back to back — pinned to one
// hypervisor backend: every image ticket it pops executes via
// wasp.RunOn on that platform. runs is atomic so WorkerLoads stays a
// safe diagnostic read even while workers execute.
type worker struct {
	id    int
	clk   *cycles.Clock
	runs  atomic.Uint64
	pname string // platform name (always set; the runtime default when unpinned)
	beIdx int    // index into the scheduler's backend states

	// lastImage/lastStart/lastDone describe the worker's most recent run
	// in virtual mode (owned by the virtual core, under its lock):
	// workers serialize, so the triple is exactly "what is this worker
	// running at time T" for any T the event-driven dispatcher asks about
	// — the basis of the per-backend admission quota's virtual-time
	// model. Unused in real mode.
	lastImage string
	lastStart uint64
	lastDone  uint64

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
	// resize sets the active worker-pool width at a virtual time.
	resize(n int, at uint64) int
	// close stops the core once the scheduler has stopped accepting work.
	close()
}

// Scheduler is a bounded worker-pool executor over a Wasp runtime: the
// shared front end over one dispatch core.
type Scheduler struct {
	w    *wasp.Wasp
	core core

	// cleaners are the runtime's Wasp+CA background cleaners (one per
	// backend), when async cleaning is on: real-mode workers drain them
	// on the idle lane; virtual mode drives each as a dedicated virtual
	// core.
	cleaners      []*wasp.Cleaner
	cleanerDrains atomic.Uint64

	// helped counts real-mode tickets served on a lane lent to a waiter
	// (Ticket.Wait) instead of by the lane's resident goroutine.
	helped atomic.Uint64

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

	qcap int // WithQueueCap, consumed by the real core

	closeMu   sync.RWMutex // guards closed; submits hold the read side
	closed    bool
	closeOnce sync.Once
	workers   []*worker

	depth      atomic.Int64
	peakDepth  atomic.Int64
	submitted  atomic.Uint64
	completed  atomic.Uint64
	rejected   atomic.Uint64
	onComplete func(*Ticket)
	onBatch    func([]*Ticket)

	// tracer is the attached flight recorder (nil or disabled: every
	// instrumentation site is one nil check + one atomic load).
	tracer *obs.Tracer
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithQueueCap bounds the real-mode submission queue (default
// 4×workers). Submit blocks when the queue is full — backpressure
// instead of unbounded growth.
func WithQueueCap(n int) Option {
	return func(s *Scheduler) {
		if n > 0 {
			s.qcap = n
		}
	}
}

// WithOnComplete installs a completion hook, invoked once per ticket
// that finishes service, after its timing fields are final and before
// Wait unblocks (rejected tickets never run, so the hook does not fire
// for them). In real mode the hook runs on whichever goroutine drove
// the ticket's lane — a worker goroutine or a caller inside Ticket.Wait,
// not necessarily this ticket's — and must be safe for concurrent use;
// in virtual mode it runs in the submitting goroutine and must not call
// back into the scheduler.
func WithOnComplete(fn func(*Ticket)) Option {
	return func(s *Scheduler) { s.onComplete = fn }
}

// WithOnBatchComplete installs a batch completion hook, invoked exactly
// once per SubmitBatch/SubmitBatchAt burst when the burst's last ticket
// finishes (rejected tickets count as finished). In real mode it runs
// on whichever goroutine retired the last ticket; in virtual mode it
// runs in the submitting goroutine and must not call back into the
// scheduler.
func WithOnBatchComplete(fn func([]*Ticket)) Option {
	return func(s *Scheduler) { s.onBatch = fn }
}

// WithAdmission attaches a per-image admission-control policy. See
// Admission for the hard-cap and weighted-fairness semantics.
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

// WithPlacer attaches a placement policy (internal/placement): each
// image ticket becomes poppable only by workers on its eligible
// backends, and the deterministic virtual dispatcher biases the choice
// among eligible workers by the policy's weights. A ticket whose image
// has no eligible backend is rejected with ErrPlacement at submission.
func WithPlacer(p placement.Placer) Option {
	return func(s *Scheduler) { s.placer = p }
}

// WithTracer attaches a flight recorder (internal/obs): the scheduler
// emits submission, placement/steering, ticket-service, autoscaling and
// cleaner-drain events into it, and forwards it to the Wasp runtime's
// own instrumentation sites via the ticket execution path. A nil or
// disabled tracer costs one atomic load per instrumented operation.
func WithTracer(tr *obs.Tracer) Option {
	return func(s *Scheduler) { s.tracer = tr }
}

// New builds a real-mode scheduler: n worker goroutines, each with its
// own virtual clock, draining a bounded queue.
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
	s := &Scheduler{w: w, cleaners: w.Cleaners()}
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

// Wasp exposes the underlying runtime.
func (s *Scheduler) Wasp() *wasp.Wasp { return s.w }

// Submit schedules one virtine execution — the asynchronous analogue of
// wasp.Run. The returned Ticket is the future for its result.
func (s *Scheduler) Submit(img *guest.Image, cfg wasp.RunConfig) *Ticket {
	return s.submitOne(0, false, img, cfg, nil)
}

// SubmitAt schedules a virtine execution arriving at the given virtual
// time. The assigned worker's clock first advances to the arrival time,
// so queueing delay is measured against it.
func (s *Scheduler) SubmitAt(arrival uint64, img *guest.Image, cfg wasp.RunConfig) *Ticket {
	return s.submitOne(arrival, true, img, cfg, nil)
}

// SubmitFn schedules an arbitrary task on the worker pool.
func (s *Scheduler) SubmitFn(fn Task) *Ticket {
	return s.submitOne(0, false, nil, wasp.RunConfig{}, fn)
}

// SubmitFnAt schedules an arbitrary task arriving at the given virtual
// time.
func (s *Scheduler) SubmitFnAt(arrival uint64, fn Task) *Ticket {
	return s.submitOne(arrival, true, nil, wasp.RunConfig{}, fn)
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

func (s *Scheduler) submitBatch(reqs []Request, hasArrival bool) []*Ticket {
	n := len(reqs)
	if n == 0 {
		return nil
	}
	// One slab for the whole burst: the tickets of a batch are allocated
	// contiguously, and their pointers share the one backing array.
	slab := make([]Ticket, n)
	tickets := make([]*Ticket, n)
	var bg *batchGroup
	if s.onBatch != nil {
		bg = &batchGroup{tickets: tickets, fn: s.onBatch}
		bg.pending.Store(int64(n))
	}
	for i := range reqs {
		r := &reqs[i]
		t := &slab[i]
		t.done = make(chan struct{})
		t.batch = bg
		if hasArrival {
			t.Arrival = r.Arrival
			t.hasArrival = true
		}
		s.initTicket(t, r.Img, r.Cfg, r.Fn, r.Image)
		tickets[i] = t
	}
	s.submitTickets(tickets)
	return tickets
}

func (s *Scheduler) submitOne(arrival uint64, hasArrival bool, img *guest.Image, cfg wasp.RunConfig, fn Task) *Ticket {
	t := &Ticket{Arrival: arrival, hasArrival: hasArrival, done: make(chan struct{})}
	s.initTicket(t, img, cfg, fn, "")
	s.submitTickets([]*Ticket{t})
	return t
}

// initTicket fills a ticket's work and identity from an image-or-task
// submission — the single source of truth for both the single-submit
// and batch paths. tag, when non-empty, overrides the image identity.
// Image submissions stay as (img, cfg) rather than a closure so the
// serving worker can run them on its own pinned backend.
func (s *Scheduler) initTicket(t *Ticket, img *guest.Image, cfg wasp.RunConfig, fn Task, tag string) {
	t.prefBE = -1
	if img != nil {
		t.img = img
		t.cfg = cfg
		t.Image = img.Name
		t.memBytes = img.MemBytes()
	} else {
		t.run = fn
	}
	if tag != "" {
		t.Image = tag
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
			Platform:  bs.platform,
			Workers:   bs.workers,
			SvcEWMA:   bs.svcEWMA,
			Completed: bs.completed.Load(),
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

// quotaFor is the per-backend in-flight quota that applies to t (0 =
// none: no MaxPerBackend policy, or an untagged ticket).
func (s *Scheduler) quotaFor(t *Ticket) int {
	if s.adm == nil || t.Image == "" {
		return 0
	}
	return s.adm.pol.MaxPerBackend
}

// vetLocked is the submission gate every core applies per ticket: one
// with no work, or whose image no backend may serve, is rejected here
// rather than parked forever. It returns the placement weights it
// computed (busy as in placeWeightsLocked). Caller holds the core lock.
func (s *Scheduler) vetLocked(t *Ticket, busy []int) (weights []float64, ok bool) {
	if t.run == nil && t.img == nil {
		s.rejectLocked(t, errNilTask)
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
		close(t.done)
		t.finishBatch()
	}
}

// serve runs one ticket on a worker, stamping its virtual-time bounds
// and booking the completion in the shared counters. The serving core
// folds the result into its own dispatch state, then calls retire.
func (s *Scheduler) serve(wk *worker, t *Ticket) {
	wk.clk.AdvanceTo(t.Arrival)
	if t.notBefore > t.Arrival {
		// Admission deferred the start past the arrival (virtual mode).
		wk.clk.AdvanceTo(t.notBefore)
	}
	t.Start = wk.clk.Now()
	if !t.hasArrival {
		t.Arrival = t.Start
	}
	t.Worker = wk.id
	t.Platform = wk.pname
	t.res, t.err = s.runTask(wk, t)
	t.Done = wk.clk.Now()
	wk.runs.Add(1)
	s.completed.Add(1)
	s.bstates[wk.beIdx].completed.Add(1)
	if t.memBytes > 0 {
		// Feed the pool-sizing policy of the backend that served the
		// ticket: backlog at submit and service time of this image's
		// size class (prewarm under bursts, shrink when idle).
		s.w.ObserveLoadOn(wk.pname, t.Image, t.memBytes, t.DepthAtSubmit, t.Done-t.Start)
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
// through the dispatch core: everything after serve (the steering busy
// count, the admission in-flight release, retire) must run for the
// waiter to return, the image's quota slot to free up and Submitted ==
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
		return s.w.RunOn(wk.pname, t.img, t.cfg, wk.clk)
	}
	return t.run(wk.clk)
}

// retire publishes a served ticket: its trace span, the completion
// hook, and the waiters.
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
	if s.onComplete != nil {
		s.onComplete(t)
	}
	close(t.done)
	t.finishBatch()
}

// QueueDepth reports the number of tickets currently waiting (real
// mode; always 0 in virtual mode, where dispatch is synchronous).
func (s *Scheduler) QueueDepth() int { return int(s.depth.Load()) }

// PeakQueueDepth reports the high-water queue depth (real mode) or the
// peak busy-worker count observed at submission (virtual mode).
func (s *Scheduler) PeakQueueDepth() int { return int(s.peakDepth.Load()) }

// Submitted reports lifetime submission attempts, including rejected
// ones; after a drain, Submitted == Completed + Rejected.
func (s *Scheduler) Submitted() uint64 { return s.submitted.Load() }

// Completed reports how many tickets have finished service.
func (s *Scheduler) Completed() uint64 { return s.completed.Load() }

// Rejected reports tickets that never ran: submissions after Close,
// admission hard-cap rejections, and malformed batch requests.
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

// SetVirtualWorkers resizes the active virtual fleet to n workers at
// virtual time `at` — the autoscaling primitive. Growth reactivates
// parked workers (or creates new ones, pinned round-robin over the
// fleet's platforms like the constructor) and advances every
// (re)activated worker's clock to at least `at`, so new capacity can
// never serve work before the scaling decision that created it.
// Shrink parks the highest-id workers first: their clocks and run
// counts are retained (Makespan and WorkerInfo still see them) but
// they take no further work and leave the dispatch trees and the quota
// model. Returns the resulting active width. Virtual mode only —
// real-mode fleets are goroutines, not clocks — and panics otherwise.
// Call between submissions, like every other virtual-mode read.
func (s *Scheduler) SetVirtualWorkers(n int, at uint64) int {
	if n < 1 {
		n = 1
	}
	return s.core.resize(n, at)
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

// WorkerLoads reports per-worker completed-run counts. Unlike Makespan,
// the counts are atomic, so this diagnostic read is safe even while
// workers are executing.
func (s *Scheduler) WorkerLoads() []uint64 {
	out := make([]uint64, len(s.workers))
	for i, wk := range s.workers {
		out[i] = wk.runs.Load()
	}
	return out
}

// WorkerLoad is one worker's identity and lifetime completion count.
type WorkerLoad struct {
	Worker   int
	Platform string
	Runs     uint64
}

// WorkerInfo reports each worker's pinned platform alongside its
// completed-run count — WorkerLoads with the backend identity the
// multi-platform bench tables and examples print. Safe while workers
// execute (the counts are atomic).
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

// CleanerDrains reports dirty shells this scheduler scrubbed: on the
// real-mode idle-worker lane, or on the virtual cleaner core.
func (s *Scheduler) CleanerDrains() uint64 { return s.cleanerDrains.Load() }

// HelpedRuns reports how many tickets ran inline on a goroutine blocked
// in Ticket.Wait, on a worker lane it borrowed, rather than being handed
// off to the lane's resident goroutine (real mode; 0 in virtual mode).
func (s *Scheduler) HelpedRuns() uint64 { return s.helped.Load() }

// CleanerCycles reports the virtual cleaner cores' clock — the virtual
// time the busiest backend's cleaner last went idle, i.e. the total
// zeroing work Wasp+CA moved off the request path (virtual mode; 0 when
// cleaning is synchronous or real-mode).
func (s *Scheduler) CleanerCycles() uint64 {
	var max uint64
	for _, c := range s.cleaners {
		if n := c.Cycles(); n > max {
			max = n
		}
	}
	return max
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
		s.core, len(s.workers), backends, s.Submitted(), s.Completed(), s.Rejected(), s.QueueDepth())
}
