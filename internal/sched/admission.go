package sched

import (
	"errors"
	"sort"

	"repro/internal/stats"
)

// ErrAdmission is the error carried by tickets the per-image queue
// bound (Admission.MaxQueued) shed at submission.
var ErrAdmission = errors.New("sched: per-image admission limit")

// Admission is the per-image admission-control policy (the multi-tenant
// fairness layer). Attaching one via WithAdmission switches dispatch
// from a single FIFO to per-image queues, and workers pick the next
// ticket by start-time fair queueing (stride scheduling) across them
// instead of strict FIFO. Each dispatch advances the image's virtual
// pass by its smoothed service cost divided by its weight, so an image
// receives service cycles in proportion to its weight and one hot image
// can no longer starve every other tenant. Equal weights give
// cycle-proportional round-robin — already a fairness win over FIFO.
//
// Admission decides in what order images run, never on which backend;
// that is the placer's call (WithPlacer).
//
// In virtual mode, single SubmitAt calls dispatch synchronously in
// submission order (the scheduler cannot reorder work it has not seen).
// SubmitBatchAt presents a whole arrival trace at once, and with an
// Admission attached the batch is dispatched event-driven with the same
// weighted pick — the deterministic substrate the fairness experiments
// run on.
type Admission struct {
	// Weights maps image identity to its scheduling weight. Images not
	// listed, or listed at 0 or below, get weight 1.
	Weights map[string]int
	// MaxQueued bounds each image's waiting tickets in the real-mode
	// queue; beyond it, submissions shed with ErrAdmission. Waiting
	// tickets occupy the scheduler's shared queue, bounded at 4×workers,
	// so without this one tenant's backlog can fill it and block every
	// other tenant's Submit at the enqueue — set MaxQueued below
	// 4×workers to keep a hog's burst from starving the others at
	// submission. 0 means unlimited. (Virtual mode queues in time, not
	// queue slots, so the bound does not apply there.)
	MaxQueued int
}

// WeightFor resolves an image's effective scheduling weight under this
// policy: its Weights entry if above 0, else 1. Exported so reporting
// layers compute entitlements from the exact weights the scheduler
// enforces.
func (a Admission) WeightFor(image string) int {
	if w := a.Weights[image]; w > 0 {
		return w
	}
	return 1
}

// strideUnit is the pass advance for a weight-1 dispatch before any
// service-time telemetry exists.
const strideUnit = 1 << 20

// AdmissionStats is one image's admission-control telemetry.
type AdmissionStats struct {
	// Submitted, Completed and Rejected are lifetime ticket counts for
	// the image (Submitted includes Rejected).
	Submitted, Completed, Rejected uint64
	// InFlight is the image's accepted tickets neither completed nor
	// waiting (Submitted − Rejected − Completed − Queued: in service in
	// real mode, always 0 on a drained or virtual scheduler) and Queued
	// its tickets still waiting in the image queue.
	InFlight, Queued int
	// SvcEWMA is the image's smoothed service time (cycles), fed from
	// completed-ticket telemetry. It is also the stride numerator for
	// the weighted pick.
	SvcEWMA uint64
	// QueueCycleSum accumulates the queueing delay of the image's
	// completed tickets (divide by Completed for the mean).
	QueueCycleSum uint64
	// Weight is the image's effective scheduling weight.
	Weight int
}

// imageState is one image's backlog and telemetry inside the admission
// layer, guarded by the owning scheduler's core lock. Admission hands a
// ticket its image's state once (Ticket.st); everything after reaches it
// through the ticket. The pass, weight and counters are shared, and so
// is the ready heap an image sits on while it has a backlog; each core
// keeps that backlog its own way.
type imageState struct {
	name   string
	weight int
	pass   uint64 // stride-scheduling virtual start tag

	queue []*Ticket // real core: waiting tickets, FIFO within the image
	// backlog is the virtual core's, one weighted batch at a time
	// (dispatchWeighted): the image's tickets in the decision window as
	// a min-heap of batch indices (vheap.go).
	backlog []int

	submitted, completed, rejected uint64
	svcEWMA                        uint64
	queueSum                       uint64
}

// admission is the runtime state behind an Admission policy.
type admission struct {
	pol    Admission
	images map[string]*imageState
	vtime  uint64 // pass of the most recently dispatched image (global virtual time)

	// ready is the fair pick's heap: the images with a backlog, the
	// minimum (pass, name) on top, so a pick costs O(log backlogged
	// images) on either core, not a walk over every tenant ever seen.
	ready []*imageState
}

func newAdmission(pol Admission) *admission {
	return &admission{pol: pol, images: make(map[string]*imageState)}
}

func (a *admission) state(image string) *imageState {
	st := a.images[image]
	if st == nil {
		st = &imageState{name: image, weight: a.pol.WeightFor(image)}
		a.images[image] = st
	}
	return st
}

// stride is the pass advance for one dispatch of st: the image's
// smoothed service cost over its weight, so heavier requests and lighter
// weights both slow an image's claim on the workers.
func (a *admission) stride(st *imageState) uint64 {
	cost := st.svcEWMA
	if cost == 0 {
		cost = strideUnit
	}
	return cost/uint64(st.weight) + 1
}

// activate normalizes a queue going empty→non-empty onto the global
// virtual time, the start-time fair queueing arrival rule: an image idle
// while others ran gets no banked credit, and a newcomer gets no
// priority windfall over images that have been executing.
func (a *admission) activate(st *imageState) {
	if st.pass < a.vtime {
		st.pass = a.vtime
	}
}

// advance charges one dispatch to st: the global virtual time rises to
// the image's pass, then the pass moves on by one stride.
func (a *admission) advance(st *imageState) {
	if st.pass > a.vtime {
		a.vtime = st.pass
	}
	st.pass += a.stride(st)
}

// before is the fair pick's total order: (pass, name).
func (st *imageState) before(o *imageState) bool {
	return st.pass < o.pass || (st.pass == o.pass && st.name < o.name)
}

// enter puts st on the ready heap as its backlog goes from empty to
// non-empty, activated first. The caller of next enters the winner
// again while its backlog is non-empty; its advanced pass is above the
// global virtual time, so that activation changes nothing. Activating on
// entry is activating on pop: every ready image's pass is at least vtime,
// and vtime moves only in advance.
func (a *admission) enter(st *imageState) {
	a.activate(st)
	heapPush(&a.ready, st, (*imageState).before)
}

// next pops the ready image with the lowest (pass, name) — the weighted
// fair pick — and charges it one dispatch. The ready heap must not be
// empty.
func (a *admission) next() *imageState {
	st := heapPop(&a.ready, (*imageState).before)
	a.advance(st)
	return st
}

// complete folds a finished ticket back into its image: service-time
// EWMA (the stride numerator) and queue-delay accounting. Caller holds
// the core lock.
func (a *admission) complete(t *Ticket) {
	st := t.st
	st.completed++
	st.svcEWMA = stats.EWMA(st.svcEWMA, t.ServiceCycles())
	st.queueSum += t.QueueCycles()
}

// noteRejected records a rejection that happened outside tryEnqueue
// (e.g. a submit after Close). Caller holds the core lock.
func (a *admission) noteRejected(image string) {
	st := a.state(image)
	st.submitted++
	st.rejected++
}

// statsLocked snapshots one image. Caller holds the core lock.
func (a *admission) statsLocked(image string) (AdmissionStats, bool) {
	st := a.images[image]
	if st == nil {
		return AdmissionStats{}, false
	}
	out := AdmissionStats{
		Submitted:     st.submitted,
		Completed:     st.completed,
		Rejected:      st.rejected,
		InFlight:      int(st.submitted-st.rejected-st.completed) - len(st.queue),
		Queued:        len(st.queue),
		SvcEWMA:       st.svcEWMA,
		QueueCycleSum: st.queueSum,
		Weight:        st.weight,
	}
	return out, true
}

// imagesLocked lists tracked image identities, sorted. Caller holds the
// core lock.
func (a *admission) imagesLocked() []string {
	out := make([]string, 0, len(a.images))
	for name := range a.images {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
