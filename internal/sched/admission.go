package sched

import (
	"errors"
	"sort"

	"repro/internal/stats"
)

// ErrAdmission is the error carried by tickets a hard per-image quota
// rejected at submission.
var ErrAdmission = errors.New("sched: per-image admission limit")

// Admission is the per-image admission-control policy (the multi-tenant
// fairness layer). Attaching one via WithAdmission switches dispatch
// from a single FIFO to per-image queues:
//
//   - Hard cap: MaxInFlight bounds each image's concurrently admitted
//     work. With RejectOverflow the excess submission fails immediately
//     with ErrAdmission; without it the ticket is accepted but deferred —
//     it stays parked in its image's queue until the image's in-flight
//     count drops below the cap.
//   - Soft weights: workers pick the next ticket by start-time fair
//     queueing (stride scheduling) across the per-image queues instead
//     of strict FIFO. Each dispatch advances the image's virtual pass by
//     its smoothed service cost divided by its weight, so an image
//     receives service cycles in proportion to its weight and one hot
//     image can no longer starve every other tenant. Equal weights give
//     cycle-proportional round-robin — already a fairness win over FIFO.
//
// In virtual mode, single SubmitAt calls dispatch synchronously in
// submission order (the scheduler cannot reorder work it has not seen);
// caps still apply, with deferral modelled as a later effective start.
// SubmitBatchAt presents a whole arrival trace at once, and with an
// Admission attached the batch is dispatched event-driven with the same
// weighted pick — the deterministic substrate the fairness experiments
// run on.
type Admission struct {
	// MaxInFlight caps each image's admitted-but-not-completed tickets.
	// 0 means unlimited.
	MaxInFlight int
	// RejectOverflow selects the hard-cap behavior: true rejects the
	// excess submission with ErrAdmission; false (the default) defers it
	// in the image's queue until a slot frees.
	RejectOverflow bool
	// MaxPerBackend caps each image's in-flight tickets per hypervisor
	// backend — capacity isolation inside a platform, not just across
	// the fleet ("image X may hold at most 1 KVM worker"), so a hot
	// image cannot monopolize the backend the placement policy prefers
	// for everyone. Real mode enforces it at pop time (a worker skips
	// images already holding their allotment of its backend); virtual
	// mode models the wait as a delayed start on the capped backend
	// while the placement bias weighs spilling to another backend
	// against waiting. 0 means unlimited. Meaningful only on multi-
	// backend fleets — on a single backend it duplicates MaxInFlight
	// deferral.
	MaxPerBackend int
	// MaxQueued bounds each image's waiting tickets in the real-mode
	// queue; beyond it, submissions shed with ErrAdmission even in
	// deferral mode. Deferred tickets occupy the scheduler's shared
	// bounded queue, so without this a capped image's backlog can fill
	// the queue cap and block every other tenant's Submit at the
	// enqueue — set MaxQueued below the queue cap to keep deferral from
	// reintroducing the starvation it exists to prevent. 0 means
	// unlimited. (Virtual mode models deferral in time, not queue
	// slots, so the bound does not apply there.)
	MaxQueued int
	// Weights maps image identity to its scheduling weight. Images not
	// listed get DefaultWeight.
	Weights map[string]int
	// DefaultWeight is the weight of unlisted images; 0 means 1.
	DefaultWeight int
}

// WeightFor resolves an image's effective scheduling weight under this
// policy: its Weights entry, else DefaultWeight, else 1. Exported so
// reporting layers compute entitlements from the exact weights the
// scheduler enforces.
func (a Admission) WeightFor(image string) int {
	if w, ok := a.Weights[image]; ok && w > 0 {
		return w
	}
	if a.DefaultWeight > 0 {
		return a.DefaultWeight
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
	// InFlight is the image's dispatched-but-not-completed count (real
	// mode) and Queued its tickets still waiting in the image queue.
	InFlight, Queued int
	// QueueShare is the image's fraction of all queued tickets.
	QueueShare float64
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

// imageState is one image's queues and telemetry inside the admission
// layer, guarded by the owning scheduler's core lock. The pass, weight
// and counters are shared; each core owns one half of the rest — the
// real core the enqueue side (real.go), the virtual core the span
// history (virtual.go).
type imageState struct {
	name   string
	weight int
	pass   uint64 // stride-scheduling virtual start tag

	queue    []*Ticket // real core: waiting tickets, FIFO within the image
	activeAt int       // real core: index in admission.active while queue is non-empty
	inFlight int       // real core: dispatched, not yet completed

	// inFlightBy counts dispatched-but-not-completed tickets per backend
	// index (real core, MaxPerBackend only; nil otherwise — the virtual
	// core models the quota in time instead, see quotaStart).
	inFlightBy []int

	spans      []admitSpan // virtual core: admission spans of dispatched tickets (hard cap only)
	maxArrival uint64      // virtual core: high-water arrival, the prune horizon

	submitted, completed, rejected uint64
	svcEWMA                        uint64
	queueSum                       uint64
}

// admission is the runtime state behind an Admission policy.
type admission struct {
	pol    Admission
	images map[string]*imageState
	vtime  uint64 // pass of the most recently dispatched image (global virtual time)
	queued int    // real core: tickets waiting across all image queues

	// active lists the images with a non-empty queue (real core), so the
	// fair pick walks the backlog instead of every image ever seen.
	active []*imageState
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

// complete folds a ticket finished on backend beIdx back into its
// image: in-flight release (global and per-backend), service-time EWMA
// (the stride numerator), and queue-delay accounting. Caller holds the
// core lock.
func (a *admission) complete(t *Ticket, beIdx int) {
	st := a.state(t.Image)
	if st.inFlight > 0 {
		st.inFlight--
	}
	if beIdx < len(st.inFlightBy) && st.inFlightBy[beIdx] > 0 {
		st.inFlightBy[beIdx]--
	}
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
		InFlight:      st.inFlight,
		Queued:        len(st.queue),
		SvcEWMA:       st.svcEWMA,
		QueueCycleSum: st.queueSum,
		Weight:        st.weight,
	}
	if a.queued > 0 {
		out.QueueShare = float64(out.Queued) / float64(a.queued)
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
