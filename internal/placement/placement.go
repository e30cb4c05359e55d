// Package placement is the multi-backend placement policy layer: given
// an image and the live state of a heterogeneous worker fleet (KVM and
// Hyper-V workers under one scheduler, Fig 5), a Placer decides which
// hypervisor backends may serve the image and how strongly each is
// preferred.
//
// Placement sits between admission and the pools: admission decides
// WHETHER and in what order a ticket runs (per-image weighted fairness
// and queue bounds, internal/sched); placement decides WHERE (per-backend eligibility and
// weights); the per-platform shell pools (internal/wasp) then serve the
// chosen backend. The two compose — an admitted ticket is dispatched by
// the admission pick and then placed on an eligible backend's worker.
// Placement is a virtual-mode policy: only the deterministic virtual
// scheduler (sched.NewVirtual) consults a Placer, and a real-mode
// scheduler built with one rejects every ticket.
//
// Weight contract. Place returns one weight per backend, aligned with
// the backends slice it was given:
//
//   - weight <= 0: the backend is ineligible — no worker pinned to it
//     may serve the ticket.
//   - weight > 0: eligible; 1/weight is the backend's placement bias in
//     virtual cycles. The deterministic virtual scheduler picks, among
//     eligible workers, the one minimizing start(worker) + 1/weight —
//     cost-aware list scheduling.
//
// Every policy here is a pure function of its inputs, so virtual-mode
// schedules are deterministic: same trace, same fleet, same policy →
// bit-identical placement, cycle counts, and makespan (the root
// determinism suite enforces it).
package placement

import "repro/internal/vmm"

// ImageInfo describes one image at placement time.
type ImageInfo struct {
	// Name is the image identity (the same key admission and the
	// per-image pool telemetry use).
	Name string
	// MemBytes is the image's guest-memory size class.
	MemBytes int
	// SvcEWMA is the image's observed smoothed service time in cycles —
	// 0 before its first completion. The scheduler maintains it per
	// image while a Placer is attached.
	SvcEWMA uint64
	// EntriesEWMA is the image's smoothed guest-entry count per run — how
	// many times the hypervisor re-enters the guest (1 + one per
	// hypercall). 0 before the first completion, treated as 1. It decides
	// which platform's entry/exit profile dominates: a chatty image pays
	// the entry/exit pair per hypercall, a quiet one pays it once.
	EntriesEWMA uint64
}

// BackendInfo is one backend's live state at placement time, populated
// deterministically under the virtual scheduler's dispatch lock.
type BackendInfo struct {
	// Platform is the hypervisor backend (its Fig 5 cost profile).
	Platform vmm.Platform
	// Workers is the number of fleet workers pinned to this backend.
	Workers int
	// Busy is how many of them are mid-ticket at the decision time.
	Busy int
	// SvcEWMA is the smoothed service time of tickets completed on this
	// backend.
	SvcEWMA uint64
}

// Placer maps an image to eligible backends with weights. Implementations
// must be deterministic: no randomness, no wall-clock, no map iteration
// order dependence.
type Placer interface {
	// Place returns one weight per entry of backends (see the package
	// comment for the weight contract). A nil or short return is treated
	// as all-eligible with equal weight.
	Place(img ImageInfo, backends []BackendInfo) []float64
}

// Static pins images to explicit backends — operator policy ("tenant A
// is licensed for KVM hosts only") rather than a cost model.
type Static struct {
	// Pins maps an image name to the platform name that must serve it.
	Pins map[string]string
	// Default is the platform for unpinned images; "" leaves them
	// eligible everywhere with equal weight.
	Default string
}

// Place implements Placer: weight 1 on the pinned backend, 0 elsewhere.
// A pin naming a platform absent from the fleet yields all-zero weights,
// which the scheduler surfaces as ErrPlacement instead of queueing the
// ticket forever.
func (s Static) Place(img ImageInfo, backends []BackendInfo) []float64 {
	want := s.Pins[img.Name]
	if want == "" {
		want = s.Default
	}
	out := make([]float64, len(backends))
	for i, b := range backends {
		if want == "" || b.Platform.Name() == want {
			out[i] = 1
		}
	}
	return out
}

// costAmortRuns is the pool-churn horizon the cost model amortizes a
// backend's cold-create cost over: shells are recycled, so a run pays
// CreateCost only on the fraction of acquires that miss the warm pool.
const costAmortRuns = 8

// overheadOf is a backend's estimated per-run hypervisor overhead in
// cycles: the amortized create cost plus one entry/exit pair per guest
// entry (Fig 5's three measured operations). entries is the image's
// smoothed guest-entry count (0 means unknown — assume one entry). The
// result is float64 on purpose: synthetic cost profiles can push ov²
// past uint64 in the bias computation below, and integer wraparound
// there silently inverts the preference order.
func overheadOf(p vmm.Platform, entries uint64) float64 {
	if entries < 1 {
		entries = 1
	}
	return float64(p.CreateCost())/costAmortRuns +
		float64(p.EntryCost()+p.ExitCost())*float64(entries)
}

// CostModel scores backends by the Fig 5 create/entry/exit cycle costs
// against the image's observed service and guest-entry EWMAs. The
// placement bias of backend b for an image with smoothed service time
// svc and smoothed entry count e is
//
//	bias(b) = ov(b,e)² / (ov(b,e) + svc)
//
// where ov(b,e) is the backend's per-run overhead estimate — amortized
// create cost plus one entry/exit pair per guest entry. For a
// short-lived virtine (svc ≈ 0) the bias is the full overhead, so the
// cheap-create backend wins by the whole Fig 5 gap; for a long-lived one
// (svc >> ov) the bias vanishes, so the image amortizes its overhead
// anywhere and drifts to whichever backend is free — keeping the cheap
// backend's capacity for the runs that actually feel the difference. The
// entry multiplier is what makes a paravirt-style profile (expensive
// create, cheap entry/exit) win chatty images while KVM keeps the quiet
// ones — a genuinely non-dominated trade-off.
//
// The bias is computed entirely in float64: ov² at synthetic extreme
// profiles overflows uint64, which used to wrap and invert the ordering.
type CostModel struct{}

// Place implements Placer. Weights are 1/bias (see the package weight
// contract); every backend is eligible.
func (CostModel) Place(img ImageInfo, backends []BackendInfo) []float64 {
	out := make([]float64, len(backends))
	for i, b := range backends {
		ov := overheadOf(b.Platform, img.EntriesEWMA)
		bias := ov * ov / (ov + float64(img.SvcEWMA))
		out[i] = 1 / (bias + 1)
	}
	return out
}

// LeastLoaded balances queue pressure across backends: the bias of a
// backend is its expected wait — busy workers times the backend's
// smoothed service time, divided by its worker count — so tickets flow
// to the backend with the most free capacity, in the admission layer's
// weighted-fairness style (the weight of a backend falls as its load
// rises). With equal loads it degenerates to pure earliest-free-worker
// placement, which is itself balanced.
type LeastLoaded struct{}

// Place implements Placer.
func (LeastLoaded) Place(img ImageInfo, backends []BackendInfo) []float64 {
	out := make([]float64, len(backends))
	for i, b := range backends {
		workers := b.Workers
		if workers < 1 {
			workers = 1
		}
		wait := uint64(b.Busy) * b.SvcEWMA / uint64(workers)
		out[i] = 1 / float64(wait+1)
	}
	return out
}

// Bias converts a weight into the virtual-cycle placement bias the
// deterministic scheduler adds to a backend's earliest start; by the
// weight contract this is 1/weight, and 0 for the degenerate huge
// weights Static uses.
func Bias(weight float64) uint64 {
	if weight <= 0 {
		return ^uint64(0)
	}
	b := 1 / weight
	if b < 1 {
		return 0
	}
	return uint64(b)
}
