package serverless

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// --- Live-rebalancing experiment ------------------------------------------
//
// A tenant's workload profile is not static: a virtine that starts as a
// quiet request handler can turn chatty (every hypercall is a guest
// exit/entry pair), and on a fleet with non-dominated backend profiles
// — KVM's cheap create against Paravirt's cheap transitions — the
// backend that was right at deploy time becomes the wrong one. The
// rebalance experiment drives exactly that drift through the Migrating
// placer: the cost model's per-image entry EWMA follows the drift, the
// placement flips after the hysteresis streak, and the tenant's warm
// snapshot migrates to the new home (wasp.MigrateSnapshot) so the first
// run there already resumes instead of cold-booting. A sticky baseline
// (hysteresis < 0: first preference wins forever) runs the identical
// trace for the comparison the bench table prints.

// DriftImage is the drifting tenant's binary: it snapshots, reads a
// hypercall count from the arg page, issues that many mark hypercalls —
// each one a full guest exit/entry pair — and returns the count. The
// argument is the workload-profile dial: count 2 is a quiet virtine the
// cheap-create backend should own, count 150 a chatty one whose
// entry/exit bill dominates everything else.
func DriftImage() *guest.Image {
	return guest.MustFromAsm("rbl-drift", guest.WrapLongMode(`
	out 0x08, rdi
	movi rbx, 0x0
	load rcx, [rbx]
	movi rsi, 0
rbl_spin:
	out 0x0B, rcx
	add rsi, 1
	dec rcx
	jnz rbl_spin
	movi rbx, 0x4000
	store [rbx], rsi
	movi rdi, 0
	out 0x00, rdi
	hlt
`))
}

// Drift-trace shape: the drifting tenant arrives on a steady clock and
// switches its hypercall count mid-trace; a steady quiet image shares
// the fleet so the experiment measures rebalancing under load, not on an
// otherwise idle cluster.
const (
	driftQuietCalls  = 2
	driftChattyCalls = 150
	driftInterval    = 30_000
	steadyInterval   = 15_000
)

// driftArgs little-endian-encodes a hypercall count for the arg page.
func driftArgs(n uint64) []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint64(out, n)
	return out
}

// RebalanceTrace builds the deterministic drifting-workload trace:
// perPhase quiet runs of the drifting tenant followed by perPhase chatty
// ones (same image, same arrival clock — only the argument drifts), with
// 2×perPhase runs of the steady short image interleaved throughout.
func RebalanceTrace(tenant *guest.Image, perPhase int) []sched.Request {
	steady := PlacementShortImage()
	reqs := make([]sched.Request, 0, 4*perPhase)
	for i := 0; i < 2*perPhase; i++ {
		calls := uint64(driftQuietCalls)
		if i >= perPhase {
			calls = driftChattyCalls
		}
		reqs = append(reqs, sched.Request{
			Arrival: uint64(i) * driftInterval,
			Img:     tenant,
			Cfg:     wasp.RunConfig{Snapshot: true, RetBytes: 8, Args: driftArgs(calls)},
		})
	}
	for i := 0; i < 2*perPhase; i++ {
		reqs = append(reqs, sched.Request{Arrival: uint64(i) * steadyInterval, Img: steady})
	}
	sortByArrival(reqs)
	return reqs
}

// RebalanceSlice is one backend's slice of a rebalance run.
type RebalanceSlice struct {
	Platform string
	Workers  int
	Runs     uint64
	// DriftRuns counts the drifting tenant's runs that landed here — the
	// split that shows whether (and when) the placement actually moved.
	DriftRuns uint64
}

// RebalanceReport is one configuration's run of the drifting trace.
type RebalanceReport struct {
	Config  string
	Workers int
	// Makespan is the virtual time the last worker went idle.
	Makespan uint64
	// DriftP50Ms/DriftP99Ms are the drifting tenant's arrival→completion
	// latencies; the p99 is where a stranded chatty tenant shows first.
	DriftP50Ms, DriftP99Ms float64
	// SteadyP50Ms is the bystander image's median latency — rebalancing
	// the drifter must also relieve the backend it abandoned.
	SteadyP50Ms float64
	// Migrations counts committed placement flips; MigratedBytes is the
	// total snapshot wire traffic they shipped, DeltaMigrations how many
	// crossed as base-grafted deltas rather than full snapshots.
	Migrations      uint64
	MigratedBytes   int
	DeltaMigrations uint64
	// FinalHome is the backend the drifting tenant ended committed to.
	FinalHome string
	Backends  []RebalanceSlice
	Completed uint64
}

// RunRebalanceMix drives the drifting-workload trace through a
// virtual-mode split fleet under a Migrating(CostModel) placer with the
// given hysteresis (negative = the sticky baseline). The tenant's base
// binary is pre-warmed on every fleet backend first, so a committed flip
// ships only the tenant's snapshot delta. w must own every fleet
// platform. Fully deterministic: same trace, fleet, and hysteresis
// produce bit-identical reports.
func RunRebalanceMix(w *wasp.Wasp, config string, fleet []vmm.Platform, hysteresis, perPhase int) (*RebalanceReport, error) {
	if len(fleet) == 0 {
		fleet = w.Platforms()
	}
	// Warm the drift binary's base layer on each distinct backend: one
	// captured run per platform, off the fleet's worker clocks. This is
	// the content-distribution step a real deployment does at image push,
	// and it is what lets a later flip ship the tenant as a delta.
	base := DriftImage()
	warmed := map[string]bool{}
	for _, p := range fleet {
		if warmed[p.Name()] {
			continue
		}
		warmed[p.Name()] = true
		warm := base.WithName("rbl-warm-" + p.Name())
		cfg := wasp.RunConfig{Snapshot: true, RetBytes: 8, Args: driftArgs(1)}
		if _, err := w.RunOn(p.Name(), warm, cfg, cycles.NewClock()); err != nil {
			return nil, fmt.Errorf("warming %s: %w", p.Name(), err)
		}
	}

	tenant := base.WithName("rbl-tenant")
	rep := &RebalanceReport{Config: config, Workers: len(fleet)}
	placer := placement.NewMigrating(placement.CostModel{}, hysteresis)
	placer.OnMigrate = func(image, from, to string) {
		shipped, deltaOnly, err := w.MigrateSnapshot(image, from, to)
		if err != nil {
			// A failed migration is not fatal to placement: the new home
			// cold-boots and re-captures (the Migrating contract).
			return
		}
		rep.MigratedBytes += shipped
		if deltaOnly {
			rep.DeltaMigrations++
		}
	}

	s := sched.NewVirtual(w, len(fleet),
		sched.WithWorkerPlatforms(fleet...),
		sched.WithPlacer(placer))
	defer s.Close()

	tickets := s.SubmitBatchAt(RebalanceTrace(tenant, perPhase))

	byPlat := make(map[string]*RebalanceSlice)
	for _, bl := range s.BackendLoads() {
		byPlat[bl.Platform] = &RebalanceSlice{Platform: bl.Platform, Workers: bl.Workers}
	}
	var driftLat, steadyLat []float64
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			return nil, fmt.Errorf("ticket %d: %w", i, err)
		}
		rep.Completed++
		sl := byPlat[tk.Platform]
		sl.Runs++
		if tk.Image == tenant.Name {
			sl.DriftRuns++
			driftLat = append(driftLat, float64(tk.Done-tk.Arrival))
		} else {
			steadyLat = append(steadyLat, float64(tk.Done-tk.Arrival))
		}
	}
	rep.Makespan = s.Makespan()
	rep.DriftP50Ms = cycles.Millis(uint64(stats.Percentile(driftLat, 50)))
	rep.DriftP99Ms = cycles.Millis(uint64(stats.Percentile(driftLat, 99)))
	rep.SteadyP50Ms = cycles.Millis(uint64(stats.Percentile(steadyLat, 50)))
	rep.Migrations = placer.Migrations()
	rep.FinalHome = placer.Committed(tenant.Name)
	for _, bl := range s.BackendLoads() {
		rep.Backends = append(rep.Backends, *byPlat[bl.Platform])
	}
	return rep, nil
}
