package main

import (
	"fmt"
	"math/rand"

	"repro/internal/cycles"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// fork_storm: the forest's write side. There is no scheduler; one
// request is a whole tenant lifecycle on a two-backend COW runtime:
// first run (boot + capture), second run (COW reset on the parked
// shell), migrate kvm → hyper-v (delta export, import and graft), third
// run on hyper-v (restore), drop.
var forkStorm = &workload{
	name:  "fork_storm",
	why:   "tenant lifecycles (capture, COW reset, delta migrate, restore, drop) hit the same forest as tenant_restore through its write side, so a restore gain bought with slower capture or migration shows",
	setup: setupForkStorm,
}

// forkVirtualLifecycles sizes the virtual pass: 20 samples lie beyond p99.
const forkVirtualLifecycles = 2_000

var forkSrc, forkDst = vmm.KVM{}.Name(), vmm.HyperV{}.Name()

// Tenant ids: the virtual pass counts from 0, real-pass client c from
// (c+1)<<20, and the resident and probe tenants sit above both.
const (
	forkResidentID = 1<<30 + iota
	forkProbeID
)

type forkInstance struct {
	tenantBinary // tenant_restore's handler, through the other side of the forest
	seed         uint64
	sz           sizes
	w            *wasp.Wasp

	baseline [2]wasp.ForestStats // per backend, once the base layers exist
	guest    guestAcc
}

func setupForkStorm(seed uint64, sz sizes, l *ledger) (instance, error) {
	bin, err := compileTenantBinary(l)
	if err != nil {
		return nil, err
	}
	in := &forkInstance{tenantBinary: bin, seed: seed, sz: sz}
	in.w = wasp.New(wasp.WithCOW(true), wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	// Content distribution, as at image push: a resident tenant captures
	// the binary's base layer on each backend (the same tenant, so the two
	// bases are byte-identical), and every later migration ships a delta
	// and grafts it.
	warm := in.newTenant(forkResidentID)
	for i, platform := range []string{forkSrc, forkDst} {
		res, err := in.w.RunOn(platform, warm.img, in.config(warm, firstRequest, nil), cycles.NewClock())
		if err := in.verify(warm, firstRequest, res, err); err != nil {
			return nil, fmt.Errorf("warming %s: %w", platform, err)
		}
		in.baseline[i] = in.w.ForestStatsOn(platform)
	}
	return in, nil
}

// lifecycle is one request. id must be unique among live tenants; all
// three runs land on clk, whose total is the lifecycle's virtual
// latency.
func (in *forkInstance) lifecycle(id int, rng *rand.Rand, clk *cycles.Clock, tr *tracer, spans *spanBuf, req uint64, acc *guestAcc) error {
	tn := in.newTenant(id)
	root := spans.begin("request", req, -1)
	defer spans.end(root)
	run := func(span, platform string, wantSnapshot bool) (*wasp.Result, error) {
		num := drawRequest(rng)
		var h *timedHandler
		if spans != nil {
			h = &timedHandler{tr: tr}
		}
		start := clk.Now()
		s := spans.begin(span, req, root)
		res, err := in.w.RunOn(platform, tn.img, in.config(tn, num, h), clk)
		spans.end(s)
		if h != nil {
			h.file(spans, req, s)
		}
		if err := in.verify(tn, num, res, err); err != nil {
			return nil, err
		}
		if res.SnapshotUsed != wantSnapshot {
			return nil, fmt.Errorf("fork_storm: %s on %s: snapshot used = %v", span, platform, res.SnapshotUsed)
		}
		if acc != nil {
			acc.add(start, res)
		}
		return res, nil
	}
	if _, err := run("wasp.capture", forkSrc, false); err != nil {
		return err
	}
	if res, err := run("wasp.cow_reset", forkSrc, true); err != nil {
		return err
	} else if res.COWPages == 0 {
		return fmt.Errorf("fork_storm: second run of %s was not a COW reset", tn.img.Name)
	}
	s := spans.begin("wasp.migrate", req, root)
	_, deltaOnly, err := in.w.MigrateSnapshot(tn.img.Name, forkSrc, forkDst)
	spans.end(s)
	if err != nil {
		return err
	}
	if !deltaOnly {
		return fmt.Errorf("fork_storm: %s migrated as a full snapshot, want a delta over the warmed base", tn.img.Name)
	}
	if _, err := run("wasp.restore", forkDst, true); err != nil {
		return err
	}
	s = spans.begin("wasp.drop", req, root)
	in.w.DropSnapshot(tn.img.Name)
	spans.end(s)
	return nil
}

func (in *forkInstance) virtualPass(l *ledger) (vstats, error) {
	rng := rand.New(rand.NewSource(int64(in.seed) + 1))
	n := forkVirtualLifecycles / in.sz.vscale
	lat := make([]uint64, 0, n)
	var failed uint64
	for i := 0; i < n; i++ {
		clk := cycles.NewClock()
		if err := in.lifecycle(i, rng, clk, nil, nil, 0, &in.guest); err != nil {
			failed++
			continue
		}
		lat = append(lat, clk.Now())
	}
	in.guest.reqs = uint64(len(lat))
	l.count(uint64(n), failed)
	return vstatsOf(lat), in.forestAtBaseline()
}

func (in *forkInstance) realPass(p pass) (passStats, error) {
	st := closedLoop(p, func(id int) clientFunc {
		rng := rand.New(rand.NewSource(int64(in.seed) + 100 + int64(id)))
		next := (id + 1) << 20
		return func(req uint64, spans *spanBuf) error {
			next++
			return in.lifecycle(next, rng, cycles.NewClock(), p.tr, spans, req, nil)
		}
	})
	return st, in.forestAtBaseline()
}

// forestAtBaseline is the workload's invariant: every tenant was
// dropped, so both forests hold exactly the warm-up's layers and pages
// again, and every stored page still hashes to its key.
func (in *forkInstance) forestAtBaseline() error {
	for i, platform := range []string{forkSrc, forkDst} {
		got, want := in.w.ForestStatsOn(platform), in.baseline[i]
		if got.Snapshots != want.Snapshots || got.StorePages != want.StorePages || got.BaseLayers != want.BaseLayers {
			return fmt.Errorf("fork_storm: %s forest at %+v after every tenant was dropped, baseline %+v", platform, got, want)
		}
	}
	return in.w.VerifyForest()
}

// probe splits a migration into its halves — delta export from the
// source forest, import and graft on the target — which MigrateSnapshot
// only exposes as one call.
func (in *forkInstance) probe(tr *tracer, sz sizes, l *ledger) error {
	spans := tr.buf(probeTid)
	tn := in.newTenant(forkProbeID)
	res, err := in.w.RunOn(forkSrc, tn.img, in.config(tn, firstRequest, nil), cycles.NewClock())
	if err := in.verify(tn, firstRequest, res, err); err != nil {
		return err
	}
	var blob []byte
	export, err := timeCalls(sz.probeOps, func(i int) error {
		s := spans.begin("wasp.export", uint64(i), -1)
		defer spans.end(s)
		var err error
		blob, err = in.w.ExportSnapshotOn(forkSrc, tn.img.Name, true)
		return err
	})
	if err != nil {
		return err
	}
	imports, err := timeCalls(sz.probeOps, func(i int) error {
		s := spans.begin("wasp.import", uint64(i), -1)
		defer spans.end(s)
		return in.w.ImportSnapshotOn(forkDst, tn.img.Name, blob)
	})
	if err != nil {
		return err
	}
	in.w.DropSnapshot(tn.img.Name)
	l.setPct("wasp.export_ns", export, 50)
	l.setPct("wasp.import_ns", imports, 50)
	l.set("wasp.export_bytes", float64(len(blob)))
	if err := in.forestAtBaseline(); err != nil {
		return err
	}
	for span, metric := range map[string]string{
		"wasp.capture": "wasp.capture_ns", "wasp.migrate": "wasp.migrate_ns", "wasp.drop": "wasp.drop_ns", "wasp.restore": "wasp.run_ns_p50",
	} {
		l.setPct(metric, tr.durations(span), 50)
	}
	return probeVMM(in.virtine.Image.MemBytes(), in.virtine.Image, sz, l)
}

func (in *forkInstance) finish(l *ledger) error {
	if err := in.forestAtBaseline(); err != nil {
		return err
	}
	in.guest.record(l)
	recordRuntime(in.w, l)
	return nil
}
