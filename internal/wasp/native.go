package wasp

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/hypercall"
)

// NativeCtx is the execution context handed to a native workload — a
// host-implemented function standing in for guest code the VX toolchain
// cannot express (the Duktape JavaScript engine of §6.5, the OpenSSL
// block cipher of §6.4). The workload runs with virtine semantics:
//
//   - It may touch only the virtine's guest memory (Mem) — the same
//     disjoint-state model as interpreted guests (§3.3).
//   - All external interaction goes through Hypercall, which pays the
//     full exit/entry cost and passes the client's policy check.
//   - Compute is accounted explicitly with Charge, using the same
//     calibrated cost model as the interpreter.
//   - It may capture a snapshot with TakeSnapshot; later runs observe the
//     saved state through Restored and skip initialization (Fig 7).
//
// DESIGN.md documents this substitution: the control flow (exit counts,
// bytes copied, snapshot mechanics) is real, only the instruction stream
// is summarized by Charge calls.
//
// A NativeCtx is the run's own frame, held in the run's pooled shell, so
// handing it over allocates nothing. It is valid only during the
// workload call: once the workload returns, the shell clears the frame
// and serves other runs.
type NativeCtx run

// Mem exposes the virtine's guest-physical memory.
func (n *NativeCtx) Mem() []byte { return n.gm.mem }

// Charge accounts cy cycles of in-virtine compute.
func (n *NativeCtx) Charge(cy uint64) { n.clk.Advance(cy) }

// Restored returns the state stored by TakeSnapshot in the run that
// captured this image's snapshot, or nil on a cold run.
func (n *NativeCtx) Restored() any {
	if n.snap == nil {
		return nil
	}
	return n.snap.native
}

// Hypercall performs one hypercall from the native workload, paying the
// exit, dispatch, and re-entry costs and crossing the same interposition
// as an interpreted guest's — exactly what an OUT instruction costs one.
func (n *NativeCtx) Hypercall(nr uint8, args ...uint64) (uint64, error) {
	ctx := n.gm.ctx
	n.clk.Advance(ctx.Platform().ExitCost())
	n.clk.Advance(cycles.HypercallDispatch)
	ctx.ExitsIO++
	var a [6]uint64
	if len(args) > len(a) {
		n.callErr = fmt.Errorf("wasp: virtine %s: %s: too many arguments", n.img.Name, hypercall.Name(nr))
		return 0, n.callErr
	}
	copy(a[:], args)
	ret, err := (*run)(n).interpose(hypercall.Args{Nr: nr, A0: a[0], A1: a[1], A2: a[2], A3: a[3], A4: a[4], A5: a[5]})
	if err != nil {
		n.callErr = err
		return 0, err
	}
	n.clk.Advance(ctx.Platform().EntryCost())
	ctx.Entries++
	return ret, nil
}

// TakeSnapshot captures the virtine's memory, vCPU state, and the
// workload's opaque state so later runs can resume past initialization.
// The capture cost (a memcpy of the image footprint) is charged.
func (n *NativeCtx) TakeSnapshot(state any) error {
	if !n.cfg.Snapshot {
		return nil
	}
	// The workload has written through its Mem slice, behind the store
	// barrier: the capture must read every page, not trust the record.
	n.gm.ctx.Forget()
	_, err := (*run)(n).capture(state, true)
	return err
}
