package wasp

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/vmm"
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
type NativeCtx struct {
	wasp     *Wasp
	be       *backend
	img      *guest.Image
	ctx      *vmm.Context
	cfg      *RunConfig
	clk      *cycles.Clock
	gm       *guestMem
	restored any
}

// Mem exposes the virtine's guest-physical memory.
func (n *NativeCtx) Mem() []byte { return n.ctx.Mem }

// Charge accounts cy cycles of in-virtine compute.
func (n *NativeCtx) Charge(cy uint64) { n.clk.Advance(cy) }

// Now returns the current virtual time.
func (n *NativeCtx) Now() uint64 { return n.clk.Now() }

// Env exposes the host environment (for assertions by tests; workloads
// should use Hypercall).
func (n *NativeCtx) Env() *hypercall.Env { return n.cfg.Env }

// Restored returns the state stored by TakeSnapshot in the run that
// captured this image's snapshot, or nil on a cold run.
func (n *NativeCtx) Restored() any { return n.restored }

// Hypercall performs one hypercall from the native workload, paying the
// exit, dispatch, and re-entry costs and passing the policy gate —
// exactly what an OUT instruction costs an interpreted guest.
func (n *NativeCtx) Hypercall(nr uint8, args ...uint64) (uint64, error) {
	n.clk.Advance(n.ctx.Platform().ExitCost())
	n.clk.Advance(cycles.HypercallDispatch)
	n.ctx.ExitsIO++
	call := hypercall.Args{Nr: nr}
	set := []*uint64{&call.A0, &call.A1, &call.A2, &call.A3, &call.A4, &call.A5}
	if len(args) > len(set) {
		return 0, fmt.Errorf("wasp: hypercall %s: too many arguments", hypercall.Name(nr))
	}
	for i, a := range args {
		*set[i] = a
	}
	mechanism := nr == hypercall.NrExit || nr == hypercall.NrMark || nr == hypercall.NrSnapshot
	if !mechanism && !n.cfg.Policy.Allow(nr) {
		return 0, fmt.Errorf("wasp: virtine %s: %s: %w", n.img.Name, hypercall.Name(nr), hypercall.ErrDenied)
	}
	ret, err := n.cfg.Handler.Handle(call, n.gm)
	if err != nil {
		return 0, fmt.Errorf("wasp: %s failed: %w", hypercall.Name(nr), err)
	}
	n.clk.Advance(n.ctx.Platform().EntryCost())
	n.ctx.Entries++
	return ret, nil
}

// TakeSnapshot captures the virtine's memory, vCPU state, and the
// workload's opaque state so later runs can resume past initialization.
// The capture cost (a memcpy of the image footprint) is charged.
func (n *NativeCtx) TakeSnapshot(state any) error {
	if !n.cfg.Snapshot || !n.wasp.snapEnable {
		return nil
	}
	// The workload has written through its Mem slice, behind the store
	// barrier: the capture must read every page, not trust the record.
	n.ctx.Forget()
	_, err := n.wasp.capture(n.be, n.ctx, n.img, state, true, n.clk)
	return err
}
