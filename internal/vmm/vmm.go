// Package vmm is the hosted-hypervisor substrate — the role KVM plays in
// the paper. It owns hardware virtual contexts: per-context guest-physical
// memory, a vCPU, and the nested-paging (EPT) state, and it charges the
// calibrated host-side costs of the KVM interface: VM creation
// (KVM_CREATE_VM + vCPU + memory regions), the KVM_RUN ioctl on every
// entry, and the exit path's ring transitions.
//
// Wasp (internal/wasp) sits on top of this package the way the real Wasp
// sits on /dev/kvm: it creates contexts, loads images, runs them, and
// interposes on every I/O exit.
package vmm

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/isa"
)

// PageSize is the guest page granularity used for EPT accounting.
const PageSize = 4096

// Context is one hardware virtual context (VM + vCPU + EPT), the analogue
// of a KVM VM fd. Contexts are created cold with Create, or recycled from
// a pool by higher layers.
type Context struct {
	Mem   []byte
	CPU   *cpu.CPU
	Clock *cycles.Clock

	// Entries counts guest entries (KVM_RUN calls); ExitsIO counts I/O
	// exits (hypercalls) back to the VMM. FirstEntry is the clock value at the
	// first guest entry of the current run — the zero point for
	// in-guest milestone measurements (Fig 4).
	Entries    uint64
	ExitsIO    uint64
	FirstEntry uint64

	platform Platform
	holds    []*Page // the shell-content record (content.go)
}

// Create allocates a new virtual context on the default platform with
// memBytes of guest-physical memory, charging the cold-creation cost
// (KVM_CREATE_VM, vCPU setup, memory-region registration and EPT
// construction). The clock must belong to the caller's measurement scope.
func Create(memBytes int, clk *cycles.Clock) *Context {
	return CreateOn(DefaultPlatform, memBytes, clk)
}

// CreateOn allocates a new virtual context on an explicit hypervisor
// backend (Fig 5: KVM on Linux, Hyper-V on Windows).
func CreateOn(p Platform, memBytes int, clk *cycles.Clock) *Context {
	clk.Advance(p.CreateCost())
	pages := (memBytes + PageSize - 1) / PageSize
	clk.Advance(uint64(pages) * cycles.EPTBuildPerPage)
	mem := make([]byte, memBytes)
	return &Context{
		Mem:      mem,
		CPU:      cpu.New(mem, clk, 0),
		Clock:    clk,
		platform: p,
		holds:    make([]*Page, pages),
	}
}

// Platform reports the backend this context runs on.
func (c *Context) Platform() Platform { return c.platform }

// Reset returns the vCPU to power-on state and zeroes the run counters
// before a shell is reused (Fig 6 step E), leaving memory to the Rebase
// that populates it next: no page of the previous run survives that. It
// charges nothing; the reuser charges the zeroing where its
// configuration says (Wasp+C or Wasp+CA, Fig 8).
func (c *Context) Reset() {
	c.CPU.Reset(0)
	c.Entries, c.ExitsIO, c.FirstEntry = 0, 0, 0
}

// Load copies a flat binary into guest memory at origin and points the
// vCPU at entry in the given start mode, charging the image copy at
// memcpy bandwidth — this is the image-size cost of Fig 12.
func (c *Context) Load(image []byte, origin, entry uint64, mode isa.Mode) error {
	// Compared without adding: origin is guest-controlled (.org) and the
	// sum wraps for a large one.
	if origin > uint64(len(c.Mem)) || uint64(len(image)) > uint64(len(c.Mem))-origin {
		return fmt.Errorf("vmm: image (%d bytes at %#x) exceeds guest memory (%d)", len(image), origin, len(c.Mem))
	}
	copy(c.Mem[origin:], image)
	c.HostWrite(origin, len(image))
	c.Clock.Advance(cycles.MemcpyCost(len(image)))
	c.CPU.Reset(entry)
	switch mode {
	case isa.Mode32:
		c.CPU.SetupProtected()
	case isa.Mode64:
		c.CPU.SetupLongMode()
		c.HostWrite(cpu.DefaultTableBase, 3*PageSize) // the identity-map tables
	}
	return nil
}

// Run enters the guest (one KVM_RUN ioctl) and executes until the next
// exit. The entry cost is charged up front — this is the paper's "vmrun"
// lower bound — and the exit cost is charged when control returns.
func (c *Context) Run(maxSteps uint64) *cpu.Exit {
	c.Clock.Advance(c.platform.EntryCost())
	if c.FirstEntry == 0 {
		c.FirstEntry = c.Clock.Now()
	}
	c.Entries++
	return c.Continue(maxSteps)
}

// Continue executes an entered guest until the next exit and charges the
// exit. A stop at the vCPU's hand-off (cpu.ExitHandoff) is no exit: the
// guest stays entered, nothing is charged, and the caller continues it.
func (c *Context) Continue(maxSteps uint64) *cpu.Exit {
	ex := c.CPU.Run(maxSteps)
	if ex.Reason == cpu.ExitHandoff {
		return ex
	}
	c.Clock.Advance(c.platform.ExitCost())
	if ex.Reason == cpu.ExitIO {
		c.ExitsIO++
	}
	return ex
}
