package vmm

// Dirty-page tracking supports the copy-on-write virtine reset that §7.2
// anticipates ("We expect this cost to drop when using copy-on-write
// mechanisms to reset a virtine, as in SEUSS"): instead of memcpy-ing the
// whole snapshot on every restore, the VMM tracks which guest pages were
// written since the last restore point and copies only those back.
//
// The state is the vCPU's per-page store-barrier byte (internal/cpu
// barrier.go), the software stand-in for write-protect dirty logging: the
// first write to a page since ClearDirty takes the barrier and sets the
// page's dirty bit, later ones find it set and pay nothing. Guest stores
// and host writes (image loads, argument marshalling, hypercall handler
// writes, COW copy-back — everything that goes through HostWrite) run the
// same barrier on the same bytes, so this file only names the VMM's view
// of it.

// HostWrite records a host-side write into guest memory: the touched
// pages lose their decoded code and become dirty.
func (c *Context) HostWrite(addr uint64, n int) { c.CPU.StoreBarrier(addr, n) }

// ClearDirty starts a new restore point: no page is dirty.
func (c *Context) ClearDirty() { c.CPU.ClearDirty() }

// DirtyPages returns the indices of dirty pages, ascending.
func (c *Context) DirtyPages() []int { return c.CPU.DirtyPages() }

// DirtyCount returns the number of dirty pages.
func (c *Context) DirtyCount() int { return c.CPU.DirtyCount() }
