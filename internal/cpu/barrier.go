package cpu

// The store barrier: first-touch, per 4 KiB page, the way write-protect
// dirty logging works on the hardware the paper targets (§7.2's copy-on-
// write reset). Each page of guest-physical memory has one state byte:
//
//   - pageDirty — written since the last ClearDirty (the VMM's restore
//     point); the set DirtyPages reports and a COW reset copies back.
//   - pageCode  — c.code[page] holds decode state (marks and traces) that
//     a write into the page must drop.
//
// A page whose state is exactly pageDirty is armed: a store into it has
// nothing to record and nothing to invalidate, so it pays the bounds
// check, the write and the clock and nothing else (armed, inlined into
// the store steps' fast paths). Any other state sends the store
// through StoreBarrier, which drops the page's decode state, sets the
// dirty bit and leaves the page armed. The fast
// path is sound as long as
//
//	state == pageDirty  ⇒  dirty bit reported ∧ no decode state
//
// so whoever can falsify the right-hand side re-arms the barrier by
// changing the byte: codePageFor and AdoptCode set pageCode when they
// install decode state ("a decode can be newer than the dirty bit"),
// ClearDirty clears pageDirty at a new restore point (snapshot capture,
// vmm.Context.Rebase), and Reset clears every pageCode with the decode
// state it drops.
const (
	pageDirty uint8 = 1 << iota
	pageCode
)

// armed reports whether every page [p, p+n) touches is dirty and free of
// decode state. The caller has bounds-checked the range against Mem.
func (c *CPU) armed(p, n uint64) bool {
	return c.pstate[p/codePageSize] == pageDirty && c.pstate[(p+n-1)/codePageSize] == pageDirty
}

// StoreBarrier records a write to [addr, addr+n) of guest-physical
// memory: each touched page that is not already armed loses its decode
// state (a pointer drop; shared pages are unreferenced, never mutated)
// and becomes dirty. It is the only writer of the dirty bit. Guest stores
// call it from storeWord and STOREB, or skip it from a store step
// that found the pages armed; host writes — image loads, argument
// marshalling, hypercall handlers, snapshot rewrites — reach it through
// vmm.Context.HostWrite.
func (c *CPU) StoreBarrier(addr uint64, n int) {
	if n <= 0 || addr >= uint64(len(c.Mem)) {
		return
	}
	last := (addr + uint64(n) - 1) / codePageSize
	if top := uint64(len(c.pstate)) - 1; last > top {
		last = top
	}
	for p := addr / codePageSize; p <= last; p++ {
		if c.pstate[p]&pageCode != 0 {
			c.code[p] = nil
			c.codeClobbered = true
		}
		c.pstate[p] = pageDirty
	}
}

// ClearDirty starts a new restore point: no page is dirty, so the first
// store to each page takes the barrier again.
func (c *CPU) ClearDirty() {
	for i := range c.pstate {
		c.pstate[i] &= pageCode
	}
}

// PageDirty reports whether page p was written since the last ClearDirty.
func (c *CPU) PageDirty(p int) bool { return c.pstate[p]&pageDirty != 0 }

// DirtyCount returns the number of pages written since the last
// ClearDirty.
func (c *CPU) DirtyCount() int {
	n := 0
	for _, s := range c.pstate {
		n += int(s & pageDirty)
	}
	return n
}

// DirtyPages returns the indices of the dirty pages, ascending.
func (c *CPU) DirtyPages() []int {
	n := c.DirtyCount()
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for i, s := range c.pstate {
		if s&pageDirty != 0 {
			out = append(out, i)
		}
	}
	return out
}
