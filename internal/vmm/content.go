package vmm

import (
	"bytes"
	"fmt"
)

// Shell content. A pooled context records what its memory holds: per
// page, the immutable store page the memory equals (nil for zero) or
// unknown. The record is exact on every page that is neither unknown nor
// dirty (CheckContent), because every writer either dirties the page
// through the store barrier (guest stores, HostWrite) or marks what it
// wrote unknown (Forget). So Rebase brings memory to any target writing
// only the pages that differ, and full restore, COW reset, pre-boot
// zeroing and the cleaner's scrub are one operation.

// unknown is the record entry of a page whose content is not known. It
// never equals a target entry, so Rebase always rewrites the page.
var unknown = new([PageSize]byte)

// Rebase brings memory to target's content (zero for a nil target and
// beyond its geometry) and starts a new restore point. It rewrites, as
// host writes that drop decode state, exactly the pages that are
// unknown, dirty, or recorded as another store page than the target's:
// store pages are immutable, so equal pointers are equal content.
func (c *Context) Rebase(target *Layer) (written, kept int) {
	for p, held := range c.holds {
		var want *[PageSize]byte
		if target != nil && p < len(target.table) {
			want = target.table[p]
		}
		if held == want && !c.CPU.PageDirty(p) {
			kept++
			continue
		}
		copy(c.page(p), content(want))
		c.HostWrite(uint64(p*PageSize), len(c.page(p)))
		c.holds[p] = want
		written++
	}
	c.CPU.ClearDirty()
	return written, kept
}

// Capture snapshots the captured windows of memory as a layer over
// parent (CaptureLayer), makes it the record and starts a new restore
// point. A page no single window covers holds bytes the layer does not,
// so it becomes unknown — unless the record knew it as zero and nothing
// has written it since.
func (c *Context) Capture(store *PageStore, parent *Layer, windows []Window) *Layer {
	l := CaptureLayer(store, parent, c.Mem, windows)
	for p, held := range c.holds {
		lo := p * PageSize
		c.holds[p] = unknown
		if covered(windows, lo, lo+len(c.page(p))) == 2 || (held == nil && !c.CPU.PageDirty(p)) {
			c.holds[p] = l.table[p]
		}
	}
	c.CPU.ClearDirty()
	return l
}

// Forget marks every page unknown: memory was written behind the store
// barrier (a native workload's Mem slice).
func (c *Context) Forget() {
	for p := range c.holds {
		c.holds[p] = unknown
	}
}

// CheckContent verifies the record: every page that is neither unknown
// nor dirty holds exactly the content its entry names.
func (c *Context) CheckContent() error {
	for p, held := range c.holds {
		if got := c.page(p); held != unknown && !c.CPU.PageDirty(p) && !bytes.Equal(got, content(held)[:len(got)]) {
			return fmt.Errorf("vmm: page %d deviates from the shell-content record", p)
		}
	}
	return nil
}

// page returns page p of guest memory (short at an unaligned end).
func (c *Context) page(p int) []byte {
	lo := p * PageSize
	return c.Mem[lo:min(lo+PageSize, len(c.Mem))]
}

// content is the bytes a record or table entry stands for.
func content(pg *[PageSize]byte) []byte {
	if pg == nil {
		return zeroPage[:]
	}
	return pg[:]
}
