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
var unknown = new(Page)

// Rebase brings memory to target's content (zero for a nil target and
// beyond its geometry) and starts a new restore point. It rewrites, as
// host writes that drop decode state, exactly the pages that are
// unknown, dirty, or recorded as another store page than the target's:
// store pages are immutable, so equal pointers are equal content.
func (c *Context) Rebase(target *Layer) (written, kept int) {
	for p, held := range c.holds {
		var want *Page
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

// Capture snapshots the captured windows of memory (zero outside them)
// as a layer over parent that owns only the pages differing from it,
// holding one reference for the caller and one on parent, makes it the
// record and starts a new restore point. Each page takes the cheapest
// evidence that is enough: (1) a clean recorded page that is zero, or
// full and wholly inside one window, is the record's page, memory unread
// (a page the store freed since is stored again as itself); (2) captured
// bytes equal to parent's page are not owned; (3) anything else is
// hashed once and inserted. A page no single window covers holds bytes
// the layer does not, so it becomes unknown unless recorded zero and
// clean. Capture returns the pages hashed and reused from the record; it
// fails before touching the store if parent's geometry differs.
func (c *Context) Capture(store *PageStore, parent *Layer, windows []Window) (l *Layer, hashed, reused int, err error) {
	var based []*Page // parent's resolution, nil for zero
	switch {
	case parent == nil:
		based = make([]*Page, len(c.holds))
	case parent.memLen != len(c.Mem):
		return nil, 0, 0, fmt.Errorf("vmm: capture geometry %d over base geometry %d", len(c.Mem), parent.memLen)
	default:
		based = parent.table
	}
	var own []LayerPage
	var scratch [PageSize]byte
	for p, held := range c.holds {
		lo := p * PageSize
		size := len(c.page(p))
		whole := covered(windows, lo, lo+size) == 2
		clean := held != unknown && !c.CPU.PageDirty(p)
		// pg becomes the page the new layer resolves p to.
		pg, base := held, based[p]
		if clean && (held == nil || whole && size == PageSize) {
			reused++
			if pg.Key() == base.Key() {
				pg = base
			} else {
				if pg != nil {
					pg = store.insert(pg.key, nil, pg)
				}
				own = append(own, LayerPage{p, pg})
			}
		} else if view := capturedView(c.Mem, p, windows, &scratch); view == nil {
			pg = nil
			if base != nil {
				own = append(own, LayerPage{p, nil}) // zero a non-zero parent page
			}
		} else if base == nil || !bytes.Equal(view, base.data[:]) {
			hashed++
			pg = store.insert(HashPage(view), view, nil)
			own = append(own, LayerPage{p, pg})
		} else {
			pg = base
		}
		c.holds[p] = unknown
		if whole || held == nil && clean {
			c.holds[p] = pg
		}
	}
	c.CPU.ClearDirty()
	return NewLayer(store, parent, len(c.Mem), own), hashed, reused, nil
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
func content(pg *Page) []byte {
	if pg == nil {
		return zeroPage[:]
	}
	return pg.data[:]
}
