package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// Page-table entry bits (x86 layout where it matters).
const (
	ptePresent    = 1 << 0
	pteWrite      = 1 << 1
	ptePS         = 1 << 7 // large page (2 MB at the PD level)
	pteAddrMask   = 0x000F_FFFF_FFFF_F000
	largePageMask = 0x000F_FFFF_FFE0_0000
)

// Translate converts a guest-virtual address to guest-physical at the
// CPU's current mode, charging the architectural cost of the translation.
//
//   - Real mode: 20-bit wraparound, no translation.
//   - Protected mode: flat segmentation; a GDT must have been loaded.
//     (The paper's echo server runs here with paging off, §4.2.)
//   - Long mode: 4-level walk of the guest's own page tables with 2 MB
//     large pages, through a software TLB. A miss really reads the three
//     levels from guest memory, so the guest pays for the tables it built.
func (c *CPU) Translate(vaddr uint64, write bool) (uint64, error) {
	switch c.Mode {
	case isa.Mode16:
		return vaddr & 0xF_FFFF, nil
	case isa.Mode32:
		if c.GDTLimit == 0 {
			return 0, fmt.Errorf("protected-mode access at %#x with no GDT", vaddr)
		}
		return vaddr & 0xFFFF_FFFF, nil
	}
	// Long mode: paging is architecturally mandatory.
	if c.CR0&isa.CR0PG == 0 {
		return 0, fmt.Errorf("long-mode access at %#x with paging off", vaddr)
	}
	page := vaddr >> 21
	if !c.NoTLB {
		// One-entry cache in front of the map: a strict subset of the
		// map's contents, so hit/miss accounting (and therefore cycle
		// charges) are unchanged — only the host-side hash is skipped.
		if c.dtlbOK && c.dtlbPage == page {
			return c.dtlbBase | (vaddr & 0x1F_FFFF), nil
		}
		if base, ok := c.tlb[page]; ok {
			c.dtlbOK, c.dtlbPage, c.dtlbBase = true, page, base
			return base | (vaddr & 0x1F_FFFF), nil
		}
	}
	c.Clock.Advance(cycles.TLBMissWalk)
	base, err := c.walk(vaddr)
	if err != nil {
		return 0, err
	}
	if !c.NoTLB {
		c.tlb[page] = base
		c.dtlbOK, c.dtlbPage, c.dtlbBase = true, page, base
	}
	return base | (vaddr & 0x1F_FFFF), nil
}

// walk performs the 4-level page walk, reading PML4 → PDPT → PD entries
// from guest memory and charging one memory access per level.
func (c *CPU) walk(vaddr uint64) (uint64, error) {
	pml4 := c.CR3 & pteAddrMask
	idx4 := (vaddr >> 39) & 0x1FF
	e4, err := c.readPTE(pml4 + idx4*8)
	if err != nil {
		return 0, err
	}
	if e4&ptePresent == 0 {
		return 0, fmt.Errorf("page fault: PML4E not present for %#x", vaddr)
	}
	pdpt := e4 & pteAddrMask
	idx3 := (vaddr >> 30) & 0x1FF
	e3, err := c.readPTE(pdpt + idx3*8)
	if err != nil {
		return 0, err
	}
	if e3&ptePresent == 0 {
		return 0, fmt.Errorf("page fault: PDPTE not present for %#x", vaddr)
	}
	pd := e3 & pteAddrMask
	idx2 := (vaddr >> 21) & 0x1FF
	e2, err := c.readPTE(pd + idx2*8)
	if err != nil {
		return 0, err
	}
	if e2&ptePresent == 0 {
		return 0, fmt.Errorf("page fault: PDE not present for %#x", vaddr)
	}
	if e2&ptePS == 0 {
		return 0, fmt.Errorf("page fault: 4K pages unsupported by this walker (vaddr %#x)", vaddr)
	}
	return e2 & largePageMask, nil
}

func (c *CPU) readPTE(paddr uint64) (uint64, error) {
	c.Clock.Advance(cycles.MemAccess)
	if paddr+8 > uint64(len(c.Mem)) {
		return 0, fmt.Errorf("page-walk read beyond memory at %#x", paddr)
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(c.Mem[paddr+uint64(i)]) << (8 * i)
	}
	return v, nil
}

// ReadMem reads n bytes at guest-virtual vaddr, charging translation plus
// one access per word.
func (c *CPU) ReadMem(vaddr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		p, err := c.Translate(vaddr+uint64(i), false)
		if err != nil {
			return nil, err
		}
		if p >= uint64(len(c.Mem)) {
			return nil, fmt.Errorf("read beyond memory at %#x", p)
		}
		out[i] = c.Mem[p]
	}
	c.Clock.Advance(cycles.MemAccess * uint64(1+(n-1)/8))
	return out, nil
}

// WriteMem writes b at guest-virtual vaddr.
func (c *CPU) WriteMem(vaddr uint64, b []byte) error {
	for i := range b {
		p, err := c.Translate(vaddr+uint64(i), true)
		if err != nil {
			return err
		}
		if p >= uint64(len(c.Mem)) {
			return fmt.Errorf("write beyond memory at %#x", p)
		}
		c.Mem[p] = b[i]
		c.StoreBarrier(p, 1)
	}
	c.Clock.Advance(cycles.MemStore * uint64(1+(len(b)-1)/8))
	return nil
}

// loadWord reads a mode-width word for instruction execution.
func (c *CPU) loadWord(vaddr uint64, mode isa.Mode) (uint64, error) {
	w := mode.Width()
	p, err := c.Translate(vaddr, false)
	if err != nil {
		return 0, err
	}
	if p+uint64(w) > uint64(len(c.Mem)) {
		return 0, fmt.Errorf("load beyond memory at %#x", p)
	}
	c.Clock.Advance(cycles.MemAccess)
	return isa.Word(c.Mem[p:p+uint64(w)], mode), nil
}

// storeWord writes a mode-width word.
func (c *CPU) storeWord(vaddr uint64, v uint64, mode isa.Mode) error {
	w := mode.Width()
	p, err := c.Translate(vaddr, true)
	if err != nil {
		return err
	}
	if p+uint64(w) > uint64(len(c.Mem)) {
		return fmt.Errorf("store beyond memory at %#x", p)
	}
	isa.PutWord(c.Mem[p:p+uint64(w)], mode, v)
	c.StoreBarrier(p, w)
	c.Clock.Advance(cycles.MemStore)
	return nil
}

// FlushTLB drops all cached translations (CR3 writes, mode changes),
// including the fetch window and the one-entry data TLB in front of the
// map.
func (c *CPU) FlushTLB() {
	c.tlb = make(map[uint64]uint64)
	c.fetchOK = false
	c.dtlbOK = false
}

// TLBSize reports the number of cached large-page translations.
func (c *CPU) TLBSize() int { return len(c.tlb) }
