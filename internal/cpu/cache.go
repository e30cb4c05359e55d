package cpu

// Code-page cache. Each guest-physical page that has executed code owns a
// codePage: a map of the instruction starts the dispatcher has reached
// (ents — which offsets are worth a trace, which always go to Step) and
// the traces compiled from the page's bytes (blocks, jit.go). The state is
// derived from guest memory once per page generation and shared across
// every CPU running the same bytes.
//
// Correctness hinges on invalidation. Every write into guest-physical
// memory runs the store barrier (barrier.go), which drops the decode
// state of each page it touches:
//
//   - the CPU's own store paths (storeWord and the store steps), so
//     self-modifying code re-decodes the bytes it just wrote even on a
//     bare CPU with no VMM attached;
//   - vmm.Context.HostWrite — the funnel image loads, argument
//     marshalling, hypercall handler writes and vmm.Context.Rebase's
//     page rewrites report to;
//   - CPU.Reset (vmm.Context.Reset and Clean), which drops the whole
//     cache when a shell changes hands.
//
// Invalidation is page-granular and cheap: dropping a page is a single
// pointer store, and a store to a page without decode state learns that
// from the same state byte that tells it the page is already dirty.
//
// Pages can outlive one CPU. ShareCode freezes the current pages
// (marking them immutable and recording the exact bytes they were decoded
// from) and AdoptCode installs frozen pages into another CPU after
// verifying the target memory still holds those bytes. Wasp uses this to
// keep one decoded cache per image across pooled shells, snapshot
// restores, and parked COW shells: decode once per image, not once per
// run. A CPU that needs to write into a shared page (new entry, different
// mode) clones it first, so frozen pages are never mutated.

import (
	"bytes"
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// codePageSize is the invalidation and dirty-tracking granularity. It
// matches vmm.PageSize; vmm imports cpu, so the constant is restated here.
const codePageSize = 4096

// centry marks one instruction start the dispatcher has reached, in one
// flag byte. Neither engine executes from it — Step decodes the raw bytes
// into a step, and traces build theirs from memory — so it records only
// what dispatch decides on: entMode holds the decode mode + 1, at most 3
// (0 marks an empty slot; a slot marked in another mode is re-marked),
// entSpecial routes to Step for good, and entStore carries the Mode32
// pre-latch STORE check.
type centry uint8

const (
	entMode    centry = 3
	entSpecial centry = 1 << 2
	entStore   centry = 1 << 3
)

// opEntry holds each opcode's entry flags. The specials always execute
// via Step: everything that can switch modes, flush the TLB, record a
// boot event, or exit to the VMM. They are rare, and delegating keeps
// exactly one implementation of the tricky architectural transitions.
var opEntry = [isa.NumOps]centry{
	isa.HLT: entSpecial, isa.OUT: entSpecial, isa.IN: entSpecial, isa.LGDT: entSpecial,
	isa.MOVCR: entSpecial, isa.RDCR: entSpecial, isa.LJMP: entSpecial, isa.STORE: entStore,
}

// baseCost returns the fixed cycle cost charged before/while executing op
// that does not depend on run-time state (InstrBase, plus the multi-cycle
// ALU charges). Memory-access costs stay in loadWord/storeWord because
// their fault paths must charge exactly as the legacy interpreter does.
func baseCost(op isa.Op) uint8 {
	c := uint8(cycles.InstrBase)
	switch op {
	case isa.MUL:
		c += cycles.InstrMul
	case isa.DIV, isa.MOD:
		c += cycles.InstrDiv
	}
	return c
}

// codePage holds the decoded entries for one 4 KiB physical page, one
// flag byte per offset within the page (4 KiB a page). Entries exist only
// at instruction starts that have actually been reached.
type codePage struct {
	// shared marks the page immutable: it is referenced by a CodeCache
	// (a Wasp per-image registry entry) and possibly by other CPUs. A
	// CPU must clone a shared page before writing new entries into it.
	shared bool
	// src is the page content the entries were decoded from, recorded
	// when the page is frozen; AdoptCode compares it against the target
	// memory so a stale decode can never be installed.
	src  []byte
	ents [codePageSize]centry

	// blocks holds the compiled traces starting on the page
	// (jit.go), sorted by key = offset | mode<<12, behind a count entry
	// in the same allocation (blockList reads them). A published array is
	// immutable; publication is copy-on-write under mu so concurrent CPUs
	// sharing a frozen page read it with one atomic load. Blocks ride
	// along with ShareCode / AdoptCode, so every tenant clone of an image
	// executes one compiled form; validity is anchored to the page pointer
	// itself — any write into the page drops the page, blocks and all.
	mu     sync.Mutex
	blocks atomic.Pointer[pageBlock]
}

// pageBlock is one compiled block on a page and its key. The entry that
// heads a page's published array is its count instead: key holds the
// number of blocks after it, and blk is nil.
type pageBlock struct {
	key uint32
	blk *cblock
}

func cmpKey(e pageBlock, key uint32) int { return cmp.Compare(e.key, key) }

// blockList returns the blocks published on the page, sorted by key: the
// entries after the count entry. The array and its count are one
// allocation, so a reader that loads the head sees both.
func (pg *codePage) blockList() []pageBlock {
	h := pg.blocks.Load()
	if h == nil {
		return nil
	}
	return unsafe.Slice(h, h.key+1)[1:]
}

// block returns the compiled block published under key, or nil.
func (pg *codePage) block(key uint32) *cblock {
	bs := pg.blockList()
	if i, ok := slices.BinarySearchFunc(bs, key, cmpKey); ok {
		return bs[i].blk
	}
	return nil
}

// addBlock publishes a compiled block on the page, replacing one under
// the same key: a copy of the current array with one entry inserted,
// written whole before the one store that publishes it. The published
// array is never mutated, so readers hold no lock.
func (pg *codePage) addBlock(key uint32, blk *cblock) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	old := pg.blockList()
	i, found := slices.BinarySearchFunc(old, key, cmpKey)
	rest := old[i:]
	if found {
		rest = old[i+1:]
	}
	bs := make([]pageBlock, 1+i+1+len(rest))
	bs[0].key = uint32(len(bs) - 1)
	ents := bs[1:]
	copy(ents, old[:i])
	ents[i] = pageBlock{key, blk}
	copy(ents[i+1:], rest)
	pg.blocks.Store(&bs[0])
}

// ensureCode sizes the per-page table on first use.
func (c *CPU) ensureCode() {
	if c.code == nil {
		c.code = make([]*codePage, (len(c.Mem)+codePageSize-1)/codePageSize)
	}
}

// codePageFor returns a writable page for the given page index,
// allocating or cloning (copy-on-write for shared pages) as needed.
// Either way the CPU now holds decode state its last ShareCode did not
// publish, so the new-pages flag is raised — and state the store barrier
// must drop on the next write, so the page's decode bit is set.
func (c *CPU) codePageFor(page uint64) *codePage {
	c.pstate[page] |= pageCode
	pg := c.code[page]
	if pg == nil {
		pg = &codePage{}
		c.code[page] = pg
	} else if pg.shared {
		cl := &codePage{ents: pg.ents}
		// Compiled blocks stay valid across the clone: cloning happens
		// only to write entries for offsets/modes the shared page lacks,
		// never because the underlying bytes changed (a byte change
		// drops the page instead).
		cl.blocks.Store(pg.blocks.Load())
		c.code[page] = cl
		pg = cl
	}
	c.codeNew = true
	return pg
}

// CodeNew reports whether the CPU has decoded into pages that no
// ShareCode call has published yet. Wasp uses it to skip the per-run
// freeze/merge entirely on the warm path, where every page was adopted
// from the registry and nothing new was decoded.
func (c *CPU) CodeNew() bool { return c.codeNew }

// predecode marks instruction starts forward from physical address phys
// until the page ends, an already-marked entry is reached, or the bytes
// stop decoding (those offsets may be data that is never executed) — one
// pass per page, not one per first visit. An instruction spanning the page
// boundary is never marked: invalidation of the second page could not
// find it, so it executes via Step every time.
func (c *CPU) predecode(phys uint64) {
	if phys >= uint64(len(c.Mem)) {
		return // Step reports the fetch beyond physical memory
	}
	c.ensureCode()
	mode := c.Mode
	page := phys / codePageSize
	pageEnd := (page + 1) * codePageSize
	var pg *codePage // materialized just before the first entry write, so
	// an unmarkable head clones no shared page and leaves the new-pages
	// flag alone
	for p := phys; p < pageEnd; {
		in, err := isa.Decode(c.Mem, p, mode)
		if err != nil || p+uint64(in.Len) > pageEnd {
			break
		}
		if pg == nil {
			pg = c.codePageFor(page)
		}
		slot := &pg.ents[p-page*codePageSize]
		if p != phys && *slot&entMode == centry(mode)+1 {
			break // rejoined an already-marked run
		}
		*slot = centry(mode) + 1 | opEntry[in.Op]
		p += uint64(in.Len)
	}
}

// CodeCache is an immutable set of predecoded pages detached from a CPU,
// held by Wasp's per-image registry and by snapshots so later runs of the
// same image skip decoding entirely.
type CodeCache struct {
	pages []*codePage
}

// Empty reports whether the cache holds no pages.
func (cc CodeCache) Empty() bool { return len(cc.pages) == 0 }

// Merge combines cc with other, returning the result. A page missing
// from cc is filled; an existing page is replaced only when the newcomer
// was decoded from the *same* source bytes and holds strictly more
// entries (an input-dependent jump reached code the first freeze never
// executed) — without the upgrade, shells adopting the sparse version
// would clone, re-decode, and re-freeze that page on every run. Pages
// frozen from different bytes (self-modified code) never displace the
// registered version: the registered one matches the image's canonical
// load content, which is what the next adopt verifies against. The
// receiver's page slice is never mutated — readers may be iterating it
// without a lock (AdoptCode runs outside the registry mutex), so a
// combined result is built on a fresh slice.
func (cc CodeCache) Merge(other CodeCache) CodeCache {
	if cc.Empty() {
		return other
	}
	better := func(cur, nw *codePage) bool {
		if nw == nil {
			return false
		}
		if cur == nil {
			return true
		}
		return cur != nw && bytes.Equal(cur.src, nw.src) &&
			nw.popCount() > cur.popCount()
	}
	changed := false
	for i, pg := range other.pages {
		if i < len(cc.pages) && better(cc.pages[i], pg) {
			changed = true
			break
		}
	}
	if !changed {
		return cc
	}
	pages := append([]*codePage(nil), cc.pages...)
	for i, pg := range other.pages {
		if i < len(pages) && better(pages[i], pg) {
			pages[i] = pg
		}
	}
	return CodeCache{pages: pages}
}

// Footprint reports what the cache holds besides the source bytes: the
// steps of its compiled traces and the bytes of its pages' entry tables.
func (cc CodeCache) Footprint() (steps, entryBytes int) {
	for _, pg := range cc.pages {
		if pg == nil {
			continue
		}
		entryBytes += int(unsafe.Sizeof(pg.ents))
		for _, b := range pg.blockList() {
			steps += len(b.blk.ops)
		}
	}
	return steps, entryBytes
}

// popCount reports how many decoded entries the page holds.
func (pg *codePage) popCount() int {
	n := 0
	for _, e := range pg.ents {
		if e != 0 {
			n++
		}
	}
	return n
}

// ShareCode freezes the CPU's current decoded pages and returns them as a
// CodeCache. Frozen pages record the bytes they were decoded from and are
// never mutated again — this CPU clones on its next write into one. The
// caller is responsible for publishing the result with proper
// synchronization (Wasp's registries do this under their locks).
func (c *CPU) ShareCode() CodeCache {
	if len(c.code) == 0 {
		return CodeCache{}
	}
	pages := make([]*codePage, len(c.code))
	any := false
	for i, pg := range c.code {
		if pg == nil {
			continue
		}
		if !pg.shared {
			lo := i * codePageSize
			hi := lo + codePageSize
			if hi > len(c.Mem) {
				hi = len(c.Mem)
			}
			pg.src = append([]byte(nil), c.Mem[lo:hi]...)
			pg.shared = true
		}
		pages[i] = pg
		any = true
	}
	c.codeNew = false
	if !any {
		return CodeCache{}
	}
	return CodeCache{pages: pages}
}

// AdoptCode installs frozen pages into this CPU where it has none of its
// own, skipping any page whose recorded source bytes no longer match the
// CPU's memory — a stale decode is impossible by construction, whatever
// path populated the memory (image load, snapshot restore, COW reset).
func (c *CPU) AdoptCode(cc CodeCache) {
	if cc.Empty() {
		return
	}
	c.ensureCode()
	n := len(cc.pages)
	if len(c.code) < n {
		n = len(c.code)
	}
	for i := 0; i < n; i++ {
		pg := cc.pages[i]
		if pg == nil || c.code[i] != nil {
			continue
		}
		lo := i * codePageSize
		if lo+len(pg.src) > len(c.Mem) {
			continue
		}
		if !bytes.Equal(pg.src, c.Mem[lo:lo+len(pg.src)]) {
			continue
		}
		c.code[i] = pg
		c.pstate[i] |= pageCode
	}
}

// CodePages reports how many pages currently hold decoded entries
// (tests and telemetry).
func (c *CPU) CodePages() int {
	n := 0
	for _, pg := range c.code {
		if pg != nil {
			n++
		}
	}
	return n
}
