package vmm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// Content-addressed snapshot substrate. A snapshot used to be a private
// deep copy of guest memory per image; with thousands of tenants running
// clones of the same binary, that holds thousands of near-identical
// copies. The PageStore deduplicates snapshot memory at 4 KiB page
// granularity — identical pages across images, tenants and snapshots are
// stored exactly once, each as only the span between its first and last
// non-zero byte — and Layer arranges snapshots into
// container-image-style trees: a tenant snapshot references a shared
// base layer and owns only the pages that differ from it.
//
// Invariants:
//
//   - Store pages are immutable. Every writer copies page content into
//     the store on Insert; every reader (Context.Rebase, export) copies
//     content out, through copyTo, equal and AppendTo, which put the
//     zeros around a page's span back. Nothing — not shell reuse, not a
//     guest, not a host handler — ever holds a writable alias of a store
//     page.
//     Verify re-hashes the store to prove it. A Page is never reused for
//     other content, so two equal pointers mean equal content (the
//     shell-content record in content.go relies on it), and a Page the
//     store has freed can be stored again as itself.
//   - Pages are refcounted: one reference per owning layer entry.
//     Release of the last layer that owns a page frees it.
//   - Layers are immutable after construction and refcounted: one
//     reference per snapshot, per child layer, and per registry entry
//     holding them, plus transient references taken by in-flight
//     restores and exports.

// PageKey identifies one 4 KiB page by content: SHA-256 over the page
// bytes. Collision-free for any realistic store size, so equal keys mean
// equal content and dedup needs no byte comparison.
type PageKey [32]byte

// ZeroKey is the key of the all-zero page. Zero pages are never stored:
// a nil *Page stands for them.
var ZeroKey = sha256.Sum256(make([]byte, PageSize))

var zeroPage [PageSize]byte

// pageShardCount shards the store's key space so concurrent captures,
// releases and imports on different pages rarely contend. Power of two.
const pageShardCount = 16

// PageStore is an immutable, refcounted, content-hash-keyed store of
// 4 KiB pages, shared by every snapshot layer of one forest. Safe for
// concurrent use.
type PageStore struct {
	shards [pageShardCount]pageShard

	dedupHits atomic.Uint64 // insertions resolved to an already-stored page
	inserted  atomic.Uint64 // lifetime distinct-page insertions
}

type pageShard struct {
	mu    sync.Mutex
	pages map[PageKey]*Page
	bytes int64 // the stored pages' span bytes
}

// Page is one stored page: its content and the content key, both
// immutable. The content is held as its non-zero span: the bytes from
// the first non-zero byte, at off, through the last; every byte outside
// the span is zero. Layer tables and shell-content records point at
// Pages, so an entry is 8 bytes, equal pointers are equal content, and a
// key is one load away. A nil *Page is the zero page.
type Page struct {
	span []byte
	key  PageKey
	off  int
	refs int // owning layer entries; guarded by the shard mutex
}

// Key returns the page's content key, ZeroKey for the zero page.
func (p *Page) Key() PageKey {
	if p == nil {
		return ZeroKey
	}
	return p.key
}

// AppendTo appends the page's PageSize bytes of content to b, zeros for
// the zero page, and returns the extended slice.
func (p *Page) AppendTo(b []byte) []byte {
	if p == nil {
		return append(b, zeroPage[:]...)
	}
	b = append(b, zeroPage[:p.off]...)
	b = append(b, p.span...)
	return append(b, zeroPage[p.off+len(p.span):]...)
}

// copyTo writes the first len(dst) bytes of the page's content to dst,
// which is at most PageSize long (a short tail page takes the prefix).
// Zeros are copied from zeroPage rather than cleared: a clear over more
// than 2 KiB compiles to REP STOSQ, which is slower here than a copy.
func (p *Page) copyTo(dst []byte) {
	if p == nil {
		copy(dst, zeroPage[:])
		return
	}
	n := copy(dst, zeroPage[:p.off])
	n += copy(dst[n:], p.span)
	copy(dst[n:], zeroPage[:])
}

// equal reports whether b, at most PageSize long, equals the first
// len(b) bytes of the page's content.
func (p *Page) equal(b []byte) bool {
	if p == nil {
		return isZeroPage(b)
	}
	lo := min(p.off, len(b))
	hi := min(lo+len(p.span), len(b))
	return isZeroPage(b[:lo]) && bytes.Equal(b[lo:hi], p.span[:hi-lo]) && isZeroPage(b[hi:])
}

// NewPageStore returns an empty shared page store.
func NewPageStore() *PageStore {
	return &PageStore{}
}

func (s *PageStore) shardFor(key PageKey) *pageShard {
	return &s.shards[key[0]&(pageShardCount-1)]
}

// HashPage computes the content key of one page. data shorter than
// PageSize hashes as if zero-padded to a full page, matching how partial
// capture windows are stored.
func HashPage(data []byte) PageKey {
	if len(data) == PageSize {
		return sha256.Sum256(data)
	}
	var buf [PageSize]byte
	copy(buf[:], data)
	return sha256.Sum256(buf[:])
}

// Insert stores one page of content and returns it, holding one
// reference for the caller. Content equal to an already-stored page
// references that page instead of storing again (the dedup path).
// All-zero content returns nil and stores nothing. The content is
// copied; the caller keeps ownership of data.
func (s *PageStore) Insert(data []byte) *Page {
	if isZeroPage(data) {
		return nil
	}
	return s.insert(HashPage(data), data, nil)
}

// insert takes one reference on the stored page with key, data's hash:
// the page already stored (a dedup hit), else freed — a page the store
// has released since its caller read it, stored again as itself — else a
// new page holding a copy of data's non-zero span. data is not all zero.
func (s *PageStore) insert(key PageKey, data []byte, freed *Page) *Page {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.pages[key]; p != nil {
		p.refs++
		s.dedupHits.Add(1)
		return p
	}
	p := freed
	if p == nil {
		lo, hi := spanOf(data)
		p = &Page{span: bytes.Clone(data[lo:hi]), key: key, off: lo}
	}
	p.refs = 1
	if sh.pages == nil {
		sh.pages = make(map[PageKey]*Page)
	}
	sh.pages[key] = p
	sh.bytes += int64(len(p.span))
	s.inserted.Add(1)
	return p
}

// spanOf returns the offsets of data's first non-zero byte and of one
// past its last, scanning eight bytes at a time. data is not all zero.
func spanOf(data []byte) (lo, hi int) {
	le := binary.LittleEndian
	for lo+8 <= len(data) && le.Uint64(data[lo:]) == 0 {
		lo += 8
	}
	for data[lo] == 0 {
		lo++
	}
	hi = len(data)
	for hi-8 >= lo && le.Uint64(data[hi-8:]) == 0 {
		hi -= 8
	}
	for data[hi-1] == 0 {
		hi--
	}
	return lo, hi
}

// Unref drops one reference; the page is freed when the last owner
// releases it. nil is a no-op.
func (s *PageStore) Unref(p *Page) {
	if p == nil {
		return
	}
	sh := s.shardFor(p.key)
	sh.mu.Lock()
	if p.refs--; p.refs == 0 {
		delete(sh.pages, p.key)
		sh.bytes -= int64(len(p.span))
	}
	sh.mu.Unlock()
}

// Pages reports the number of distinct pages currently stored.
func (s *PageStore) Pages() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.pages)
		sh.mu.Unlock()
	}
	return n
}

// Bytes reports the page content the store holds: the sum of the stored
// pages' non-zero spans, not PageSize per page.
func (s *PageStore) Bytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// DedupHits reports insertions that were satisfied by an existing page.
func (s *PageStore) DedupHits() uint64 { return s.dedupHits.Load() }

// Inserted reports lifetime distinct-page insertions.
func (s *PageStore) Inserted() uint64 { return s.inserted.Load() }

// Verify re-hashes every stored page and returns an error naming the
// first page whose content no longer matches its key — the tripwire for
// the shared-pages-are-never-mutated-in-place invariant.
func (s *PageStore) Verify() error {
	var buf [PageSize]byte
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, p := range sh.pages {
			p.copyTo(buf[:])
			if sha256.Sum256(buf[:]) != key || p.key != key {
				sh.mu.Unlock()
				return fmt.Errorf("vmm: page store corruption: page %x was mutated in place", key[:8])
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// isZeroPage reports whether data, at most PageSize long, is all zero.
func isZeroPage(data []byte) bool {
	return bytes.Equal(data, zeroPage[:len(data)])
}

// Window is one half-open byte range [Lo, Hi) of guest memory that a
// snapshot captures; bytes outside every window are zero in the
// snapshot, exactly as the deep-copy capture zero-filled them.
type Window struct{ Lo, Hi int }

// Layer is one node of the snapshot forest: a page table over a fixed
// guest-memory geometry, layered over an optional parent. A layer owns
// only the pages that differ from its parent chain; pages owned nowhere
// are zero. Layers are immutable after construction.
type Layer struct {
	store  *PageStore
	parent *Layer
	own    []LayerPage // ascending by index; a nil Page zeroes a parent page
	// table is the chain resolved once at construction: per page, the
	// store page it resolves to, nil for zero. The layer's references
	// (its own pages, its retained parent) keep every entry stored.
	table  []*Page
	memLen int
	digest [32]byte // over the resolved page table; see computeDigest
	refs   atomic.Int32
}

// LayerPage is one (page index, store page) entry of a layer table; a
// nil Page is the zero page.
type LayerPage struct {
	Idx  int
	Page *Page
}

// capturedView returns page p of mem as the capture windows see it: the
// page's bytes where a window covers them, zero elsewhere, always
// PageSize long. It returns nil when the captured view is all zero, a
// direct subslice of mem when one window covers the whole (full-size)
// page, and a composed copy in scratch otherwise.
func capturedView(mem []byte, p int, windows []Window, scratch *[PageSize]byte) []byte {
	lo := p * PageSize
	hi := min(lo+PageSize, len(mem))
	cov := covered(windows, lo, hi)
	if cov == 0 {
		return nil
	}
	if cov == 2 && hi-lo == PageSize {
		if isZeroPage(mem[lo:hi]) {
			return nil
		}
		return mem[lo:hi]
	}
	// Partial coverage or a short tail page: compose captured bytes over
	// zeros.
	clear(scratch[:])
	for _, w := range windows {
		if wlo, whi := max(w.Lo, lo), min(w.Hi, hi); wlo < whi {
			copy(scratch[wlo-lo:whi-lo], mem[wlo:whi])
		}
	}
	if isZeroPage(scratch[:]) {
		return nil
	}
	return scratch[:]
}

// covered reports how the windows cover [lo, hi): 0 not at all, 2
// wholly within one window, 1 otherwise.
func covered(windows []Window, lo, hi int) int {
	n := 0
	for _, w := range windows {
		if w.Lo <= lo && w.Hi >= hi {
			return 2
		}
		if w.Hi > lo && w.Lo < hi {
			n = 1
		}
	}
	return n
}

// NewLayer builds a layer from its own entries, ascending by index — the
// import and capture path. The caller must already hold one store
// reference per non-nil entry (Insert provides it); NewLayer takes
// ownership of those references, holds one layer reference for the
// caller, and retains parent.
func NewLayer(store *PageStore, parent *Layer, memLen int, own []LayerPage) *Layer {
	l := &Layer{store: store, parent: parent, own: own, memLen: memLen}
	l.refs.Store(1)
	l.table = make([]*Page, (memLen+PageSize-1)/PageSize)
	if parent != nil {
		parent.Retain()
		copy(l.table, parent.table)
	}
	for _, e := range own {
		l.table[e.Idx] = e.Page
	}
	l.digest = l.computeDigest()
	return l
}

// MemLen is the guest-memory geometry the layer snapshots.
func (l *Layer) MemLen() int { return l.memLen }

// Parent returns the layer this one is a delta over, nil for a base.
func (l *Layer) Parent() *Layer { return l.parent }

// OwnedPages reports how many page entries this layer itself holds —
// the delta size in pages (zero-override entries included).
func (l *Layer) OwnedPages() int { return len(l.own) }

// OwnTable returns this layer's own page entries, sorted by index —
// what a delta export ships. Callers must not modify it.
func (l *Layer) OwnTable() []LayerPage { return l.own }

// ResolvedTable returns the chain-resolved page table, sorted by index,
// with zero pages omitted — what a self-contained export ships.
func (l *Layer) ResolvedTable() []LayerPage {
	var out []LayerPage
	for p, pg := range l.table {
		if pg != nil {
			out = append(out, LayerPage{Idx: p, Page: pg})
		}
	}
	return out
}

// Digest identifies the layer's resolved content: two layers with equal
// digests materialize identical memory. Import uses it to decide whether
// a shipped delta can graft onto a local base.
func (l *Layer) Digest() [32]byte { return l.digest }

// computeDigest hashes the geometry and the resolved non-zero page
// table. Zero-override entries resolve to zero and are skipped, so a
// delta that zeroes a page and a base that never had it digest alike.
func (l *Layer) computeDigest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	putU64(buf[:], uint64(l.memLen))
	h.Write(buf[:])
	for p, pg := range l.table {
		if pg != nil {
			putU64(buf[:], uint64(p))
			h.Write(buf[:])
			h.Write(pg.key[:])
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Retain adds one reference — a snapshot, registry entry, child layer,
// or in-flight restore/export now depends on this layer.
func (l *Layer) Retain() {
	if l == nil {
		return
	}
	l.refs.Add(1)
}

// Release drops one reference. The last release returns the layer's
// owned pages to the store and releases its parent, so dropping every
// snapshot of a tenant frees exactly that tenant's delta while the
// shared base stays for its other owners.
func (l *Layer) Release() {
	if l == nil {
		return
	}
	if l.refs.Add(-1) > 0 {
		return
	}
	for _, e := range l.own {
		l.store.Unref(e.Page)
	}
	l.parent.Release()
}
