package vmm

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Content-addressed snapshot substrate. A snapshot used to be a private
// deep copy of guest memory per image; with thousands of tenants running
// clones of the same binary, that holds thousands of near-identical
// copies. The PageStore deduplicates snapshot memory at 4 KiB page
// granularity — identical pages across images, tenants and snapshots are
// stored exactly once — and Layer arranges snapshots into
// container-image-style trees: a tenant snapshot references a shared
// base layer and owns only the pages that differ from it.
//
// Invariants:
//
//   - Store pages are immutable. Every writer copies page content into
//     the store on Insert; every reader (Context.Rebase, export) copies
//     content out. Nothing — not the cleaner's scrubbing, not a guest,
//     not a host handler — ever holds a writable alias of a store page.
//     Verify re-hashes the store to prove it. A page's backing array is
//     never reused for other content, so two equal pointers mean equal
//     content (the shell-content record in content.go relies on it).
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
// a layer either omits a zero page entirely (base layers, or when the
// parent chain already resolves it to zero) or records ZeroKey to
// override a non-zero parent page.
var ZeroKey = sha256.Sum256(make([]byte, PageSize))

var zeroPage [PageSize]byte

// pageShardCount shards the store's key space so concurrent captures,
// releases and fault-ins on different pages rarely contend. Power of two.
const pageShardCount = 16

// PageStore is an immutable, refcounted, content-hash-keyed store of
// 4 KiB pages, shared by every snapshot layer of one forest. Safe for
// concurrent use.
type PageStore struct {
	shards [pageShardCount]pageShard

	dedupHits atomic.Uint64 // Inserts resolved to an already-stored page
	inserted  atomic.Uint64 // lifetime distinct-page insertions
}

type pageShard struct {
	mu    sync.Mutex
	pages map[PageKey]*storedPage
}

type storedPage struct {
	data []byte // exactly PageSize, immutable
	refs int    // owning layer entries; guarded by the shard mutex
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

// Insert stores one page of content and returns its key, holding one
// reference for the caller. Content equal to an already-stored page
// increments that page's refcount instead of storing again (this is the
// dedup path). All-zero content returns ZeroKey and stores nothing.
// The content is copied; the caller keeps ownership of data.
func (s *PageStore) Insert(data []byte) PageKey {
	if isZeroPage(data) {
		return ZeroKey
	}
	key := HashPage(data)
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.pages[key]; p != nil {
		p.refs++
		s.dedupHits.Add(1)
		return key
	}
	page := make([]byte, PageSize)
	copy(page, data)
	if sh.pages == nil {
		sh.pages = make(map[PageKey]*storedPage)
	}
	sh.pages[key] = &storedPage{data: page, refs: 1}
	s.inserted.Add(1)
	return key
}

// Ref adds one reference to an already-stored page. ZeroKey is a no-op.
func (s *PageStore) Ref(key PageKey) {
	if key == ZeroKey {
		return
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	if p := sh.pages[key]; p != nil {
		p.refs++
	}
	sh.mu.Unlock()
}

// Unref drops one reference; the page is freed when the last owner
// releases it. ZeroKey is a no-op.
func (s *PageStore) Unref(key PageKey) {
	if key == ZeroKey {
		return
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	if p := sh.pages[key]; p != nil {
		p.refs--
		if p.refs <= 0 {
			delete(sh.pages, key)
		}
	}
	sh.mu.Unlock()
}

// Data returns the stored page for key, or nil for ZeroKey or an unknown
// key. The returned slice is the store's immutable backing: callers must
// only copy from it, never write through it.
func (s *PageStore) Data(key PageKey) []byte {
	if key == ZeroKey {
		return nil
	}
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if p := sh.pages[key]; p != nil {
		return p.data
	}
	return nil
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

// Bytes reports the memory held by stored page content.
func (s *PageStore) Bytes() int64 {
	return int64(s.Pages()) * PageSize
}

// DedupHits reports Inserts that were satisfied by an existing page.
func (s *PageStore) DedupHits() uint64 { return s.dedupHits.Load() }

// Inserted reports lifetime distinct-page insertions.
func (s *PageStore) Inserted() uint64 { return s.inserted.Load() }

// Verify re-hashes every stored page and returns an error naming the
// first page whose content no longer matches its key — the tripwire for
// the shared-pages-are-never-mutated-in-place invariant.
func (s *PageStore) Verify() error {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, p := range sh.pages {
			if HashPage(p.data) != key {
				sh.mu.Unlock()
				return fmt.Errorf("vmm: page store corruption: page %x was mutated in place", key[:8])
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

func isZeroPage(data []byte) bool {
	if len(data) == PageSize {
		return bytes.Equal(data, zeroPage[:])
	}
	for _, b := range data {
		if b != 0 {
			return false
		}
	}
	return true
}

// Window is one half-open byte range [Lo, Hi) of guest memory that a
// snapshot captures; bytes outside every window are zero in the
// snapshot, exactly as the deep-copy capture zero-filled them.
type Window struct{ Lo, Hi int }

// Layer is one node of the snapshot forest: a page table of content
// keys over a fixed guest-memory geometry, layered over an optional
// parent. A layer owns only the pages that differ from its parent
// chain; lookups fault through to the nearest ancestor that owns the
// page, and pages owned nowhere are zero. Layers are immutable after
// construction.
type Layer struct {
	store  *PageStore
	parent *Layer
	pages  map[int]PageKey
	// table is the chain resolved once at construction: per page, the
	// store page it resolves to, nil for zero. The layer's references
	// (its own pages, its retained parent) keep every entry stored.
	table  []*[PageSize]byte
	memLen int
	digest [32]byte // over the resolved page table; see computeDigest
	refs   atomic.Int32
}

// LayerPage is one (page index, content key) entry of a layer table.
type LayerPage struct {
	Idx int
	Key PageKey
}

// CaptureLayer snapshots mem's captured windows as a new layer over
// parent (nil for a base layer), holding one reference for the caller
// and one on parent. Only pages whose captured content differs from the
// parent chain's resolution are stored: a tenant clone captured over its
// image's base layer owns just its delta. parent, when non-nil, must
// share mem's geometry.
func CaptureLayer(store *PageStore, parent *Layer, mem []byte, windows []Window) *Layer {
	if parent != nil && parent.memLen != len(mem) {
		panic(fmt.Sprintf("vmm: capture geometry %d over base geometry %d", len(mem), parent.memLen))
	}
	l := &Layer{store: store, parent: parent, pages: make(map[int]PageKey), memLen: len(mem)}
	l.refs.Store(1)
	if parent != nil {
		parent.Retain()
	}
	npages := (len(mem) + PageSize - 1) / PageSize
	var scratch [PageSize]byte
	for p := 0; p < npages; p++ {
		view := capturedView(mem, p, windows, &scratch)
		if view == nil { // captured content is all zero
			if parent.resolve(p) != ZeroKey {
				l.pages[p] = ZeroKey // override a non-zero base page
			}
			continue
		}
		key := HashPage(view)
		if parent.resolve(p) == key {
			continue // identical to the base: the delta does not own it
		}
		l.pages[p] = l.store.Insert(view)
	}
	l.resolveTable()
	return l
}

// capturedView returns page p of mem as the capture windows see it: the
// page's bytes where a window covers them, zero elsewhere. It returns
// nil when the captured view is all zero, a direct subslice of mem when
// one window covers the whole page, and a composed copy in scratch
// otherwise.
func capturedView(mem []byte, p int, windows []Window, scratch *[PageSize]byte) []byte {
	lo := p * PageSize
	hi := lo + PageSize
	if hi > len(mem) {
		hi = len(mem)
	}
	switch covered(windows, lo, hi) {
	case 0:
		return nil
	case 2:
		if isZeroPage(mem[lo:hi]) {
			return nil
		}
		return mem[lo:hi]
	}
	// Partial coverage: compose captured bytes over zeros.
	for i := range scratch {
		scratch[i] = 0
	}
	nonzero := false
	for _, w := range windows {
		wlo, whi := w.Lo, w.Hi
		if wlo < lo {
			wlo = lo
		}
		if whi > hi {
			whi = hi
		}
		if wlo >= whi {
			continue
		}
		copy(scratch[wlo-lo:whi-lo], mem[wlo:whi])
		nonzero = true
	}
	if !nonzero || isZeroPage(scratch[:]) {
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

// NewLayer builds a layer from an explicit page table — the import path.
// The caller must already hold one store reference per non-zero entry
// (Insert provides it); NewLayer takes ownership of those references,
// holds one layer reference for the caller, and retains parent.
func NewLayer(store *PageStore, parent *Layer, memLen int, pages map[int]PageKey) *Layer {
	l := &Layer{store: store, parent: parent, pages: pages, memLen: memLen}
	if l.pages == nil {
		l.pages = make(map[int]PageKey)
	}
	l.refs.Store(1)
	if parent != nil {
		parent.Retain()
	}
	l.resolveTable()
	return l
}

// resolveTable finishes construction: the parent's resolved table with
// this layer's own entries on top, and the digest over the result.
func (l *Layer) resolveTable() {
	l.table = make([]*[PageSize]byte, (l.memLen+PageSize-1)/PageSize)
	if l.parent != nil {
		copy(l.table, l.parent.table)
	}
	for p, key := range l.pages {
		l.table[p] = nil // ZeroKey overrides the parent
		if data := l.store.Data(key); data != nil {
			l.table[p] = (*[PageSize]byte)(data)
		}
	}
	l.digest = l.computeDigest()
}

// resolve walks the chain from l upward and returns the key of the
// nearest owner of page p, or ZeroKey when no layer owns it. Safe on a
// nil layer.
func (l *Layer) resolve(p int) PageKey {
	for n := l; n != nil; n = n.parent {
		if key, ok := n.pages[p]; ok {
			return key
		}
	}
	return ZeroKey
}

// PageData returns page p's content as resolved through the layer
// chain, or nil when the page is zero. The returned slice is immutable
// store backing: copy from it, never write through it.
func (l *Layer) PageData(p int) []byte {
	if pg := l.table[p]; pg != nil {
		return pg[:]
	}
	return nil
}

// MemLen is the guest-memory geometry the layer snapshots.
func (l *Layer) MemLen() int { return l.memLen }

// Parent returns the layer this one is a delta over, nil for a base.
func (l *Layer) Parent() *Layer { return l.parent }

// OwnedPages reports how many page entries this layer itself holds —
// the delta size in pages (zero-override entries included).
func (l *Layer) OwnedPages() int { return len(l.pages) }

// OwnTable returns this layer's own page entries, sorted by index —
// what a delta export ships.
func (l *Layer) OwnTable() []LayerPage {
	out := make([]LayerPage, 0, len(l.pages))
	for p, key := range l.pages {
		out = append(out, LayerPage{Idx: p, Key: key})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx < out[j].Idx })
	return out
}

// ResolvedTable returns the chain-resolved page table, sorted by index,
// with zero pages omitted — what a self-contained export ships.
func (l *Layer) ResolvedTable() []LayerPage {
	npages := (l.memLen + PageSize - 1) / PageSize
	var out []LayerPage
	for p := 0; p < npages; p++ {
		if key := l.resolve(p); key != ZeroKey {
			out = append(out, LayerPage{Idx: p, Key: key})
		}
	}
	return out
}

// Digest identifies the layer's resolved content: two layers with equal
// digests materialize identical memory. Import uses it to decide whether
// a shipped delta can graft onto a local base.
func (l *Layer) Digest() [32]byte { return l.digest }

// computeDigest hashes the geometry and the resolved non-zero page
// table. Zero-override entries resolve to ZeroKey and are skipped, so a
// delta that zeroes a page and a base that never had it digest alike.
func (l *Layer) computeDigest() [32]byte {
	h := sha256.New()
	var buf [8]byte
	putU64(buf[:], uint64(l.memLen))
	h.Write(buf[:])
	for _, e := range l.ResolvedTable() {
		putU64(buf[:], uint64(e.Idx))
		h.Write(buf[:])
		h.Write(e.Key[:])
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
	for _, key := range l.pages {
		l.store.Unref(key)
	}
	l.parent.Release()
}
