// Package obs is the runtime's flight recorder: a low-overhead tracing
// and metrics layer shared by the scheduler, the Wasp runtime, the
// placement engine, and the cluster simulator.
//
// The tracer records fixed-size events into per-lane ring buffers —
// one lane per scheduler worker plus a control lane — stamped with both
// virtual cycles and host time. Virtual-cycle stamps make the same
// spans meaningful in real mode and bit-identical in deterministic
// virtual mode: a tracer built with Deterministic(true) suppresses the
// host stamp, and the canonical Marshal stream never includes it, so
// two runs of the same seeded virtual workload serialize to identical
// bytes (the determinism suite enforces this).
//
// The disabled path is the contract that lets instrumentation live on
// hot paths permanently: every emit is guarded by one nil check plus
// one atomic load, and a nil *Tracer is a valid, always-disabled
// tracer, so call sites never need their own guards. The overhead
// benchmarks (sched's BenchmarkTracerOverhead, wasp's
// BenchmarkTracerOverheadRun) hold the disabled tax under 2% on the
// batch-submission and run hot paths.
//
// On top of the rings sit a counters/gauges/histograms metrics registry
// (metrics.go) unifying the runtime's scattered stats structs behind
// one Snapshot, and a Chrome trace_event exporter (chrome.go) rendering
// workers as tracks and tickets as flows.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies one trace event. The set covers the full ticket
// lifecycle (submit → place/steer → dispatch/service → shell acquire →
// guest run → release → async clean) plus snapshot, migration,
// autoscaling, and cluster-epoch control events.
type Kind uint8

const (
	KindNone      Kind = iota
	KindSubmit         // a submission burst entered the scheduler (arg0 = tickets)
	KindTicket         // one ticket's service span on a worker lane
	KindPlace          // a placement/steering decision (arg0 = backend index)
	KindShell          // shell provisioning (pool hit, cold create, COW take, prewarm)
	KindRelease        // a context returned to the pool layer
	KindClean          // Wasp+CA cleaner ledger (release booked, settlement)
	KindSnapshot       // snapshot capture / restore / COW reset
	KindMigrate        // a warm snapshot shipped between backends
	KindFlip           // a Migrating placer committed a new home (args = interned from/to)
	KindGuest          // one guest run's summary (arg0 = blocks compiled, arg1 = deopts)
	KindTier           // a JIT tier transition inside a run (compile or deopt)
	KindAutoscale      // fleet width or prewarm target changed (arg0 = from, arg1 = to)
	KindEpoch          // one cluster control epoch closed (arg0 = arrivals, arg1 = width)
)

var kindNames = [...]string{
	"none", "submit", "ticket", "place", "shell", "release", "clean",
	"snapshot", "migrate", "flip", "guest", "tier", "autoscale", "epoch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ControlLane is the lane id for events not tied to one worker:
// submissions, autoscaling, cluster epochs, and runtime-internal
// activity (pools, cleaners, snapshots).
const ControlLane = -1

// Event is one fixed-size trace record. No pointers, no variable-size
// payloads: strings are interned once per distinct value (Tracer.Name)
// and referenced by id, so the ring buffers never hold the garbage
// collector's attention and an emit never allocates.
type Event struct {
	VStart uint64 // virtual cycles at the event (span start for spans)
	VEnd   uint64 // span end; == VStart for instants
	Host   int64  // host ns at emit; 0 under Deterministic
	ID     uint64 // correlation id (ticket sequence number, epoch index)
	Arg0   uint64 // kind-specific
	Arg1   uint64 // kind-specific
	Name   uint32 // interned name id (Tracer.NameOf resolves it)
	Lane   int32  // emitting lane (ControlLane or a worker id)
	Kind   Kind
}

// DefaultRingSize is the per-lane ring capacity in events (64 KiB per
// lane at 64 B/event). Each lane keeps its newest DefaultRingSize
// events; older ones are dropped oldest-first and counted. The default
// deliberately keeps a 16-worker fleet's rings (~1 MiB) inside L2-ish
// footprint: recording shares the cache with the traced workload, and a
// larger ring buys history at a measured throughput cost (RingSize
// raises it when post-mortem depth matters more than overhead).
const DefaultRingSize = 1024

// lane is one sharded ring buffer. Its mutex is uncontended in virtual
// mode (dispatch is synchronous) and per-worker in real mode, so emits
// never serialize the fleet on one lock.
type lane struct {
	mu  sync.Mutex
	buf []Event
	n   uint64 // lifetime writes; buf[(n-1) % cap] is the newest event
}

func (l *lane) emit(e Event) {
	l.mu.Lock()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.n%uint64(cap(l.buf))] = e
	}
	l.n++
	l.mu.Unlock()
}

// snapshot copies the lane's events oldest-first and reports lifetime
// writes (dropped = written - len(events)).
func (l *lane) snapshot() ([]Event, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.buf))
	if len(l.buf) < cap(l.buf) || l.n == uint64(len(l.buf)) {
		copy(out, l.buf)
	} else {
		head := int(l.n % uint64(cap(l.buf))) // oldest surviving event
		copy(out, l.buf[head:])
		copy(out[len(l.buf)-head:], l.buf[:head])
	}
	return out, l.n
}

// TracerOption configures a Tracer at construction.
type TracerOption func(*Tracer)

// Deterministic makes the tracer suppress host-time stamps so virtual-
// mode event streams are bit-identical across runs. Virtual-cycle
// stamps are unaffected.
func Deterministic(on bool) TracerOption {
	return func(t *Tracer) { t.det = on }
}

// RingSize overrides the per-lane ring capacity (events).
func RingSize(n int) TracerOption {
	return func(t *Tracer) {
		if n > 0 {
			t.ringSize = n
		}
	}
}

// Tracer is the flight recorder handle instrumented components hold.
// A nil *Tracer is valid and permanently disabled; every method is
// nil-safe. Tracers start disabled — attach first, SetEnabled(true)
// when recording should begin.
type Tracer struct {
	enabled  atomic.Bool
	det      bool
	ringSize int

	// lanes is an immutable slice republished on growth (index = lane
	// id + 1, ControlLane at 0); emitters read it with one atomic load.
	lmu   sync.Mutex // guards growth
	lanes atomic.Pointer[[]*lane]

	// The interner mirrors that shape: nameIDs is a concurrent read-
	// mostly map (one atomic load per hit on the emit path), names an
	// immutable id→string slice republished under nmu on each insert.
	nmu     sync.Mutex
	nameIDs sync.Map // string → uint32
	names   atomic.Pointer[[]string]

	// Metrics is the tracer's companion registry. Emits never touch it
	// (the hot path is rings only); components register pull-model
	// collectors into it so one Snapshot covers the whole runtime.
	Metrics *Registry
}

// NewTracer builds a flight recorder with all lanes empty.
func NewTracer(opts ...TracerOption) *Tracer {
	t := &Tracer{ringSize: DefaultRingSize, Metrics: NewRegistry()}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Enabled reports whether emits currently record. This is the hot-path
// guard: one nil check and one atomic load.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled flips recording on or off. Events emitted while disabled
// are dropped before touching any lane. No-op on a nil tracer.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Deterministic reports whether host-time stamps are suppressed.
func (t *Tracer) Deterministic() bool { return t != nil && t.det }

// Name interns s and returns its id, stable for the tracer's lifetime.
// Hot call sites should resolve names they emit repeatedly once and
// cache the id; interning an already-known name is one shared-lock map
// read. Returns 0 on a nil tracer.
func (t *Tracer) Name(s string) uint32 {
	if t == nil {
		return 0
	}
	if id, ok := t.nameIDs.Load(s); ok {
		return id.(uint32)
	}
	t.nmu.Lock()
	defer t.nmu.Unlock()
	if id, ok := t.nameIDs.Load(s); ok {
		return id.(uint32)
	}
	var old []string
	if p := t.names.Load(); p != nil {
		old = *p
	}
	id := uint32(len(old))
	grown := make([]string, len(old)+1)
	copy(grown, old)
	grown[id] = s
	t.names.Store(&grown)
	t.nameIDs.Store(s, id)
	return id
}

// NameOf resolves an interned id back to its string ("" if unknown).
func (t *Tracer) NameOf(id uint32) string {
	if t == nil {
		return ""
	}
	if p := t.names.Load(); p != nil && int(id) < len(*p) {
		return (*p)[id]
	}
	return ""
}

func (t *Tracer) laneFor(id int) *lane {
	idx := id + 1
	if p := t.lanes.Load(); p != nil && idx < len(*p) {
		return (*p)[idx]
	}
	t.lmu.Lock()
	defer t.lmu.Unlock()
	var old []*lane
	if p := t.lanes.Load(); p != nil {
		old = *p
	}
	if idx < len(old) {
		return old[idx]
	}
	grown := make([]*lane, idx+1)
	copy(grown, old)
	for i := len(old); i <= idx; i++ {
		grown[i] = &lane{buf: make([]Event, 0, t.ringSize)}
	}
	t.lanes.Store(&grown)
	return grown[idx]
}

// Emit records a fully-formed event on a lane. Callers must guard with
// Enabled(); Emit itself re-checks so a lost race with SetEnabled only
// costs one extra event, never a crash.
func (t *Tracer) Emit(laneID int, e Event) {
	if !t.Enabled() {
		return
	}
	if !t.det {
		e.Host = time.Now().UnixNano()
	}
	e.Lane = int32(laneID)
	t.laneFor(laneID).emit(e)
}

// Span records a [vstart, vend] interval on a lane — a ticket's service
// window, a guest run. name is interned per call; hot sites with a
// fixed name should pre-intern and use Emit.
func (t *Tracer) Span(laneID int, kind Kind, name string, vstart, vend, id, arg0, arg1 uint64) {
	if !t.Enabled() {
		return
	}
	e := Event{
		Kind: kind, Name: t.Name(name), Lane: int32(laneID),
		VStart: vstart, VEnd: vend, ID: id, Arg0: arg0, Arg1: arg1,
	}
	if !t.det {
		e.Host = time.Now().UnixNano()
	}
	t.laneFor(laneID).emit(e)
}

// Instant records a point event at virtual time v on a lane.
func (t *Tracer) Instant(laneID int, kind Kind, name string, v, id, arg0, arg1 uint64) {
	t.Span(laneID, kind, name, v, v, id, arg0, arg1)
}

// LaneEvents is one lane's snapshot: its surviving events oldest-first
// and how many were dropped to the ring bound before them.
type LaneEvents struct {
	Lane    int
	Dropped uint64
	Events  []Event
}

// Events snapshots every lane in lane order. Safe under concurrent
// emits (each lane is copied under its own lock); the snapshot is a
// consistent prefix+suffix per lane, not a cross-lane barrier.
func (t *Tracer) Events() []LaneEvents {
	if t == nil {
		return nil
	}
	var lanes []*lane
	if p := t.lanes.Load(); p != nil {
		lanes = *p // immutable once published
	}
	out := make([]LaneEvents, 0, len(lanes))
	for i, l := range lanes {
		evs, n := l.snapshot()
		out = append(out, LaneEvents{
			Lane:    i - 1,
			Dropped: n - uint64(len(evs)),
			Events:  evs,
		})
	}
	return out
}

// Marshal serializes the recorded events as the canonical text stream:
// one header line per lane, one line per event, names resolved, host
// stamps excluded. Two deterministic virtual-mode runs of the same
// workload produce byte-identical Marshal output — the property the
// determinism suite asserts.
func (t *Tracer) Marshal() []byte {
	if t == nil {
		return nil
	}
	var b strings.Builder
	for _, le := range t.Events() {
		fmt.Fprintf(&b, "# lane %d events %d dropped %d\n", le.Lane, len(le.Events), le.Dropped)
		for _, e := range le.Events {
			fmt.Fprintf(&b, "%s %s v=%d..%d id=%d a0=%d a1=%d\n",
				e.Kind, t.NameOf(e.Name), e.VStart, e.VEnd, e.ID, e.Arg0, e.Arg1)
		}
	}
	return []byte(b.String())
}

// EventCount reports the lifetime event total across lanes (including
// events since dropped to the ring bound).
func (t *Tracer) EventCount() uint64 {
	var n uint64
	for _, le := range t.Events() {
		n += le.Dropped + uint64(len(le.Events))
	}
	return n
}

// Kinds reports which event kinds the tracer has recorded (surviving
// events only), sorted by kind value — the trace-coverage check the
// smoke tests assert.
func (t *Tracer) Kinds() []Kind {
	seen := map[Kind]bool{}
	for _, le := range t.Events() {
		for _, e := range le.Events {
			seen[e.Kind] = true
		}
	}
	out := make([]Kind, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
