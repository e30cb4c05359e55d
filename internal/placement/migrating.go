package placement

import (
	"sync"

	"repro/internal/lru"
)

// DefaultHysteresis is the number of consecutive Place calls that must
// prefer a different backend before Migrating commits the flip — one
// outlier run perturbing the EWMA must not thrash a tenant's warm state
// across backends.
const DefaultHysteresis = 3

// maxImages bounds Migrating's per-image flip state under tenant churn,
// the least recently placed image evicted first (matches the
// scheduler's own per-image telemetry cap).
const maxImages = 4096

// Migrating wraps any inner Placer with placement-flip detection and a
// migration side effect: each image is pinned to one committed backend
// at a time (so its warm snapshot/COW state has a single home), and when
// the inner policy's preference moves away from the committed backend
// for Hysteresis consecutive decisions, the pin flips and OnMigrate
// fires so the caller can move the image's snapshot state along
// (wasp.MigrateSnapshot). The flip ordering contract:
//
//  1. the flip is decided (streak reaches Hysteresis),
//  2. OnMigrate(image, from, to) runs — synchronously, before any
//     weight under the new pin is returned,
//  3. the pin moves; the weights returned by THIS call already pin the
//     new backend.
//
// So by the time any ticket can be steered to the new backend, the
// migration side effect has already been attempted. A failed migration
// (OnMigrate is fire-and-forget; errors stay with the callback) is
// safe: the target backend cold-boots the image and re-captures.
//
// Determinism: Migrating is stateful but sequential — given the same
// sequence of Place calls it makes the same decisions, so virtual-mode
// schedules stay bit-identical across runs. It must not be shared
// between two runs that expect independent histories. OnMigrate must
// not call back into the placer.
type Migrating struct {
	// Inner supplies the raw preference each decision; nil means
	// all-eligible equal weight (flips then only happen on eligibility
	// changes).
	Inner Placer
	// Hysteresis is how many consecutive decisions must prefer a
	// non-committed backend before the pin flips: 0 means
	// DefaultHysteresis, negative means never flip (a sticky baseline —
	// first preference wins forever).
	Hysteresis int
	// OnMigrate, when non-nil, runs synchronously on each committed flip
	// with the image name and the platform names the pin moved between.
	OnMigrate func(image, from, to string)

	mu         sync.Mutex
	imgs       lru.Cache[string, *migState]
	migrations uint64
}

// migState is one image's flip-detection state.
type migState struct {
	committed string // platform name the image is pinned to
	candidate string // platform currently outscoring the committed one
	streak    int    // consecutive decisions preferring candidate
}

// NewMigrating wraps inner with flip detection at the given hysteresis
// (see the Hysteresis field for the 0 and negative conventions).
func NewMigrating(inner Placer, hysteresis int) *Migrating {
	return &Migrating{Inner: inner, Hysteresis: hysteresis}
}

// Migrations reports how many committed flips have fired so far.
func (m *Migrating) Migrations() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrations
}

// Committed reports the backend the image is currently pinned to ("" if
// the image has never been placed or its state was evicted).
func (m *Migrating) Committed(image string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.imgs.Peek(image); ok {
		return st.committed
	}
	return ""
}

// Place implements Placer: it asks the inner policy for weights, keeps
// the image pinned to its committed backend, and flips the pin (firing
// OnMigrate) when the inner preference durably moves.
func (m *Migrating) Place(img ImageInfo, backends []BackendInfo) []float64 {
	inner := m.innerWeights(img, backends)
	// The inner policy's current preference: the highest positive weight,
	// ties to the lowest index (stable under the scheduler's fixed
	// backend order).
	pref := -1
	for i, w := range inner {
		if w > 0 && (pref < 0 || w > inner[pref]) {
			pref = i
		}
	}
	if pref < 0 {
		// Nothing eligible — pass the refusal through untouched.
		return inner
	}

	m.mu.Lock()
	st := m.touch(img.Name)
	committed := m.committedIndex(st, backends, inner)
	if committed < 0 {
		// First sight, evicted state, or the committed backend left the
		// fleet / became ineligible: adopt the current preference with no
		// side effect — there is no warm state under placement control to
		// move yet (or nowhere to move it from).
		st.committed = backends[pref].Platform.Name()
		st.candidate, st.streak = "", 0
		committed = pref
	} else if pref != committed {
		prefName := backends[pref].Platform.Name()
		if st.candidate == prefName {
			st.streak++
		} else {
			st.candidate, st.streak = prefName, 1
		}
		hyst := m.Hysteresis
		if hyst == 0 {
			hyst = DefaultHysteresis
		}
		if hyst > 0 && st.streak >= hyst {
			from := st.committed
			m.migrations++
			if m.OnMigrate != nil {
				m.OnMigrate(img.Name, from, prefName)
			}
			st.committed = prefName
			st.candidate, st.streak = "", 0
			committed = pref
		}
	} else {
		st.candidate, st.streak = "", 0
	}
	m.mu.Unlock()

	out := make([]float64, len(backends))
	out[committed] = inner[committed]
	return out
}

// innerWeights asks the inner policy (all-eligible equal weight when
// nil) and pads a short return, mirroring the scheduler's own treatment
// of short Place results.
func (m *Migrating) innerWeights(img ImageInfo, backends []BackendInfo) []float64 {
	if m.Inner == nil {
		out := make([]float64, len(backends))
		for i := range out {
			out[i] = 1
		}
		return out
	}
	w := m.Inner.Place(img, backends)
	if len(w) >= len(backends) {
		return w[:len(backends)]
	}
	out := make([]float64, len(backends))
	n := copy(out, w)
	for i := n; i < len(out); i++ {
		out[i] = 1
	}
	return out
}

// committedIndex resolves the stored committed platform name to an index
// in this call's backend slice, requiring it to still be eligible; -1
// when unset, absent, or ineligible. Caller holds m.mu.
func (m *Migrating) committedIndex(st *migState, backends []BackendInfo, inner []float64) int {
	if st.committed == "" {
		return -1
	}
	for i, b := range backends {
		if b.Platform.Name() == st.committed {
			if inner[i] > 0 {
				return i
			}
			return -1
		}
	}
	return -1
}

// touch returns the image's state, made the most recently placed, and
// creates it (evicting the coldest image past maxImages) as needed.
// Caller holds m.mu.
func (m *Migrating) touch(name string) *migState {
	if st, ok := m.imgs.Get(name); ok {
		return st
	}
	if m.imgs.Cap == 0 {
		m.imgs.Cap = maxImages
	}
	st := &migState{}
	m.imgs.Put(name, st)
	return st
}
