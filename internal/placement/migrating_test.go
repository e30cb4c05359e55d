package placement

import (
	"fmt"
	"testing"

	"repro/internal/vmm"
)

// scriptedPlacer returns a fixed preference index until told otherwise —
// a stand-in for a cost model whose EWMAs drift.
type scriptedPlacer struct{ pref int }

func (s *scriptedPlacer) Place(img ImageInfo, backends []BackendInfo) []float64 {
	out := make([]float64, len(backends))
	for i := range out {
		out[i] = 1
	}
	out[s.pref] = 2
	return out
}

func pinnedTo(t *testing.T, w []float64, idx int) {
	t.Helper()
	for i, v := range w {
		if i == idx && v <= 0 {
			t.Fatalf("weights %v: backend %d should be pinned eligible", w, i)
		}
		if i != idx && v > 0 {
			t.Fatalf("weights %v: backend %d should be ineligible (pin on %d)", w, i, idx)
		}
	}
}

func TestMigratingCommitsFirstPreferenceWithoutSideEffect(t *testing.T) {
	inner := &scriptedPlacer{pref: 1}
	fired := 0
	m := NewMigrating(inner, 3)
	m.OnMigrate = func(image, from, to string) { fired++ }
	w := m.Place(ImageInfo{Name: "a"}, fleet())
	pinnedTo(t, w, 1)
	if fired != 0 || m.Migrations() != 0 {
		t.Fatalf("first sight must adopt the preference silently (fired=%d)", fired)
	}
	if got := m.Committed("a"); got != "hyper-v" {
		t.Fatalf("Committed = %q, want hyper-v", got)
	}
}

func TestMigratingFlipRequiresHysteresisStreak(t *testing.T) {
	inner := &scriptedPlacer{pref: 0}
	var flips []string
	m := NewMigrating(inner, 3)
	m.OnMigrate = func(image, from, to string) {
		flips = append(flips, fmt.Sprintf("%s:%s->%s", image, from, to))
	}
	if m.Place(ImageInfo{Name: "a"}, fleet()); m.Committed("a") != "kvm" {
		t.Fatal("setup: expected initial commit to kvm")
	}

	// Preference moves to hyper-v: two decisions must NOT flip...
	inner.pref = 1
	pinnedTo(t, m.Place(ImageInfo{Name: "a"}, fleet()), 0)
	pinnedTo(t, m.Place(ImageInfo{Name: "a"}, fleet()), 0)
	if len(flips) != 0 {
		t.Fatalf("flipped before hysteresis streak: %v", flips)
	}
	// ...the third does, and the weights of that very call pin the new home.
	pinnedTo(t, m.Place(ImageInfo{Name: "a"}, fleet()), 1)
	if len(flips) != 1 || flips[0] != "a:kvm->hyper-v" {
		t.Fatalf("flips = %v, want exactly a:kvm->hyper-v", flips)
	}
	if m.Migrations() != 1 || m.Committed("a") != "hyper-v" {
		t.Fatalf("post-flip state: migrations=%d committed=%q", m.Migrations(), m.Committed("a"))
	}
}

func TestMigratingStreakResetsWhenPreferenceReturns(t *testing.T) {
	inner := &scriptedPlacer{pref: 0}
	m := NewMigrating(inner, 2)
	m.OnMigrate = func(image, from, to string) { t.Errorf("unexpected flip %s->%s", from, to) }
	m.Place(ImageInfo{Name: "a"}, fleet()) // commit kvm
	inner.pref = 1
	m.Place(ImageInfo{Name: "a"}, fleet()) // streak 1 of 2
	inner.pref = 0
	m.Place(ImageInfo{Name: "a"}, fleet()) // back home — streak resets
	inner.pref = 1
	pinnedTo(t, m.Place(ImageInfo{Name: "a"}, fleet()), 0) // streak 1 again, no flip
	if m.Migrations() != 0 {
		t.Fatal("an interrupted streak must not accumulate toward a flip")
	}
}

func TestMigratingNegativeHysteresisIsSticky(t *testing.T) {
	inner := &scriptedPlacer{pref: 0}
	m := NewMigrating(inner, -1)
	m.OnMigrate = func(image, from, to string) { t.Errorf("sticky placer flipped %s->%s", from, to) }
	m.Place(ImageInfo{Name: "a"}, fleet())
	inner.pref = 1
	for i := 0; i < 50; i++ {
		pinnedTo(t, m.Place(ImageInfo{Name: "a"}, fleet()), 0)
	}
	if m.Migrations() != 0 {
		t.Fatal("negative hysteresis must never flip")
	}
}

func TestMigratingIneligiblePassThrough(t *testing.T) {
	m := NewMigrating(Static{Pins: map[string]string{"a": "xen"}}, 3)
	for _, w := range m.Place(ImageInfo{Name: "a"}, fleet()) {
		if w > 0 {
			t.Fatal("an all-ineligible inner result must pass through untouched")
		}
	}
	if m.Committed("a") != "" {
		t.Fatal("refused placements must not commit a home")
	}
}

func TestMigratingReAdoptsWhenCommittedBackendTurnsIneligible(t *testing.T) {
	pins := map[string]string{"a": "kvm"}
	m := NewMigrating(Static{Pins: pins}, 3)
	fired := 0
	m.OnMigrate = func(image, from, to string) { fired++ }
	m.Place(ImageInfo{Name: "a"}, fleet()) // commit kvm
	pins["a"] = "hyper-v"                  // operator re-pins; kvm now weight 0
	w := m.Place(ImageInfo{Name: "a"}, fleet())
	pinnedTo(t, w, 1)
	if fired != 0 {
		t.Fatal("re-adopting after the committed backend became ineligible is not a migration: there is no eligible source to export from")
	}
	if m.Committed("a") != "hyper-v" {
		t.Fatalf("Committed = %q, want hyper-v", m.Committed("a"))
	}
}

func TestMigratingStateIsLRUBounded(t *testing.T) {
	m := NewMigrating(nil, 3)
	m.imgs.Cap = 8
	for i := 0; i < 100; i++ {
		m.Place(ImageInfo{Name: fmt.Sprintf("img-%d", i)}, fleet())
	}
	m.mu.Lock()
	n := m.imgs.Len()
	m.mu.Unlock()
	if n > 8 {
		t.Fatalf("tracked %d images, cap is 8", n)
	}
	if m.Committed("img-99") == "" {
		t.Fatal("the hottest image must survive eviction")
	}
	if m.Committed("img-0") != "" {
		t.Fatal("the coldest image must have been evicted")
	}
	fresh := NewMigrating(nil, 3)
	fresh.Place(ImageInfo{Name: "a"}, fleet())
	if fresh.imgs.Cap != maxImages {
		t.Fatalf("a fresh placer caps its state at %d images, want %d", fresh.imgs.Cap, maxImages)
	}
}

// syntheticPlatform lets the overflow table test push the cost model to
// profiles far beyond the calibrated Fig 5 backends.
type syntheticPlatform struct {
	name                string
	create, entry, exit uint64
}

func (p syntheticPlatform) Name() string       { return p.name }
func (p syntheticPlatform) CreateCost() uint64 { return p.create }
func (p syntheticPlatform) EntryCost() uint64  { return p.entry }
func (p syntheticPlatform) ExitCost() uint64   { return p.exit }

// TestCostModelExtremeProfilesKeepOrdering is the regression table for
// the ov² overflow: with uint64 arithmetic, ov beyond ~2³² made ov*ov
// wrap, so an absurdly expensive backend could score a tiny bias and
// beat a cheap one. The bias is float64 now; ordering must hold at any
// magnitude.
func TestCostModelExtremeProfilesKeepOrdering(t *testing.T) {
	cases := []struct {
		name        string
		cheap, dear syntheticPlatform
		img         ImageInfo
	}{
		{
			name:  "create-at-2^36-wraps-uint64-square",
			cheap: syntheticPlatform{"cheap", 1 << 20, 100, 100},
			dear:  syntheticPlatform{"dear", 1 << 36, 100, 100},
			img:   ImageInfo{Name: "short"},
		},
		{
			name:  "entry-cost-dominated-chatty-image",
			cheap: syntheticPlatform{"cheap", 1 << 20, 1 << 10, 1 << 10},
			dear:  syntheticPlatform{"dear", 1 << 20, 1 << 34, 1 << 34},
			img:   ImageInfo{Name: "chatty", EntriesEWMA: 1 << 12},
		},
		{
			name:  "long-lived-image-extreme-create",
			cheap: syntheticPlatform{"cheap", 1 << 24, 500, 500},
			dear:  syntheticPlatform{"dear", 1 << 40, 500, 500},
			img:   ImageInfo{Name: "long", SvcEWMA: 1 << 30},
		},
		{
			name:  "max-profile-does-not-poison-weights",
			cheap: syntheticPlatform{"cheap", 1, 1, 1},
			dear:  syntheticPlatform{"dear", 1 << 62, 1 << 62, 1 << 62},
			img:   ImageInfo{Name: "any", SvcEWMA: 1 << 40, EntriesEWMA: 1 << 20},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := []BackendInfo{
				{Platform: tc.cheap, Workers: 1},
				{Platform: tc.dear, Workers: 1},
			}
			w := CostModel{}.Place(tc.img, b)
			if w[0] <= 0 || w[1] <= 0 {
				t.Fatalf("weights %v: every backend must stay eligible", w)
			}
			if w[0] <= w[1] {
				t.Fatalf("weights %v: the cheaper profile must keep the higher weight", w)
			}
		})
	}
}

// TestCostModelEntriesPickTheWinner pins the non-dominated trade-off the
// Paravirt backend exists for: quiet images prefer KVM's cheap create,
// chatty images prefer paravirt's cheap entry/exit — with the crossover
// around 30 entries per run at the calibrated costs.
func TestCostModelEntriesPickTheWinner(t *testing.T) {
	b := []BackendInfo{
		{Platform: vmm.KVM{}, Workers: 1},
		{Platform: vmm.Paravirt{}, Workers: 1},
	}
	quiet := CostModel{}.Place(ImageInfo{Name: "quiet", EntriesEWMA: 1}, b)
	if quiet[0] <= quiet[1] {
		t.Fatalf("quiet image weights %v: kvm must win", quiet)
	}
	chatty := CostModel{}.Place(ImageInfo{Name: "chatty", EntriesEWMA: 200}, b)
	if chatty[1] <= chatty[0] {
		t.Fatalf("chatty image weights %v: paravirt must win", chatty)
	}
}
