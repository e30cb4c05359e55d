// Command surface holds one case for each rule of the production-surface
// scan; TestSurfaceScanRules requires exactly the findings named here.
package main

import (
	"reflect"
	"sync/atomic"
)

// pair is built only positionally, so second is never read: a finding.
type pair struct{ first, second int }

// record's note is assigned and keyed in a literal but never read: a
// finding. touch has no caller: a finding.
type record struct {
	id   int
	note string
}

func (r *record) touch() { r.id++ }

// hits is only bumped: a finding. The result of reads' Add is used, so
// reads is read.
type counters struct{ hits, reads atomic.Uint64 }

// The fields of a map key, a comparable type argument, an == operand
// and a DeepEqual operand, nested struct included, are read whole.
type mapKey struct{ a, b int }

type eqVal struct{ a, b int }

type argKey struct{ a, b int }

type deepVal struct {
	a     int
	inner inner
}

type inner struct{ x int }

type cache[K comparable] struct{ m map[K]int }

func (c cache[K]) get(k K) int { return c.m[k] }

// kindB is named by nothing: a finding. kindNone is allowlisted, and
// kindA is used, so the allowlist entry for it is stale.
type kind int

const (
	kindNone kind = iota
	kindA
	kindB
)

// square's area is called only through shape.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

func main() {
	p := pair{1, 2}
	r := record{id: p.first, note: "x"}
	r.note = "y"
	seen := map[mapKey]bool{{1, 2}: true}
	var c cache[argKey]
	same := reflect.DeepEqual(deepVal{1, inner{2}}, deepVal{})
	var s shape = square{3}
	var n counters
	n.hits.Add(1)
	println(n.reads.Add(1))
	println(r.id, seen[mapKey{}], c.get(argKey{}), eqVal{1, 2} == eqVal{}, same, s.area(), kindA)
}
