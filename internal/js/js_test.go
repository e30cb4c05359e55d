package js

import (
	"encoding/base64"
	"errors"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/wasp"
)

func eval(t *testing.T, src string) Value {
	t.Helper()
	e := NewEngine(nil)
	v, err := e.Eval(src)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return v
}

func num(t *testing.T, src string) float64 {
	t.Helper()
	v := eval(t, src)
	f, ok := v.(float64)
	if !ok {
		t.Fatalf("eval %q = %v (%T), want number", src, v, v)
	}
	return f
}

func str(t *testing.T, src string) string {
	t.Helper()
	v := eval(t, src)
	s, ok := v.(string)
	if !ok {
		t.Fatalf("eval %q = %v (%T), want string", src, v, v)
	}
	return s
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2.5},
		{"10 % 3", 1},
		{"-5 + 3", -2},
		{"2 * 3 - 1", 5},
		{"0x10 + 1", 17},
	}
	for _, tc := range cases {
		if got := num(t, tc.src); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestBitwise(t *testing.T) {
	cases := []struct {
		src  string
		want float64
	}{
		{"12 & 10", 8},
		{"12 | 10", 14},
		{"12 ^ 10", 6},
		{"1 << 4", 16},
		{"-8 >> 1", -4},
		{"~0 >>> 28", 15},
		{"~5", -6},
	}
	for _, tc := range cases {
		if got := num(t, tc.src); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestVariablesAndLoops(t *testing.T) {
	got := num(t, `
var sum = 0;
for (var i = 0; i < 10; i++) {
	if (i % 2 == 0) { continue; }
	sum += i;
}
sum;
`)
	if got != 25 {
		t.Fatalf("sum = %v", got)
	}
}

func TestWhileBreak(t *testing.T) {
	got := num(t, `
var i = 0;
while (true) { i++; if (i >= 7) { break; } }
i;
`)
	if got != 7 {
		t.Fatalf("i = %v", got)
	}
}

func TestFunctionsAndClosures(t *testing.T) {
	got := num(t, `
function adder(n) {
	return function(x) { return x + n; };
}
var add5 = adder(5);
add5(37);
`)
	if got != 42 {
		t.Fatalf("closure = %v", got)
	}
}

func TestRecursion(t *testing.T) {
	got := num(t, `
function fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
fib(12);
`)
	if got != 144 {
		t.Fatalf("fib(12) = %v", got)
	}
}

func TestStrings(t *testing.T) {
	if got := str(t, `"foo" + "bar"`); got != "foobar" {
		t.Fatalf("concat = %q", got)
	}
	if got := num(t, `"hello".length`); got != 5 {
		t.Fatalf("length = %v", got)
	}
	if got := str(t, `"hello".charAt(1)`); got != "e" {
		t.Fatalf("charAt = %q", got)
	}
	if got := num(t, `"A".charCodeAt(0)`); got != 65 {
		t.Fatalf("charCodeAt = %v", got)
	}
	if got := str(t, `String.fromCharCode(104, 105)`); got != "hi" {
		t.Fatalf("fromCharCode = %q", got)
	}
	if got := str(t, `"abcdef".substring(2, 4)`); got != "cd" {
		t.Fatalf("substring = %q", got)
	}
	if got := str(t, `"num: " + 42`); got != "num: 42" {
		t.Fatalf("num concat = %q", got)
	}
}

// TestConcatNeverRewritesEarlierResults covers the in-place append
// behind "+": every string a program (or the host) still holds keeps its
// bytes however the last result is extended afterwards.
func TestConcatNeverRewritesEarlierResults(t *testing.T) {
	e := NewEngine(nil)
	strs := func(src string, want ...string) []string {
		t.Helper()
		v, err := e.Eval(src)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		arr, ok := v.(*Array)
		if !ok || len(arr.Elems) != len(want) {
			t.Fatalf("eval %q = %v, want %d strings", src, v, len(want))
		}
		got := make([]string, len(want))
		for i, el := range arr.Elems {
			got[i] = ToString(el)
			if got[i] != want[i] {
				t.Errorf("eval %q: [%d] = %q, want %q", src, i, got[i], want[i])
			}
		}
		return got
	}
	var held [][]string // results the host keeps across later Evals
	var heldWant [][]string

	// One value extended twice, then each extension extended again.
	want := []string{"ax", "axb", "axc", "axbd", "axcd"}
	held = append(held, strs(`var s = "a" + "x"; var t = s + "b"; var u = s + "c";
		var t2 = t + "d"; var u2 = u + "d"; [s, t, u, t2, u2];`, want...))
	heldWant = append(heldWant, want)

	// A result stored in an array and an object, then extended, and each
	// stored copy extended in turn.
	want = []string{"pq", "pq", "pqr", "pqz", "pqy", "pqr!"}
	held = append(held, strs(`var a = []; var p = "p" + "q"; a.push(p); var o = {k: p};
		var r = p + "r"; var r0 = r; var z = a[0] + "z"; var y = o.k + "y";
		r = z + "!"; r = r0 + "!"; [a[0], o.k, r0, z, y, r];`, want...))
	heldWant = append(heldWant, want)

	// An operand with the last result's content in a different string,
	// one with its length but not its content, and a non-string left
	// operand.
	want = []string{"abc", "abc", "abcx", "abcy", "wxyz!", "1abc", "abcx2"}
	held = append(held, strs(`var m = "ab" + "c"; var d = "abc"; var dx = d + "x"; var my = m + "y";
		var k = "wxyz" + "!"; var n1 = 1 + m; var dx2 = dx + 2; [m, d, dx, my, k, n1, dx2];`, want...))
	heldWant = append(heldWant, want)

	// 1,000 appends, by + and +=, every intermediate result kept.
	v, err := e.Eval(`var out = ""; var parts = [];
		for (var i = 0; i < 1000; i++) {
			if (i % 2 == 0) { out = out + "ab"; } else { out += "ab"; }
			parts.push(out);
		}
		parts;`)
	if err != nil {
		t.Fatal(err)
	}
	parts := v.(*Array).Elems
	if len(parts) != 1000 {
		t.Fatalf("%d parts, want 1000", len(parts))
	}
	for i, p := range parts {
		if want := strings.Repeat("ab", i+1); ToString(p) != want {
			t.Fatalf("parts[%d] = %q..., want %d bytes of \"ab\"", i, ToString(p)[:8], len(want))
		}
	}

	for i, got := range held {
		for j := range got {
			if got[j] != heldWant[i][j] {
				t.Errorf("held result %d[%d] became %q, want %q", i, j, got[j], heldWant[i][j])
			}
		}
	}
}

func TestArraysAndObjects(t *testing.T) {
	got := num(t, `
var a = [1, 2, 3];
a.push(4);
a[0] + a[3] + a.length;
`)
	if got != 9 {
		t.Fatalf("array = %v", got)
	}
	got2 := num(t, `
var o = { x: 10, y: 20 };
o.z = o.x + o.y;
o["z"] + 1;
`)
	if got2 != 31 {
		t.Fatalf("object = %v", got2)
	}
}

func TestTernaryAndLogical(t *testing.T) {
	if got := num(t, `1 ? 10 : 20`); got != 10 {
		t.Fatal("ternary")
	}
	if got := num(t, `0 || 5`); got != 5 {
		t.Fatal("|| short circuit value")
	}
	if got := num(t, `3 && 4`); got != 4 {
		t.Fatal("&& value")
	}
	// Short circuit must not evaluate the right side.
	if got := num(t, `var n = 0; function boom() { n = 99; return 1; } false && boom(); n;`); got != 0 {
		t.Fatal("&& evaluated rhs")
	}
}

func TestTypeof(t *testing.T) {
	if got := str(t, `typeof 5`); got != "number" {
		t.Fatal(got)
	}
	if got := str(t, `typeof "x"`); got != "string" {
		t.Fatal(got)
	}
	if got := str(t, `typeof undefined`); got != "undefined" {
		t.Fatal(got)
	}
}

func TestMathBuiltins(t *testing.T) {
	if got := num(t, `Math.floor(3.7)`); got != 3 {
		t.Fatal("floor")
	}
	if got := num(t, `Math.max(2, Math.abs(-9))`); got != 9 {
		t.Fatal("max/abs")
	}
}

func TestErrors(t *testing.T) {
	e := NewEngine(nil)
	for _, src := range []string{
		`undefined_variable_xyz`,
		`var a = [1]; a.frobnicate()`,
		`5(`,
		`function f( {`,
		`"unterminated`,
		`5 = 3`,
	} {
		if _, err := e.Eval(src); err == nil {
			t.Errorf("Eval(%q): expected error", src)
		}
	}
}

// TestDeepNestingIsAnError: a source nested past maxDepth is a *Error
// from parse — brackets caught while lexing; prefix-operator, `new`,
// assignment, ternary, statement and parenthesis chains while parsing —
// never a goroutine stack overflow. Sources a hundred levels deep still
// parse.
func TestDeepNestingIsAnError(t *testing.T) {
	deep := func(open, mid, close string, n int) string {
		return strings.Repeat(open, n) + mid + strings.Repeat(close, n)
	}
	for _, c := range []struct{ name, src string }{
		{"3M parens", deep("(", "1", ")", 3_000_000)},
		{"unary", deep("!", "1", "", maxDepth+1)},
		{"new", deep("new ", "f", "", maxDepth+1)},
		{"assign", deep("a = ", "1", "", maxDepth+1)},
		{"ternary", deep("1 ? 1 : ", "1", "", maxDepth+1)},
		{"if", deep("if (1) ", ";", "", maxDepth+1)},
		{"parens below the lexer's bound", deep("(", "1", ")", maxDepth/2)},
	} {
		prog, _, err := parse(c.src)
		var jerr *Error
		if !errors.As(err, &jerr) || !strings.Contains(jerr.Msg, "nesting") || prog != nil {
			t.Errorf("%s: parse = %d statements, %v; want a nesting *Error", c.name, len(prog), err)
		}
	}
	for _, src := range []string{
		deep("(", "1", ")", 100),
		deep("if (1) { ", "x = -(-(1));", " }", 100),
		deep("function f() { return ", "1", "; }", 100),
	} {
		if _, _, err := parse(src); err != nil {
			t.Errorf("%.40s...: %v", src, err)
		}
	}
}

func TestRunawayRecursionCaught(t *testing.T) {
	e := NewEngine(nil)
	_, err := e.Eval(`function f() { return f(); } f();`)
	if err == nil || !strings.Contains(err.Error(), "stack") {
		t.Fatalf("err = %v, want stack exhaustion", err)
	}
}

func TestBase64MatchesStdlib(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 57, 100, 255} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 13)
		}
		e := NewEngine(nil)
		e.Bind("input", string(data))
		v, err := e.Eval(Base64JS)
		if err != nil {
			t.Fatal(err)
		}
		want := base64.StdEncoding.EncodeToString(data)
		if ToString(v) != want {
			t.Fatalf("n=%d: js b64 = %q, want %q", n, ToString(v), want)
		}
	}
}

func TestChargesAccumulate(t *testing.T) {
	var total uint64
	e := NewEngine(func(c uint64) { total += c })
	if total < EngineInitCost {
		t.Fatal("init not charged")
	}
	before := total
	e.InstallBindings(clientBindings())
	if total-before < BindingsCost {
		t.Fatal("bindings not charged")
	}
	before = total
	if _, err := e.Eval(`1 + 1`); err != nil {
		t.Fatal(err)
	}
	if total == before {
		t.Fatal("eval not charged")
	}
	before = total
	e.Close()
	if total-before < TeardownCost {
		t.Fatal("teardown not charged")
	}
	e.Close() // idempotent
	if total-before != TeardownCost {
		t.Fatal("double teardown charged twice")
	}
}

func TestEngineClosedRejectsEval(t *testing.T) {
	e := NewEngine(nil)
	e.Close()
	if _, err := e.Eval("1"); err == nil {
		t.Fatal("eval after close accepted")
	}
}

func TestVirtineEncodeMatchesNative(t *testing.T) {
	w := wasp.New()
	data := []byte("the quick brown fox jumps over the lazy dog")
	v := NewVirtineJS(w, true, true)
	got, err := v.Encode(data, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	want := base64.StdEncoding.EncodeToString(data)
	if got != want {
		t.Fatalf("virtine b64 = %q, want %q", got, want)
	}
}

func TestFig14Shape(t *testing.T) {
	w := wasp.New()
	pts, err := RunFig14(w, 512, 3)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) Fig14Point {
		for _, p := range pts {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("missing point %s", name)
		return Fig14Point{}
	}
	native := get("native")
	virt := get("virtine")
	snapNT := get("virtine+snapshot+NT")

	// §6.5 structural claims:
	// 1. Native baseline ≈ 419 µs (we accept 300-550).
	if native.Micros < 300 || native.Micros > 550 {
		t.Fatalf("native baseline = %.0f µs, want ≈419", native.Micros)
	}
	// 2. The plain virtine is slower than native by roughly +125 µs.
	extra := virt.Micros - native.Micros
	if extra < 40 || extra > 300 {
		t.Fatalf("virtine overhead = %.0f µs, want ≈125", extra)
	}
	// 3. Snapshot+NT drops below native — "the virtine can almost
	//    entirely avoid the cost of allocating and freeing the Duktape
	//    context" — landing near 137 µs.
	if snapNT.Slowdown >= 1 {
		t.Fatalf("snapshot+NT slowdown = %.2f, want < 1", snapNT.Slowdown)
	}
	if snapNT.Micros < 80 || snapNT.Micros > 260 {
		t.Fatalf("snapshot+NT = %.0f µs, want ≈137", snapNT.Micros)
	}
	// 4. Optimization ordering: each optimization helps.
	if !(get("virtine+snapshot").Cycles < virt.Cycles &&
		get("virtine NT").Cycles < virt.Cycles &&
		snapNT.Cycles < get("virtine+snapshot").Cycles &&
		snapNT.Cycles < get("virtine NT").Cycles) {
		t.Fatalf("optimization ordering violated: %+v", pts)
	}
}

// newEncodeBench returns guest_compute's JS request: a snapshotted
// virtine (guest_compute's tears its engine down; the teardown is a
// charge, not host work) warmed past its snapshot, and a 256-byte input.
func newEncodeBench(tb testing.TB) (*VirtineJS, []byte) {
	tb.Helper()
	v := NewVirtineJS(wasp.New(), true, false)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := v.Encode(data, cycles.NewClock()); err != nil {
		tb.Fatal(err)
	}
	return v, data
}

// BenchmarkVirtineJSEncode times the host cost of guest_compute's JS
// request: restore, get_data, the base64 program, return_data.
func BenchmarkVirtineJSEncode(b *testing.B) {
	v, data := newEncodeBench(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := v.Encode(data, cycles.NewClock()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestVirtineJSEncodeAllocs gates BenchmarkVirtineJSEncode's
// allocations (650 per encode). The bound, 790, is half of the 1,583 an
// encode made while every concatenation copied its left operand and
// every method call put its arguments on the heap.
func TestVirtineJSEncodeAllocs(t *testing.T) {
	v, data := newEncodeBench(t)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := v.Encode(data, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per encode", allocs)
	if allocs > 790 {
		t.Fatalf("%.0f allocations per encode, want at most 790", allocs)
	}
}
