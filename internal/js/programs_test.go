package js

import (
	"fmt"
	"testing"
)

// Whole-program tests exercising the engine the way §6.5 workloads do.

func TestProgramQuicksort(t *testing.T) {
	got := str(t, `
function qsort(a) {
	if (a.length <= 1) { return a; }
	var pivot = a[0];
	var left = [];
	var right = [];
	for (var i = 1; i < a.length; i++) {
		if (a[i] < pivot) { left.push(a[i]); } else { right.push(a[i]); }
	}
	var out = qsort(left);
	out.push(pivot);
	var r = qsort(right);
	for (var j = 0; j < r.length; j++) { out.push(r[j]); }
	return out;
}
qsort([5, 3, 8, 1, 9, 2, 7]).join(",");
`)
	if got != "1,2,3,5,7,8,9" {
		t.Fatalf("qsort = %q", got)
	}
}

func TestProgramObjectAggregation(t *testing.T) {
	got := num(t, `
var orders = [
	{ item: "widget", qty: 3, price: 5 },
	{ item: "gadget", qty: 1, price: 20 },
	{ item: "widget", qty: 2, price: 5 }
];
var total = 0;
var byItem = {};
for (var i = 0; i < orders.length; i++) {
	var o = orders[i];
	total += o.qty * o.price;
	if (byItem[o.item]) {
		byItem[o.item] = byItem[o.item] + o.qty;
	} else {
		byItem[o.item] = o.qty;
	}
}
total + byItem["widget"] * 100 + byItem.gadget * 1000;
`)
	// total = 15 + 20 + 10 = 45; widget 5 -> 500; gadget 1 -> 1000
	if got != 45+500+1000 {
		t.Fatalf("aggregation = %v", got)
	}
}

func TestProgramClosureCounter(t *testing.T) {
	got := num(t, `
function makeCounter() {
	var n = 0;
	return function() { n = n + 1; return n; };
}
var c1 = makeCounter();
var c2 = makeCounter();
c1(); c1(); c1();
c2();
c1() * 10 + c2();
`)
	// c1 called 4 times -> 4; c2 called twice -> 2.
	if got != 42 {
		t.Fatalf("closures = %v", got)
	}
}

func TestProgramStringProcessing(t *testing.T) {
	got := str(t, `
var words = "the quick brown fox".split(" ");
var out = "";
for (var i = 0; i < words.length; i++) {
	var w = words[i];
	out = out + w.charAt(0).toUpperCase() + w.substring(1);
	if (i < words.length - 1) { out = out + " "; }
}
out;
`)
	if got != "The Quick Brown Fox" {
		t.Fatalf("title case = %q", got)
	}
}

func TestProgramFizzBuzzHash(t *testing.T) {
	got := num(t, `
var h = 0;
for (var i = 1; i <= 30; i++) {
	var s;
	if (i % 15 == 0) { s = "fizzbuzz"; }
	else if (i % 3 == 0) { s = "fizz"; }
	else if (i % 5 == 0) { s = "buzz"; }
	else { s = "" + i; }
	for (var j = 0; j < s.length; j++) {
		h = (h * 31 + s.charCodeAt(j)) % 1000000007;
	}
}
h;
`)
	// Compute the same in Go.
	var h int64
	for i := 1; i <= 30; i++ {
		var s string
		switch {
		case i%15 == 0:
			s = "fizzbuzz"
		case i%3 == 0:
			s = "fizz"
		case i%5 == 0:
			s = "buzz"
		default:
			s = ToString(float64(i))
		}
		for _, c := range []byte(s) {
			h = (h*31 + int64(c)) % 1000000007
		}
	}
	if int64(got) != h {
		t.Fatalf("fizzbuzz hash = %v, want %d", got, h)
	}
}

func TestProgramHigherOrderFunctions(t *testing.T) {
	got := num(t, `
function map(a, f) {
	var out = [];
	for (var i = 0; i < a.length; i++) { out.push(f(a[i])); }
	return out;
}
function reduce(a, f, init) {
	var acc = init;
	for (var i = 0; i < a.length; i++) { acc = f(acc, a[i]); }
	return acc;
}
var xs = [1, 2, 3, 4, 5];
var squares = map(xs, function(x) { return x * x; });
reduce(squares, function(a, b) { return a + b; }, 0);
`)
	if got != 55 {
		t.Fatalf("sum of squares = %v", got)
	}
}

func TestProgramTernaryChain(t *testing.T) {
	got := str(t, `
function grade(score) {
	return score >= 90 ? "A" : score >= 80 ? "B" : score >= 70 ? "C" : "F";
}
grade(95) + grade(85) + grade(72) + grade(40);
`)
	if got != "ABCF" {
		t.Fatalf("grades = %q", got)
	}
}

func TestNativeBindingsCallable(t *testing.T) {
	e := NewEngine(nil)
	e.InstallBindings(map[string]Builtin{
		"double": func(args []Value) (Value, error) {
			return argNum(args, 0) * 2, nil
		},
	})
	v, err := e.Eval(`double(21)`)
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 42 {
		t.Fatalf("binding = %v", v)
	}
}

// CallFunction invokes a previously defined global function by name.
func (e *Engine) CallFunction(name string, args ...Value) (Value, error) {
	fn, ok := e.global.get(name)
	if !ok {
		return nil, fmt.Errorf("js: no function %q", name)
	}
	defer e.flushCharges()
	return e.apply(fn, args, 0)
}

func TestCallFunctionAPI(t *testing.T) {
	e := NewEngine(nil)
	if _, err := e.Eval(`function add(a, b) { return a + b; }`); err != nil {
		t.Fatal(err)
	}
	v, err := e.CallFunction("add", float64(40), float64(2))
	if err != nil {
		t.Fatal(err)
	}
	if v.(float64) != 42 {
		t.Fatalf("CallFunction = %v", v)
	}
	if _, err := e.CallFunction("nope"); err == nil {
		t.Fatal("missing function accepted")
	}
}

func TestToStringFormats(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{nil, "undefined"},
		{true, "true"},
		{float64(42), "42"},
		{float64(-17), "-17"},
		{float64(2.5), "2.5"},
		{"s", "s"},
		{&Array{Elems: []Value{float64(1), float64(2)}}, "1,2"},
		{&Object{}, "[object Object]"},
	}
	for _, tc := range cases {
		if got := ToString(tc.v); got != tc.want {
			t.Errorf("ToString(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
