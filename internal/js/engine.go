package js

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Engine lifecycle costs, calibrated so the Fig 14 native baseline —
// allocate a context, populate native bindings, evaluate the base64
// workload, tear down — lands at the paper's 419 µs (≈1.13 M cycles at
// 2.69 GHz), and the fully optimized virtine (snapshot + no-teardown,
// §6.5) at ≈137 µs.
const (
	// EngineInitCost: heap arena setup, built-in object graph, string
	// intern table — Duktape's duk_create_heap.
	EngineInitCost = 672_000
	// BindingsCost: registering the client's native functions.
	BindingsCost = 81_000
	// TeardownCost: walking and freeing the heap — duk_destroy_heap.
	// The virtine NT variants skip this by discarding the VM instead.
	TeardownCost = 242_000
	// NodeCost is charged per AST-node evaluation.
	NodeCost = 8
	// ParseTokenCost is charged per token during parsing.
	ParseTokenCost = 40
	// AllocPerByte approximates allocator work per byte allocated.
	AllocPerByte = 1
)

// Engine is one JavaScript context (a Duktape heap).
type Engine struct {
	global *scope
	charge func(uint64)
	depth  int
	closed bool

	// pending batches virtual-cycle charges (node ticks, allocator
	// work) and flushes them to the charge hook at public API
	// boundaries. The sum reaching the clock is identical to per-node
	// charging — nothing observes the clock mid-evaluation — but the
	// hook is invoked once per Eval instead of once per AST node.
	pending uint64

	// cat holds the last concatenation result. A "+" whose left operand
	// is that string appends to it in place: the bytes past its end
	// belong to no string yet, so no earlier result is rewritten.
	cat strings.Builder
}

const maxCallDepth = 2000

// NewEngine allocates a fresh context, charging EngineInitCost. The
// charge hook may be nil (uninstrumented use).
func NewEngine(charge func(uint64)) *Engine {
	e := &Engine{global: newScope(nil), charge: charge}
	e.chargeCost(EngineInitCost)
	e.installCore()
	e.flushCharges()
	return e
}

func (e *Engine) chargeCost(c uint64) {
	if e.charge != nil {
		e.pending += c
	}
}

// flushCharges pushes batched costs to the charge hook. Every public
// method that charges ends with one.
func (e *Engine) flushCharges() {
	if e.pending != 0 && e.charge != nil {
		e.charge(e.pending)
		e.pending = 0
	}
}

func (e *Engine) tick() { e.chargeCost(NodeCost) }

func (e *Engine) alloc(bytes int) {
	if bytes > 0 {
		e.chargeCost(uint64(bytes) * AllocPerByte)
	}
}

// installCore sets up the minimal built-in object graph (part of engine
// init, not client bindings).
func (e *Engine) installCore() {
	mathObj := &Object{Props: map[string]Value{
		"floor": Builtin(func(args []Value) (Value, error) {
			return numVal(math.Floor(argNum(args, 0))), nil
		}),
		"ceil": Builtin(func(args []Value) (Value, error) {
			return numVal(math.Ceil(argNum(args, 0))), nil
		}),
		"abs": Builtin(func(args []Value) (Value, error) {
			return numVal(math.Abs(argNum(args, 0))), nil
		}),
		"min": Builtin(func(args []Value) (Value, error) {
			return numVal(math.Min(argNum(args, 0), argNum(args, 1))), nil
		}),
		"max": Builtin(func(args []Value) (Value, error) {
			return numVal(math.Max(argNum(args, 0), argNum(args, 1))), nil
		}),
	}}
	strObj := &Object{Props: map[string]Value{
		"fromCharCode": Builtin(func(args []Value) (Value, error) {
			b := make([]byte, len(args))
			for i, a := range args {
				b[i] = byte(int(toNum(a)))
			}
			return string(b), nil
		}),
	}}
	e.global.define("Math", mathObj)
	e.global.define("String", strObj)
}

// InstallBindings registers client-provided native functions, charging
// the §6.5 bindings cost once.
func (e *Engine) InstallBindings(bindings map[string]Builtin) {
	e.chargeCost(BindingsCost)
	for name, fn := range bindings {
		e.global.define(name, fn)
	}
	e.flushCharges()
}

// Bind registers one global value without the bulk-bindings charge.
func (e *Engine) Bind(name string, v Value) { e.global.define(name, v) }

// progCache holds parsed programs keyed by source text — the JS-level
// analogue of the CPU's predecoded instruction cache. Parsing is pure and
// the AST is never mutated by evaluation, so a program is decoded once
// per process instead of once per Eval; the per-token parse cost is still
// charged to every run's clock (virtual cycles model the guest engine,
// which really does re-parse). The cache is bounded; at capacity an
// arbitrary entry is evicted for the newcomer, so long-lived processes
// with many distinct sources keep a rotating working set instead of
// locking in the first programs forever.
var (
	progCache     sync.Map // source string → *cachedProg
	progCacheSize atomic.Int32
)

const progCacheMax = 64

type cachedProg struct {
	prog  []node
	ntoks int
}

func parseCached(src string) ([]node, int, error) {
	if c, ok := progCache.Load(src); ok {
		cp := c.(*cachedProg)
		return cp.prog, cp.ntoks, nil
	}
	prog, ntoks, err := parse(src)
	if err != nil {
		return nil, 0, err
	}
	if progCacheSize.Load() >= progCacheMax {
		progCache.Range(func(k, _ any) bool {
			if _, ok := progCache.LoadAndDelete(k); ok {
				progCacheSize.Add(-1)
			}
			return false
		})
	}
	if _, loaded := progCache.LoadOrStore(src, &cachedProg{prog: prog, ntoks: ntoks}); !loaded {
		progCacheSize.Add(1)
	}
	return prog, ntoks, nil
}

// Eval parses and evaluates src in the engine's global scope, returning
// the value of the last statement.
func (e *Engine) Eval(src string) (Value, error) {
	if e.closed {
		return nil, fmt.Errorf("js: engine used after Close")
	}
	prog, ntoks, err := parseCached(src)
	if err != nil {
		return nil, err
	}
	e.chargeCost(uint64(ntoks) * ParseTokenCost)
	defer e.flushCharges()
	v, err := e.evalProgram(prog, e.global)
	if err != nil {
		if _, ok := err.(returnSignal); ok {
			return nil, fmt.Errorf("js: return outside function")
		}
		return nil, err
	}
	return v, nil
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

// Close tears the context down, charging TeardownCost. The no-teardown
// virtine optimization (§6.5) simply never calls Close: the context is
// discarded with the VM reset instead.
func (e *Engine) Close() {
	if !e.closed {
		e.chargeCost(TeardownCost)
		e.closed = true
		e.flushCharges()
	}
}

// Closed reports whether Close ran.
func (e *Engine) Closed() bool { return e.closed }

// Base64JS is the §6.5 workload: a base64 encoder written in JavaScript,
// encoding the global `input` string.
const Base64JS = `
function b64encode(data) {
	var tbl = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
	var out = "";
	var i = 0;
	var n = data.length;
	while (i + 2 < n) {
		var b0 = data.charCodeAt(i);
		var b1 = data.charCodeAt(i + 1);
		var b2 = data.charCodeAt(i + 2);
		out = out + tbl.charAt((b0 >> 2) & 63);
		out = out + tbl.charAt(((b0 << 4) | (b1 >> 4)) & 63);
		out = out + tbl.charAt(((b1 << 2) | (b2 >> 6)) & 63);
		out = out + tbl.charAt(b2 & 63);
		i = i + 3;
	}
	var rem = n - i;
	if (rem == 1) {
		var c0 = data.charCodeAt(i);
		out = out + tbl.charAt((c0 >> 2) & 63);
		out = out + tbl.charAt((c0 << 4) & 63);
		out = out + "==";
	} else if (rem == 2) {
		var d0 = data.charCodeAt(i);
		var d1 = data.charCodeAt(i + 1);
		out = out + tbl.charAt((d0 >> 2) & 63);
		out = out + tbl.charAt(((d0 << 4) | (d1 >> 4)) & 63);
		out = out + tbl.charAt((d1 << 2) & 63);
		out = out + "=";
	}
	return out;
}
b64encode(input);
`
