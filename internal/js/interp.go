package js

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is a JavaScript value: nil (undefined/null), float64, string,
// bool, *Array, *Object, *Closure, or Builtin.
type Value any

// Array is a JS array.
type Array struct{ Elems []Value }

// Object is a JS object.
type Object struct{ Props map[string]Value }

// Closure is a user-defined function with its captured environment.
type Closure struct {
	fn  *funcLit
	env *scope
}

// Builtin is a native binding.
type Builtin func(args []Value) (Value, error)

// scope is a lexical environment. Bindings live in parallel slices
// rather than a map: scopes are small (a handful of locals), most lookups
// hit the innermost frame, and — because cached ASTs reuse the same name
// string across evaluations — the comparisons usually short-circuit on
// pointer equality. This removes a map allocation per block/call entry
// and the string hashing on every variable access, the two hottest
// allocation/lookup sites in the evaluator.
type scope struct {
	names  []string
	vals   []Value
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent}
}

func (s *scope) get(name string) (Value, bool) {
	for c := s; c != nil; c = c.parent {
		for i, n := range c.names {
			if n == name {
				return c.vals[i], true
			}
		}
	}
	return nil, false
}

func (s *scope) set(name string, v Value) {
	for c := s; c != nil; c = c.parent {
		for i, n := range c.names {
			if n == name {
				c.vals[i] = v
				return
			}
		}
	}
	s.define(name, v) // implicit global-ish definition
}

func (s *scope) define(name string, v Value) {
	for i, n := range s.names {
		if n == name {
			s.vals[i] = v
			return
		}
	}
	if s.names == nil {
		// First binding: size for a typical frame up front so the
		// common few-locals scope grows its slices exactly once.
		s.names = make([]string, 0, 4)
		s.vals = make([]Value, 0, 4)
	}
	s.names = append(s.names, name)
	s.vals = append(s.vals, v)
}

// smallNums pre-boxes the integer Values in [-1, 4096): char codes,
// indices, shift/mask intermediates — the numbers hot JS loops produce.
// Converting a float64 to the Value interface allocates 8 bytes on every
// conversion; returning a pre-boxed Value does not, and the values are
// indistinguishable to the evaluator.
const smallNumMax = 4096

var smallNums = func() [smallNumMax + 1]Value {
	var a [smallNumMax + 1]Value
	for i := range a {
		a[i] = float64(i - 1)
	}
	return a
}()

// charVals pre-boxes the 256 one-byte strings charAt/indexing produce.
var charVals = func() [256]Value {
	var a [256]Value
	for i := range a {
		a[i] = string(rune(i))
	}
	return a
}()

// numVal boxes a float64 as a Value, reusing pre-boxed small integers.
func numVal(f float64) Value {
	if i := int(f); float64(i) == f && i >= -1 && i < smallNumMax &&
		!(i == 0 && math.Signbit(f)) {
		return smallNums[i+1]
	}
	return f
}

// control-flow signals travel as errors.
type breakSignal struct{}
type continueSignal struct{}
type returnSignal struct{ v Value }

func (breakSignal) Error() string    { return "break outside loop" }
func (continueSignal) Error() string { return "continue outside loop" }
func (returnSignal) Error() string   { return "return outside function" }

// boundMethod is a string/array method resolved by member access.
type boundMethod struct {
	recv Value
	name string
}

func (e *Engine) evalProgram(prog []node, env *scope) (Value, error) {
	var last Value
	for _, s := range prog {
		v, err := e.eval(s, env)
		if err != nil {
			return nil, err
		}
		last = v
	}
	return last, nil
}

func (e *Engine) evalBlock(stmts []node, env *scope) error {
	for _, s := range stmts {
		if _, err := e.eval(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) eval(n node, env *scope) (Value, error) {
	e.tick()
	switch x := n.(type) {
	case *numLit:
		return numVal(x.V), nil
	case *strLit:
		return x.V, nil
	case *boolLit:
		return x.V, nil
	case *nullLit:
		return nil, nil
	case *ident:
		v, ok := env.get(x.Name)
		if !ok {
			return nil, jerrf(x.line(), "undefined variable %s", x.Name)
		}
		return v, nil
	case *arrayLit:
		e.alloc(16 + 8*len(x.Elems))
		arr := &Array{}
		for _, el := range x.Elems {
			v, err := e.eval(el, env)
			if err != nil {
				return nil, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return arr, nil
	case *objectLit:
		e.alloc(32 + 16*len(x.Keys))
		obj := &Object{Props: make(map[string]Value, len(x.Keys))}
		for i, k := range x.Keys {
			v, err := e.eval(x.Vals[i], env)
			if err != nil {
				return nil, err
			}
			obj.Props[k] = v
		}
		return obj, nil
	case *funcLit:
		e.alloc(48)
		return &Closure{fn: x, env: env}, nil

	case *varStmt:
		var v Value
		if x.Init != nil {
			var err error
			v, err = e.eval(x.Init, env)
			if err != nil {
				return nil, err
			}
		}
		env.define(x.Name, v)
		return nil, nil
	case *exprStmt:
		return e.eval(x.X, env)
	case *returnStmt:
		var v Value
		if x.X != nil {
			var err error
			v, err = e.eval(x.X, env)
			if err != nil {
				return nil, err
			}
		}
		return nil, returnSignal{v}
	case *breakStmt:
		return nil, breakSignal{}
	case *continueStmt:
		return nil, continueSignal{}
	case *ifStmt:
		c, err := e.eval(x.C, env)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return nil, e.evalBlock(x.Then, newScope(env))
		}
		return nil, e.evalBlock(x.Else, newScope(env))
	case *whileStmt:
		for {
			c, err := e.eval(x.C, env)
			if err != nil {
				return nil, err
			}
			if !truthy(c) {
				return nil, nil
			}
			if err := e.evalBlock(x.Body, newScope(env)); err != nil {
				switch err.(type) {
				case breakSignal:
					return nil, nil
				case continueSignal:
					continue
				}
				return nil, err
			}
		}
	case *forStmt:
		fenv := newScope(env)
		if x.Init != nil {
			if _, err := e.eval(x.Init, fenv); err != nil {
				return nil, err
			}
		}
		for {
			if x.C != nil {
				c, err := e.eval(x.C, fenv)
				if err != nil {
					return nil, err
				}
				if !truthy(c) {
					return nil, nil
				}
			}
			err := e.evalBlock(x.Body, newScope(fenv))
			if err != nil {
				switch err.(type) {
				case breakSignal:
					return nil, nil
				case continueSignal:
					// fall through to post
				default:
					return nil, err
				}
			}
			if x.Post != nil {
				if _, err := e.eval(x.Post, fenv); err != nil {
					return nil, err
				}
			}
		}

	case *unary:
		v, err := e.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			return numVal(-toNum(v)), nil
		case "!":
			return !truthy(v), nil
		case "~":
			return numVal(float64(^toInt32(v))), nil
		case "typeof":
			return typeOf(v), nil
		}
		return nil, jerrf(x.line(), "bad unary %s", x.Op)

	case *binary:
		return e.evalBinary(x, env)
	case *ternary:
		c, err := e.eval(x.C, env)
		if err != nil {
			return nil, err
		}
		if truthy(c) {
			return e.eval(x.A, env)
		}
		return e.eval(x.B, env)
	case *assign:
		return e.evalAssign(x, env)
	case *incdec:
		old, err := e.readLValue(x.X, env)
		if err != nil {
			return nil, err
		}
		n := toNum(old)
		var nv float64
		if x.Op == "++" {
			nv = n + 1
		} else {
			nv = n - 1
		}
		if err := e.writeLValue(x.X, env, numVal(nv)); err != nil {
			return nil, err
		}
		if x.Postfix {
			return numVal(n), nil
		}
		return numVal(nv), nil
	case *index:
		base, err := e.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		idx, err := e.eval(x.I, env)
		if err != nil {
			return nil, err
		}
		return e.indexValue(base, idx, x.line())
	case *member:
		base, err := e.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		return e.memberValue(base, x.Name, x.line())
	case *call:
		return e.evalCall(x, env)
	}
	return nil, jerrf(n.line(), "cannot evaluate %T", n)
}

func (e *Engine) evalBinary(x *binary, env *scope) (Value, error) {
	if x.Op == "&&" {
		l, err := e.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if !truthy(l) {
			return l, nil
		}
		return e.eval(x.Y, env)
	}
	if x.Op == "||" {
		l, err := e.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		if truthy(l) {
			return l, nil
		}
		return e.eval(x.Y, env)
	}
	l, err := e.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	r, err := e.eval(x.Y, env)
	if err != nil {
		return nil, err
	}
	return e.binop(x.Op, l, r, x.line())
}

func (e *Engine) binop(op string, l, r Value, line int) (Value, error) {
	switch op {
	case "+":
		// String concatenation charges the appended bytes plus header:
		// engines grow strings with amortized reallocation (ropes /
		// doubling buffers), not a full copy per concat. The host
		// appends the same way (concat).
		if ls, ok := l.(string); ok {
			rs := ToString(r)
			e.alloc(len(rs) + 8)
			return e.concat(ls, rs), nil
		}
		if rs, ok := r.(string); ok {
			ls := ToString(l)
			e.alloc(len(ls) + 8)
			return e.concat(ls, rs), nil
		}
		return numVal(toNum(l) + toNum(r)), nil
	case "-":
		return numVal(toNum(l) - toNum(r)), nil
	case "*":
		return numVal(toNum(l) * toNum(r)), nil
	case "/":
		return numVal(toNum(l) / toNum(r)), nil
	case "%":
		return numVal(math.Mod(toNum(l), toNum(r))), nil
	case "&":
		return numVal(float64(toInt32(l) & toInt32(r))), nil
	case "|":
		return numVal(float64(toInt32(l) | toInt32(r))), nil
	case "^":
		return numVal(float64(toInt32(l) ^ toInt32(r))), nil
	case "<<":
		return numVal(float64(toInt32(l) << (uint32(toInt32(r)) & 31))), nil
	case ">>":
		return numVal(float64(toInt32(l) >> (uint32(toInt32(r)) & 31))), nil
	case ">>>":
		return numVal(float64(uint32(toInt32(l)) >> (uint32(toInt32(r)) & 31))), nil
	case "==", "===":
		return jsEquals(l, r), nil
	case "!=", "!==":
		return !jsEquals(l, r), nil
	case "<", ">", "<=", ">=":
		if ls, ok := l.(string); ok {
			if rs, ok2 := r.(string); ok2 {
				return strCompare(op, ls, rs), nil
			}
		}
		a, b := toNum(l), toNum(r)
		switch op {
		case "<":
			return a < b, nil
		case ">":
			return a > b, nil
		case "<=":
			return a <= b, nil
		default:
			return a >= b, nil
		}
	}
	return nil, jerrf(line, "bad operator %s", op)
}

// concat returns ls+rs. When ls is the previous result it appends rs to
// it in the engine's builder, so `out = out + c` in a loop costs the
// appended bytes, not a copy of out; any other ls starts a new buffer
// (the old one stays with the strings that share it).
func (e *Engine) concat(ls, rs string) string {
	if ls != e.cat.String() {
		e.cat = strings.Builder{}
		e.cat.Grow(len(ls) + len(rs))
		e.cat.WriteString(ls)
	}
	e.cat.WriteString(rs)
	return e.cat.String()
}

func strCompare(op, a, b string) bool {
	switch op {
	case "<":
		return a < b
	case ">":
		return a > b
	case "<=":
		return a <= b
	default:
		return a >= b
	}
}

func (e *Engine) evalAssign(x *assign, env *scope) (Value, error) {
	var v Value
	var err error
	if x.Op == "=" {
		v, err = e.eval(x.R, env)
		if err != nil {
			return nil, err
		}
	} else {
		old, rerr := e.readLValue(x.L, env)
		if rerr != nil {
			return nil, rerr
		}
		r, rerr := e.eval(x.R, env)
		if rerr != nil {
			return nil, rerr
		}
		v, err = e.binop(strings.TrimSuffix(x.Op, "="), old, r, x.line())
		if err != nil {
			return nil, err
		}
	}
	if err := e.writeLValue(x.L, env, v); err != nil {
		return nil, err
	}
	return v, nil
}

func (e *Engine) readLValue(n node, env *scope) (Value, error) {
	return e.eval(n, env)
}

func (e *Engine) writeLValue(n node, env *scope, v Value) error {
	switch t := n.(type) {
	case *ident:
		env.set(t.Name, v)
		return nil
	case *index:
		base, err := e.eval(t.X, env)
		if err != nil {
			return err
		}
		idx, err := e.eval(t.I, env)
		if err != nil {
			return err
		}
		switch b := base.(type) {
		case *Array:
			i := int(toNum(idx))
			if i < 0 {
				return jerrf(t.line(), "negative array index")
			}
			for len(b.Elems) <= i {
				b.Elems = append(b.Elems, nil)
			}
			b.Elems[i] = v
			return nil
		case *Object:
			b.Props[ToString(idx)] = v
			return nil
		}
		return jerrf(t.line(), "cannot index-assign %s", typeOf(base))
	case *member:
		base, err := e.eval(t.X, env)
		if err != nil {
			return err
		}
		if obj, ok := base.(*Object); ok {
			obj.Props[t.Name] = v
			return nil
		}
		return jerrf(t.line(), "cannot set property on %s", typeOf(base))
	}
	return jerrf(n.line(), "invalid assignment target")
}

func (e *Engine) indexValue(base, idx Value, line int) (Value, error) {
	switch b := base.(type) {
	case *Array:
		i := int(toNum(idx))
		if i < 0 || i >= len(b.Elems) {
			return nil, nil // undefined
		}
		return b.Elems[i], nil
	case string:
		i := int(toNum(idx))
		if i < 0 || i >= len(b) {
			return nil, nil
		}
		return charVals[b[i]], nil
	case *Object:
		return b.Props[ToString(idx)], nil
	}
	return nil, jerrf(line, "cannot index %s", typeOf(base))
}

func (e *Engine) memberValue(base Value, name string, line int) (Value, error) {
	switch b := base.(type) {
	case string:
		if name == "length" {
			return numVal(float64(len(b))), nil
		}
		return boundMethod{recv: b, name: name}, nil
	case *Array:
		if name == "length" {
			return numVal(float64(len(b.Elems))), nil
		}
		return boundMethod{recv: b, name: name}, nil
	case *Object:
		if v, ok := b.Props[name]; ok {
			return v, nil
		}
		return nil, nil
	}
	return nil, jerrf(line, "cannot read property %q of %s", name, typeOf(base))
}

func (e *Engine) evalCall(x *call, env *scope) (Value, error) {
	// Method-call fast path: a member callee on a string/array receiver
	// always resolves to a bound method (memberValue has no other
	// outcome for those types), so dispatch it directly instead of
	// boxing a boundMethod through the Value interface — an allocation
	// per call in the hottest loops (s.charAt, s.charCodeAt). The node
	// ticks match the generic path exactly: one for the member node,
	// then its base and the arguments.
	if m, ok := x.Fn.(*member); ok && m.Name != "length" {
		e.tick() // the member node's own evaluation tick
		base, err := e.eval(m.X, env)
		if err != nil {
			return nil, err
		}
		switch base.(type) {
		case string, *Array:
			// callMethod keeps no reference to its argument slice, so
			// the arguments live in this frame. (Passed through
			// evalArgs, which eval's recursion reaches, they would
			// escape with every other call's.)
			var buf [4]Value
			args := buf[:0]
			for _, a := range x.Args {
				v, err := e.eval(a, env)
				if err != nil {
					return nil, err
				}
				args = append(args, v)
			}
			return e.callMethod(boundMethod{recv: base, name: m.Name}, args, x.line())
		}
		fnv, err := e.memberValue(base, m.Name, m.line())
		if err != nil {
			return nil, err
		}
		args, err := e.evalArgs(x, env)
		if err != nil {
			return nil, err
		}
		return e.apply(fnv, args, x.line())
	}
	fnv, err := e.eval(x.Fn, env)
	if err != nil {
		return nil, err
	}
	args, err := e.evalArgs(x, env)
	if err != nil {
		return nil, err
	}
	return e.apply(fnv, args, x.line())
}

func (e *Engine) evalArgs(x *call, env *scope) ([]Value, error) {
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := e.eval(a, env)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return args, nil
}

func (e *Engine) apply(fnv Value, args []Value, line int) (Value, error) {
	switch f := fnv.(type) {
	case *Closure:
		if e.depth >= maxCallDepth {
			return nil, jerrf(line, "call stack exhausted")
		}
		e.depth++
		defer func() { e.depth-- }()
		fenv := newScope(f.env)
		for i, p := range f.fn.Params {
			if i < len(args) {
				fenv.define(p, args[i])
			} else {
				fenv.define(p, nil)
			}
		}
		if f.fn.Name != "" {
			fenv.define(f.fn.Name, f)
		}
		err := e.evalBlock(f.fn.Body, fenv)
		if err != nil {
			if ret, ok := err.(returnSignal); ok {
				return ret.v, nil
			}
			return nil, err
		}
		return nil, nil
	case Builtin:
		return f(args)
	case boundMethod:
		return e.callMethod(f, args, line)
	}
	return nil, jerrf(line, "%s is not callable", typeOf(fnv))
}

func (e *Engine) callMethod(m boundMethod, args []Value, line int) (Value, error) {
	switch recv := m.recv.(type) {
	case string:
		switch m.name {
		case "charCodeAt":
			i := int(argNum(args, 0))
			if i < 0 || i >= len(recv) {
				return math.NaN(), nil
			}
			return smallNums[int(recv[i])+1], nil
		case "charAt":
			i := int(argNum(args, 0))
			if i < 0 || i >= len(recv) {
				return "", nil
			}
			e.alloc(1)
			return charVals[recv[i]], nil
		case "substring":
			a := int(argNum(args, 0))
			b := len(recv)
			if len(args) > 1 {
				b = int(argNum(args, 1))
			}
			a = clamp(a, 0, len(recv))
			b = clamp(b, 0, len(recv))
			if a > b {
				a, b = b, a
			}
			e.alloc(b - a)
			return recv[a:b], nil
		case "indexOf":
			if len(args) < 1 {
				return numVal(-1), nil
			}
			return numVal(float64(strings.Index(recv, ToString(args[0])))), nil
		case "split":
			sep := ""
			if len(args) > 0 {
				sep = ToString(args[0])
			}
			parts := strings.Split(recv, sep)
			arr := &Array{}
			for _, p := range parts {
				arr.Elems = append(arr.Elems, p)
			}
			e.alloc(len(recv))
			return arr, nil
		case "toUpperCase":
			e.alloc(len(recv))
			return strings.ToUpper(recv), nil
		case "toLowerCase":
			e.alloc(len(recv))
			return strings.ToLower(recv), nil
		}
	case *Array:
		switch m.name {
		case "push":
			recv.Elems = append(recv.Elems, args...)
			e.alloc(8 * len(args))
			return numVal(float64(len(recv.Elems))), nil
		case "pop":
			if len(recv.Elems) == 0 {
				return nil, nil
			}
			v := recv.Elems[len(recv.Elems)-1]
			recv.Elems = recv.Elems[:len(recv.Elems)-1]
			return v, nil
		case "join":
			sep := ","
			if len(args) > 0 {
				sep = ToString(args[0])
			}
			parts := make([]string, len(recv.Elems))
			for i, el := range recv.Elems {
				parts[i] = ToString(el)
			}
			out := strings.Join(parts, sep)
			e.alloc(len(out))
			return out, nil
		}
	}
	return nil, jerrf(line, "unknown method %q on %s", m.name, typeOf(m.recv))
}

func argNum(args []Value, i int) float64 {
	if i >= len(args) {
		return 0
	}
	return toNum(args[i])
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return x != ""
	}
	return true
}

func toNum(v Value) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case bool:
		if x {
			return 1
		}
		return 0
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case nil:
		return 0
	}
	return math.NaN()
}

func toInt32(v Value) int32 {
	f := toNum(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}

func jsEquals(l, r Value) bool {
	switch a := l.(type) {
	case nil:
		return r == nil
	case float64:
		return a == toNum(r)
	case string:
		b, ok := r.(string)
		return ok && a == b
	case bool:
		b, ok := r.(bool)
		return ok && a == b
	}
	return l == r // reference equality for arrays/objects/functions
}

func typeOf(v Value) string {
	switch v.(type) {
	case nil:
		return "undefined"
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "boolean"
	case *Array, *Object:
		return "object"
	case *Closure, Builtin, boundMethod:
		return "function"
	}
	return "unknown"
}

// ToString renders a value the way JS string conversion does.
func ToString(v Value) string {
	switch x := v.(type) {
	case nil:
		return "undefined"
	case string:
		return x
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 && !math.Signbit(x) || x == math.Trunc(x) && x < 0 && x > -1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case *Array:
		parts := make([]string, len(x.Elems))
		for i, el := range x.Elems {
			parts[i] = ToString(el)
		}
		return strings.Join(parts, ",")
	case *Object:
		return "[object Object]"
	}
	return fmt.Sprintf("%v", v)
}
