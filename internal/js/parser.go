package js

// AST and recursive-descent / Pratt parser.

type node interface{ line() int }

type nodeBase struct{ Line int }

func (n nodeBase) line() int { return n.Line }

type (
	numLit struct {
		nodeBase
		V float64
	}
	strLit struct {
		nodeBase
		V string
	}
	boolLit struct {
		nodeBase
		V bool
	}
	nullLit struct{ nodeBase }
	ident   struct {
		nodeBase
		Name string
	}
	arrayLit struct {
		nodeBase
		Elems []node
	}
	objectLit struct {
		nodeBase
		Keys []string
		Vals []node
	}
	funcLit struct {
		nodeBase
		Name   string
		Params []string
		Body   []node
	}
	unary struct {
		nodeBase
		Op string
		X  node
	}
	binary struct {
		nodeBase
		Op   string
		X, Y node
	}
	assign struct {
		nodeBase
		Op   string
		L, R node
	}
	ternary struct {
		nodeBase
		C, A, B node
	}
	call struct {
		nodeBase
		Fn   node
		Args []node
	}
	index struct {
		nodeBase
		X, I node
	}
	member struct {
		nodeBase
		X    node
		Name string
	}
	incdec struct {
		nodeBase
		Op      string
		Postfix bool
		X       node
	}

	varStmt struct {
		nodeBase
		Name string
		Init node
	}
	exprStmt struct {
		nodeBase
		X node
	}
	ifStmt struct {
		nodeBase
		C          node
		Then, Else []node
	}
	whileStmt struct {
		nodeBase
		C    node
		Body []node
	}
	forStmt struct {
		nodeBase
		Init, Post node // statements/expressions, may be nil
		C          node
		Body       []node
	}
	returnStmt struct {
		nodeBase
		X node
	}
	breakStmt    struct{ nodeBase }
	continueStmt struct{ nodeBase }
)

// maxDepth bounds how deeply a source may nest statements and
// expressions. The parser recurses once per level and the evaluator
// once per AST level below it, and a goroutine that outgrows its stack
// dies with a fatal error no recover sees, so a source nested deeper
// is a parse error instead. The deepest program in the tree (the
// package's tests and fuzz seeds, Base64JS among them) reaches 16.
const maxDepth = 1000

type jsParser struct {
	toks  []token
	pos   int
	depth int // open stmt, assignExpr, unaryExpr and primary calls
}

// enter counts one level of recursive descent; a nil error obliges the
// caller to leave when it returns. Every cycle in the grammar passes
// through stmt, assignExpr, unaryExpr or primary, so counting those
// four bounds the recursion.
func (p *jsParser) enter() error {
	if p.depth++; p.depth > maxDepth {
		return jerrf(p.cur().line, "nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *jsParser) leave() { p.depth-- }

func parse(src string) ([]node, int, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, 0, err
	}
	p := &jsParser{toks: toks}
	var prog []node
	for !p.at(tEOF) {
		s, err := p.stmt()
		if err != nil {
			return nil, 0, err
		}
		if s != nil {
			prog = append(prog, s)
		}
	}
	return prog, len(toks), nil
}

func (p *jsParser) cur() token  { return p.toks[p.pos] }
func (p *jsParser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *jsParser) at(k tokKind) bool {
	return p.cur().kind == k
}
func (p *jsParser) atPunct(s string) bool {
	return p.cur().kind == tPunct && p.cur().text == s
}
func (p *jsParser) atKw(s string) bool {
	return p.cur().kind == tKeyword && p.cur().text == s
}
func (p *jsParser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.pos++
		return true
	}
	return false
}
func (p *jsParser) expect(s string) error {
	if !p.eatPunct(s) {
		return jerrf(p.cur().line, "expected %q, got %s", s, p.cur())
	}
	return nil
}
func (p *jsParser) semi() {
	p.eatPunct(";") // ASI-lite: semicolons optional
}

func (p *jsParser) block() ([]node, error) {
	if p.atPunct("{") {
		p.pos++
		var out []node
		for !p.atPunct("}") {
			if p.at(tEOF) {
				return nil, jerrf(p.cur().line, "unexpected EOF in block")
			}
			s, err := p.stmt()
			if err != nil {
				return nil, err
			}
			if s != nil {
				out = append(out, s)
			}
		}
		p.pos++
		return out, nil
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return nil, nil
	}
	return []node{s}, nil
}

func (p *jsParser) stmt() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.eatPunct(";"):
		return nil, nil
	case t.kind == tKeyword && (t.text == "var" || t.text == "let" || t.text == "const"):
		p.pos++
		name := p.next()
		if name.kind != tIdent {
			return nil, jerrf(name.line, "expected identifier after %s", t.text)
		}
		v := &varStmt{nodeBase: nodeBase{t.line}, Name: name.text}
		if p.eatPunct("=") {
			init, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			v.Init = init
		}
		// var a = 1, b = 2; -> desugar by chaining statements is not
		// supported; reject with a clear message.
		if p.atPunct(",") {
			return nil, jerrf(t.line, "multiple declarators per var are unsupported")
		}
		p.semi()
		return v, nil
	case p.atKw("function"):
		fn, err := p.funcExpr()
		if err != nil {
			return nil, err
		}
		f := fn.(*funcLit)
		if f.Name == "" {
			return nil, jerrf(t.line, "function statement needs a name")
		}
		// Desugar: function f(){} ≡ var f = function f(){}
		return &varStmt{nodeBase: nodeBase{t.line}, Name: f.Name, Init: f}, nil
	case p.atKw("return"):
		p.pos++
		r := &returnStmt{nodeBase: nodeBase{t.line}}
		if !p.atPunct(";") && !p.atPunct("}") && !p.at(tEOF) {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		p.semi()
		return r, nil
	case p.atKw("break"):
		p.pos++
		p.semi()
		return &breakStmt{nodeBase{t.line}}, nil
	case p.atKw("continue"):
		p.pos++
		p.semi()
		return &continueStmt{nodeBase{t.line}}, nil
	case p.atKw("if"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		st := &ifStmt{nodeBase: nodeBase{t.line}, C: c, Then: then}
		if p.atKw("else") {
			p.pos++
			els, err := p.block()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case p.atKw("while"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &whileStmt{nodeBase: nodeBase{t.line}, C: c, Body: body}, nil
	case p.atKw("for"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		f := &forStmt{nodeBase: nodeBase{t.line}}
		if !p.atPunct(";") {
			init, err := p.stmt() // handles var / expr, consumes ';'
			if err != nil {
				return nil, err
			}
			f.Init = init
		} else {
			p.pos++
		}
		if !p.atPunct(";") {
			c, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.C = c
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		if !p.atPunct(")") {
			post, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Post = &exprStmt{nodeBase: nodeBase{t.line}, X: post}
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		f.Body = body
		return f, nil
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		p.semi()
		return &exprStmt{nodeBase: nodeBase{t.line}, X: x}, nil
	}
}

func (p *jsParser) expr() (node, error) { return p.assignExpr() }

func (p *jsParser) assignExpr() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	lhs, err := p.ternaryExpr()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%="} {
		if p.atPunct(op) {
			line := p.next().line
			rhs, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			return &assign{nodeBase: nodeBase{line}, Op: op, L: lhs, R: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *jsParser) ternaryExpr() (node, error) {
	c, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if p.atPunct("?") {
		line := p.next().line
		a, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		b, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		return &ternary{nodeBase: nodeBase{line}, C: c, A: a, B: b}, nil
	}
	return c, nil
}

var jsPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *jsParser) binaryExpr(minPrec int) (node, error) {
	lhs, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tPunct {
			return lhs, nil
		}
		prec, ok := jsPrec[t.text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &binary{nodeBase: nodeBase{t.line}, Op: t.text, X: lhs, Y: rhs}
	}
}

func (p *jsParser) unaryExpr() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	if t.kind == tPunct {
		switch t.text {
		case "-", "!", "~", "+":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			if t.text == "+" {
				return x, nil
			}
			return &unary{nodeBase: nodeBase{t.line}, Op: t.text, X: x}, nil
		case "++", "--":
			p.pos++
			x, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			return &incdec{nodeBase: nodeBase{t.line}, Op: t.text, X: x}, nil
		}
	}
	if t.kind == tKeyword && t.text == "typeof" {
		p.pos++
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &unary{nodeBase: nodeBase{t.line}, Op: "typeof", X: x}, nil
	}
	return p.postfixExpr()
}

func (p *jsParser) postfixExpr() (node, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tPunct {
			return x, nil
		}
		switch t.text {
		case "(":
			p.pos++
			c := &call{nodeBase: nodeBase{t.line}, Fn: x}
			for !p.atPunct(")") {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				c.Args = append(c.Args, a)
				if !p.eatPunct(",") {
					break
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			x = c
		case "[":
			p.pos++
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &index{nodeBase: nodeBase{t.line}, X: x, I: i}
		case ".":
			p.pos++
			name := p.next()
			if name.kind != tIdent && name.kind != tKeyword {
				return nil, jerrf(name.line, "expected property name")
			}
			x = &member{nodeBase: nodeBase{t.line}, X: x, Name: name.text}
		case "++", "--":
			p.pos++
			x = &incdec{nodeBase: nodeBase{t.line}, Op: t.text, Postfix: true, X: x}
		default:
			return x, nil
		}
	}
}

func (p *jsParser) funcExpr() (node, error) {
	t := p.next() // 'function'
	f := &funcLit{nodeBase: nodeBase{t.line}}
	if p.at(tIdent) {
		f.Name = p.next().text
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	for !p.atPunct(")") {
		prm := p.next()
		if prm.kind != tIdent {
			return nil, jerrf(prm.line, "expected parameter name")
		}
		f.Params = append(f.Params, prm.text)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if !p.atPunct("{") {
		return nil, jerrf(p.cur().line, "expected function body")
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

func (p *jsParser) primary() (node, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.next()
	switch t.kind {
	case tNum:
		return &numLit{nodeBase{t.line}, t.num}, nil
	case tStr:
		return &strLit{nodeBase{t.line}, t.str}, nil
	case tIdent:
		return &ident{nodeBase{t.line}, t.text}, nil
	case tKeyword:
		switch t.text {
		case "true":
			return &boolLit{nodeBase{t.line}, true}, nil
		case "false":
			return &boolLit{nodeBase{t.line}, false}, nil
		case "null", "undefined":
			return &nullLit{nodeBase{t.line}}, nil
		case "function":
			p.pos--
			return p.funcExpr()
		case "new":
			// new X(...) — evaluate as a plain call (our stdlib
			// constructors are factory functions).
			return p.postfixExpr()
		}
	case tPunct:
		switch t.text {
		case "(":
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			return x, p.expect(")")
		case "[":
			a := &arrayLit{nodeBase: nodeBase{t.line}}
			for !p.atPunct("]") {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				a.Elems = append(a.Elems, e)
				if !p.eatPunct(",") {
					break
				}
			}
			return a, p.expect("]")
		case "{":
			o := &objectLit{nodeBase: nodeBase{t.line}}
			for !p.atPunct("}") {
				k := p.next()
				var key string
				switch k.kind {
				case tIdent, tKeyword:
					key = k.text
				case tStr:
					key = k.str
				default:
					return nil, jerrf(k.line, "expected object key")
				}
				if err := p.expect(":"); err != nil {
					return nil, err
				}
				v, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				o.Keys = append(o.Keys, key)
				o.Vals = append(o.Vals, v)
				if !p.eatPunct(",") {
					break
				}
			}
			return o, p.expect("}")
		}
	}
	return nil, jerrf(t.line, "unexpected token %s", t)
}
