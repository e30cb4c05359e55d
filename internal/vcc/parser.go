package vcc

// Recursive-descent parser for the C subset. Grammar sketch:
//
//	file      := (funcdecl | globaldecl)*
//	funcdecl  := qualifiers? type ident '(' params ')' block
//	qualifiers:= 'virtine' | 'virtine_permissive' | 'virtine_config' '(' int ')'
//	stmt      := block | if | while | for | return | break | continue
//	           | vardecl ';' | expr ';' | ';'
//	expr      := assignment (precedence-climbing below)

type parser struct {
	toks []Token
	pos  int
}

// Parse parses a translation unit.
func Parse(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.at(TokEOF) {
		if err := p.topLevel(f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) at(k TokKind) bool {
	return p.cur().Kind == k
}
func (p *parser) atPunct(s string) bool {
	return p.cur().Kind == TokPunct && p.cur().Text == s
}
func (p *parser) atKw(s string) bool {
	return p.cur().Kind == TokKeyword && p.cur().Text == s
}
func (p *parser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) eatKw(s string) bool {
	if p.atKw(s) {
		p.pos++
		return true
	}
	return false
}
func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return errf(p.cur().Line, "expected %q, got %s", s, p.cur())
	}
	return nil
}

func (p *parser) topLevel(f *File) error {
	virtine, permissive := false, false
	configMask := int64(-1)
	for {
		switch {
		case p.eatKw("virtine"):
			virtine = true
			continue
		case p.eatKw("virtine_permissive"):
			virtine, permissive = true, true
			continue
		case p.eatKw("virtine_config"):
			virtine = true
			if err := p.expectPunct("("); err != nil {
				return err
			}
			t := p.next()
			if t.Kind != TokInt {
				return errf(t.Line, "virtine_config wants an integer mask")
			}
			configMask = t.Int
			if err := p.expectPunct(")"); err != nil {
				return err
			}
			continue
		}
		break
	}

	base, err := p.baseType()
	if err != nil {
		return err
	}
	ty, name, line, err := p.declarator(base)
	if err != nil {
		return err
	}
	if p.atPunct("(") {
		fn, err := p.funcRest(ty, name, line)
		if err != nil {
			return err
		}
		fn.Virtine = virtine
		fn.Permissive = permissive
		fn.ConfigMask = configMask
		f.Funcs = append(f.Funcs, fn)
		return nil
	}
	if virtine {
		return errf(line, "virtine qualifier on non-function %s", name)
	}
	// Global variable (possibly with initializer), then more declarators.
	for {
		g := &VarDecl{Name: name, T: ty, Line: line}
		if p.eatPunct("=") {
			e, err := p.assignment()
			if err != nil {
				return err
			}
			g.Init = e
		}
		f.Globals = append(f.Globals, g)
		if p.eatPunct(",") {
			ty, name, line, err = p.declarator(base)
			if err != nil {
				return err
			}
			continue
		}
		return p.expectPunct(";")
	}
}

// baseType parses int/char/long/void.
func (p *parser) baseType() (*Type, error) {
	t := p.cur()
	if t.Kind != TokKeyword {
		return nil, errf(t.Line, "expected type, got %s", t)
	}
	switch t.Text {
	case "int", "long":
		p.pos++
		// allow "long long", "long int"
		for p.atKw("long") || p.atKw("int") {
			p.pos++
		}
		return tyInt, nil
	case "char":
		p.pos++
		return tyChar, nil
	case "void":
		p.pos++
		return tyVoid, nil
	}
	return nil, errf(t.Line, "expected type, got %s", t)
}

// declarator parses pointer stars, the name, and an optional array suffix.
func (p *parser) declarator(base *Type) (*Type, string, int, error) {
	ty := base
	for p.eatPunct("*") {
		ty = PtrTo(ty)
	}
	t := p.next()
	if t.Kind != TokIdent {
		return nil, "", 0, errf(t.Line, "expected identifier, got %s", t)
	}
	if p.eatPunct("[") {
		sz := p.next()
		if sz.Kind != TokInt {
			return nil, "", 0, errf(sz.Line, "array size must be a constant")
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, "", 0, err
		}
		ty = &Type{Kind: TypeArray, Elem: ty, N: int(sz.Int)}
	}
	return ty, t.Text, t.Line, nil
}

func (p *parser) funcRest(ret *Type, name string, line int) (*FuncDecl, error) {
	start := p.pos
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name, Ret: ret, Line: line}
	if !p.atPunct(")") {
		if p.atKw("void") && p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ")" {
			p.pos++ // f(void)
		} else {
			for {
				base, err := p.baseType()
				if err != nil {
					return nil, err
				}
				ty, pname, _, err := p.declarator(base)
				if err != nil {
					return nil, err
				}
				fn.Params = append(fn.Params, Param{Name: pname, T: ty.Decay()})
				if !p.eatPunct(",") {
					break
				}
			}
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	fn.Toks = p.pos - start
	return fn, nil
}

func (p *parser) block() (*Block, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.atPunct("}") {
		if p.at(TokEOF) {
			return nil, errf(p.cur().Line, "unexpected end of file in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.pos++
	return b, nil
}

func (p *parser) isTypeStart() bool {
	return p.atKw("int") || p.atKw("char") || p.atKw("long") || p.atKw("void")
}

func (p *parser) stmt() (Stmt, error) {
	switch {
	case p.atPunct("{"):
		return p.block()
	case p.eatPunct(";"):
		return nil, nil
	case p.eatKw("if"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		then, err := p.stmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.eatKw("else") {
			if els, err = p.stmt(); err != nil {
				return nil, err
			}
		}
		return &If{C: c, Then: then, Else: els}, nil
	case p.eatKw("while"):
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.stmt()
		if err != nil {
			return nil, err
		}
		return &While{C: c, Body: body}, nil
	case p.eatKw("for"):
		return p.forStmt()
	case p.atKw("return"):
		line := p.next().Line
		r := &Return{Line: line}
		if !p.atPunct(";") {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		return r, p.expectPunct(";")
	case p.atKw("break"):
		line := p.next().Line
		return &BreakStmt{Line: line}, p.expectPunct(";")
	case p.atKw("continue"):
		line := p.next().Line
		return &ContinueStmt{Line: line}, p.expectPunct(";")
	case p.isTypeStart():
		d, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		return d, p.expectPunct(";")
	default:
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ExprStmt{X: x}, p.expectPunct(";")
	}
}

func (p *parser) varDecl() (Stmt, error) {
	base, err := p.baseType()
	if err != nil {
		return nil, err
	}
	ty, name, line, err := p.declarator(base)
	if err != nil {
		return nil, err
	}
	d := &VarDecl{Name: name, T: ty, Line: line}
	if p.eatPunct("=") {
		e, err := p.assignment()
		if err != nil {
			return nil, err
		}
		d.Init = e
	}
	if p.atPunct(",") {
		// Desugar "int a = 1, b = 2;" into a block of decls.
		blk := &Block{Stmts: []Stmt{d}}
		for p.eatPunct(",") {
			ty, name, line, err := p.declarator(base)
			if err != nil {
				return nil, err
			}
			d2 := &VarDecl{Name: name, T: ty, Line: line}
			if p.eatPunct("=") {
				e, err := p.assignment()
				if err != nil {
					return nil, err
				}
				d2.Init = e
			}
			blk.Stmts = append(blk.Stmts, d2)
		}
		return blk, nil
	}
	return d, nil
}

func (p *parser) forStmt() (Stmt, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	f := &For{}
	if !p.atPunct(";") {
		if p.isTypeStart() {
			d, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			f.Init = d
		} else {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{X: x}
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(";") {
		c, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.C = c
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		post, err := p.expr()
		if err != nil {
			return nil, err
		}
		f.Post = post
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.stmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// Expression parsing: assignment is right-associative and lowest
// precedence; binary operators use precedence climbing.

func (p *parser) expr() (Expr, error) { return p.assignment() }

func (p *parser) assignment() (Expr, error) {
	lhs, err := p.ternary()
	if err != nil {
		return nil, err
	}
	for _, op := range []string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="} {
		if p.atPunct(op) {
			line := p.next().Line
			rhs, err := p.assignment()
			if err != nil {
				return nil, err
			}
			return &Assign{exprBase: exprBase{line}, Op: op, L: lhs, R: rhs}, nil
		}
	}
	return lhs, nil
}

func (p *parser) ternary() (Expr, error) {
	c, err := p.binary(0)
	if err != nil {
		return nil, err
	}
	if p.atPunct("?") {
		line := p.next().Line
		a, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		b, err := p.ternary()
		if err != nil {
			return nil, err
		}
		return &Cond{exprBase: exprBase{line}, C: c, A: a, B: b}, nil
	}
	return c, nil
}

var precedence = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binary(minPrec int) (Expr, error) {
	lhs, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return lhs, nil
		}
		prec, ok := precedence[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.pos++
		rhs, err := p.binary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{exprBase: exprBase{t.Line}, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "!", "~", "*", "&":
			p.pos++
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &Unary{exprBase: exprBase{t.Line}, Op: t.Text, X: x}, nil
		case "+":
			p.pos++
			return p.unary()
		case "++", "--":
			p.pos++
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &IncDec{exprBase: exprBase{t.Line}, Op: t.Text, X: x}, nil
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.pos++
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		base, err := p.baseType()
		if err != nil {
			return nil, err
		}
		ty := base
		for p.eatPunct("*") {
			ty = PtrTo(ty)
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return &SizeofType{exprBase: exprBase{t.Line}, T: ty}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokPunct {
			return x, nil
		}
		switch t.Text {
		case "[":
			p.pos++
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &Index{exprBase: exprBase{t.Line}, Base: x, Idx: idx}
		case "++", "--":
			p.pos++
			x = &IncDec{exprBase: exprBase{t.Line}, Op: t.Text, Postfix: true, X: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case TokInt, TokChar:
		return &IntLit{exprBase: exprBase{t.Line}, Val: t.Int}, nil
	case TokStr:
		return &StrLit{exprBase: exprBase{t.Line}, Val: t.Str}, nil
	case TokIdent:
		if p.atPunct("(") {
			p.pos++
			call := &Call{exprBase: exprBase{t.Line}, Name: t.Text}
			if !p.atPunct(")") {
				for {
					a, err := p.assignment()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if !p.eatPunct(",") {
						break
					}
				}
			}
			return call, p.expectPunct(")")
		}
		return &Ident{exprBase: exprBase{t.Line}, Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			return x, p.expectPunct(")")
		}
	}
	return nil, errf(t.Line, "unexpected token %s", t)
}
