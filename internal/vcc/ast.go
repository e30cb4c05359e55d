package vcc

import "fmt"

// Type describes a C-subset type: int (8 bytes), char (1 byte), pointers,
// and one-dimensional arrays.
type Type struct {
	Kind TypeKind
	Elem *Type // pointer/array element
	N    int   // array length
}

// TypeKind enumerates the base kinds.
type TypeKind uint8

const (
	TypeVoid TypeKind = iota
	TypeInt
	TypeChar
	TypePtr
	TypeArray
)

var (
	tyVoid = &Type{Kind: TypeVoid}
	tyInt  = &Type{Kind: TypeInt}
	tyChar = &Type{Kind: TypeChar}
)

// PtrTo returns a pointer type to t.
func PtrTo(t *Type) *Type { return &Type{Kind: TypePtr, Elem: t} }

// Size returns the storage size in bytes.
func (t *Type) Size() int {
	switch t.Kind {
	case TypeVoid:
		return 0
	case TypeChar:
		return 1
	case TypeInt, TypePtr:
		return 8
	case TypeArray:
		return t.Elem.Size() * t.N
	}
	return 0
}

// IsScalar reports whether t fits in a register.
func (t *Type) IsScalar() bool {
	return t.Kind == TypeInt || t.Kind == TypeChar || t.Kind == TypePtr
}

// Decay converts arrays to pointers for value contexts.
func (t *Type) Decay() *Type {
	if t.Kind == TypeArray {
		return PtrTo(t.Elem)
	}
	return t
}

func (t *Type) String() string {
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypeChar:
		return "char"
	case TypePtr:
		return t.Elem.String() + "*"
	case TypeArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.N)
	}
	return "?"
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	Pos() int
}

type exprBase struct{ Line int }

func (e exprBase) exprNode() {}
func (e exprBase) Pos() int  { return e.Line }

// IntLit is an integer or character literal.
type IntLit struct {
	exprBase
	Val int64
}

// StrLit is a string literal (becomes a static char array).
type StrLit struct {
	exprBase
	Val string
}

// Ident references a variable or function name.
type Ident struct {
	exprBase
	Name string
}

// Unary is -x, !x, ~x, *x, &x.
type Unary struct {
	exprBase
	Op string
	X  Expr
}

// Binary is x op y for arithmetic/comparison/logical/bitwise operators.
type Binary struct {
	exprBase
	Op   string
	X, Y Expr
}

// Assign is lhs = rhs and compound forms (+=, -=, ...).
type Assign struct {
	exprBase
	Op   string // "=", "+=", ...
	L, R Expr
}

// Cond is c ? a : b.
type Cond struct {
	exprBase
	C, A, B Expr
}

// Call is f(args...).
type Call struct {
	exprBase
	Name string
	Args []Expr
}

// Index is base[idx].
type Index struct {
	exprBase
	Base, Idx Expr
}

// IncDec is x++ / x-- (postfix) or ++x / --x (prefix).
type IncDec struct {
	exprBase
	Op      string // "++" or "--"
	Postfix bool
	X       Expr
}

// SizeofType is sizeof(type).
type SizeofType struct {
	exprBase
	T *Type
}

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
}

// Block is { stmts }.
type Block struct{ Stmts []Stmt }

// VarDecl declares a local (or global, at file scope).
type VarDecl struct {
	Name string
	T    *Type
	Init Expr // optional
	Line int
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct{ X Expr }

// If is if (c) then else els.
type If struct {
	C    Expr
	Then Stmt
	Else Stmt // optional
}

// While is while (c) body.
type While struct {
	C    Expr
	Body Stmt
}

// For is for (init; c; post) body.
type For struct {
	Init Stmt // VarDecl or ExprStmt, optional
	C    Expr // optional
	Post Expr // optional
	Body Stmt
}

// Return is return [x].
type Return struct {
	X    Expr // optional
	Line int
}

// BreakStmt / ContinueStmt.
type BreakStmt struct{ Line int }
type ContinueStmt struct{ Line int }

func (*Block) stmtNode()        {}
func (*VarDecl) stmtNode()      {}
func (*ExprStmt) stmtNode()     {}
func (*If) stmtNode()           {}
func (*While) stmtNode()        {}
func (*For) stmtNode()          {}
func (*Return) stmtNode()       {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}

// Param is one function parameter.
type Param struct {
	Name string
	T    *Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name    string
	Ret     *Type
	Params  []Param
	Body    *Block
	Line    int
	Toks    int // tokens from the parameter list's "(" to the body's "}"
	Virtine bool
	// Permissive grants allow-all; ConfigMask (when >= 0) grants a
	// bit-mask policy (§5.3).
	Permissive bool
	ConfigMask int64 // -1 when absent
}

// File is a parsed translation unit.
type File struct {
	Funcs   []*FuncDecl
	Globals []*VarDecl
}

// Func returns the function with the given name, or nil.
func (f *File) Func(name string) *FuncDecl {
	for _, fn := range f.Funcs {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}
