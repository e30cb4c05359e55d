// Package vcc implements the virtine C language extensions (§5.3) as a
// from-scratch compiler for a C subset, playing the role of the paper's
// clang wrapper + LLVM pass + newlib port:
//
//   - Functions annotated `virtine` are detected, the call graph rooted at
//     each annotation is extracted, and exactly that subset of the program
//     (plus the runtime) is packaged into a standalone virtine image.
//   - `virtine_permissive` grants the allow-all hypercall policy;
//     `virtine_config(MASK)` grants a bit-mask policy (§5.3).
//   - Arguments are marshalled by generated code into the virtine's
//     address space at a fixed offset, and the return value is read back
//     from a fixed offset — copy-restore RPC semantics (§7.2).
//   - A mini-libc written in the same C subset (memcpy, strlen, malloc,
//     puts, ...) forwards its system calls to hypercalls, exactly as the
//     paper's newlib port does.
//
// The language: `int` (64-bit signed), `char`, pointers, one-dimensional
// arrays, string/char literals, functions, recursion, if/else, while,
// for, break/continue, return, the usual expression operators, and the
// `__hc(nr, a, b, c)` hypercall intrinsic the runtime uses.
//
// The pipeline: lex and parse the unit with the runtime, generate typed
// assembler statements (asm.Stmt) for the reachable functions, run the
// peephole pass over them, then lay them out and encode them inside the
// long-mode boot stub in one pass (guest.AssembleLongMode). No assembly
// text passes from codegen to the encoder; Virtine.Asm is a listing
// rendered from the same statements, which the assembler's text front
// end reads back to the same image. A global that would take the image
// past asm.MaxImage is a CompileError.
package vcc

import (
	"fmt"
	"strings"
)

// TokKind classifies tokens.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokStr
	TokChar
	TokPunct
	TokKeyword
)

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string // identifier text, punctuation, or keyword
	Int  int64  // for TokInt/TokChar
	Str  string // for TokStr (decoded)
	Line int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokInt:
		return fmt.Sprintf("%d", t.Int)
	case TokStr:
		return fmt.Sprintf("%q", t.Str)
	}
	return t.Text
}

var keywords = map[string]bool{
	"int": true, "char": true, "long": true, "void": true,
	"if": true, "else": true, "while": true, "for": true,
	"return": true, "break": true, "continue": true,
	"virtine": true, "virtine_permissive": true, "virtine_config": true,
	"sizeof": true,
}

// CompileError is a diagnostic with a source line.
type CompileError struct {
	Line int
	Msg  string
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("vcc: line %d: %s", e.Line, e.Msg)
}

func errf(line int, format string, args ...any) *CompileError {
	return &CompileError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Lex tokenizes src.
func Lex(src string) ([]Token, error) {
	toks := make([]Token, 0, len(src)/2+1) // C runs about one token per three bytes
	line := 1
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			i += 2
			for i+1 < n && !(src[i] == '*' && src[i+1] == '/') {
				if src[i] == '\n' {
					line++
				}
				i++
			}
			if i+1 >= n {
				return nil, errf(line, "unterminated block comment")
			}
			i += 2
		case isDigit(c):
			start := i
			base := int64(10)
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				base = 16
				i += 2
				start = i
				for i < n && isHex(src[i]) {
					i++
				}
				if i == start {
					return nil, errf(line, "bad hex literal")
				}
			} else {
				for i < n && isDigit(src[i]) {
					i++
				}
			}
			var v int64
			for _, ch := range []byte(src[start:i]) {
				v = v*base + int64(hexVal(ch))
			}
			toks = append(toks, Token{Kind: TokInt, Int: v, Line: line})
		case isIdentStart(c):
			start := i
			for i < n && isIdentCont(src[i]) {
				i++
			}
			text := src[start:i]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: text, Line: line})
		case c == '"':
			s, ni, err := lexString(src, i, line)
			if err != nil {
				return nil, err
			}
			toks = append(toks, Token{Kind: TokStr, Str: s, Line: line})
			i = ni
		case c == '\'':
			if i+2 >= n {
				return nil, errf(line, "unterminated char literal")
			}
			var v int64
			if src[i+1] == '\\' {
				if i+3 >= n || src[i+3] != '\'' {
					return nil, errf(line, "bad char literal")
				}
				v = int64(unescape(src[i+2]))
				i += 4
			} else {
				if src[i+2] != '\'' {
					return nil, errf(line, "bad char literal")
				}
				v = int64(src[i+1])
				i += 3
			}
			toks = append(toks, Token{Kind: TokChar, Int: v, Line: line})
		default:
			k := punctLen(src[i:])
			if k == 0 {
				return nil, errf(line, "unexpected character %q", c)
			}
			toks = append(toks, Token{Kind: TokPunct, Text: src[i : i+k], Line: line})
			i += k
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line})
	return toks, nil
}

// punctLen returns the length of the punctuation token s starts with,
// longest match first, or 0 when s starts with none.
func punctLen(s string) int {
	if len(s) >= 3 && (s[:3] == "<<=" || s[:3] == ">>=") {
		return 3
	}
	if len(s) >= 2 {
		switch s[:2] {
		case "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
			"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--":
			return 2
		}
	}
	if strings.IndexByte("+-*/%<>=!&|^~(){}[];,?:", s[0]) >= 0 {
		return 1
	}
	return 0
}

func lexString(src string, i, line int) (string, int, error) {
	var sb strings.Builder
	i++ // opening quote
	for i < len(src) {
		c := src[i]
		switch c {
		case '"':
			return sb.String(), i + 1, nil
		case '\n':
			return "", 0, errf(line, "newline in string literal")
		case '\\':
			if i+1 >= len(src) {
				return "", 0, errf(line, "unterminated escape")
			}
			sb.WriteByte(unescape(src[i+1]))
			i += 2
		default:
			sb.WriteByte(c)
			i++
		}
	}
	return "", 0, errf(line, "unterminated string literal")
}

func unescape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	case '0':
		return 0
	case '\\':
		return '\\'
	case '\'':
		return '\''
	case '"':
		return '"'
	}
	return c
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
func hexVal(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }
