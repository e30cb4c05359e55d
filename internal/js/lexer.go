// Package js implements a small JavaScript engine from scratch — the
// stand-in for Duktape in the §6.5 experiment. Like Duktape it is an
// embeddable, portable tree-walking interpreter with no JIT; unlike
// Duktape it is written in Go and charges virtual cycles for engine
// allocation, native-binding population, parsing, evaluation, and
// teardown, so the Fig 14 cost structure (engine init dominating short
// scripts, teardown avoidable with virtine reset) is measurable.
//
// Supported language: var declarations, functions (with closures),
// if/else, while, for, return, break, continue, numbers (float64),
// strings, booleans, null, arrays, objects, the usual operators
// (arithmetic, comparison, logical with short-circuit, bitwise on int32
// semantics, string +), indexing, member access, method calls, and a
// small standard library (string charAt/charCodeAt/length/substring,
// array push/length, String.fromCharCode, Math.floor).
package js

import (
	"fmt"
	"strconv"
	"strings"
)

type tokKind uint8

const (
	tEOF tokKind = iota
	tNum
	tStr
	tIdent
	tKeyword
	tPunct
)

type token struct {
	kind tokKind
	text string
	num  float64
	str  string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "<eof>"
	case tNum:
		return strconv.FormatFloat(t.num, 'g', -1, 64)
	case tStr:
		return strconv.Quote(t.str)
	}
	return t.text
}

var jsKeywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"while": true, "for": true, "break": true, "continue": true,
	"true": true, "false": true, "null": true, "undefined": true,
	"new": true, "typeof": true, "let": true, "const": true,
}

// Error is a JS engine diagnostic.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("js: line %d: %s", e.Line, e.Msg) }

func jerrf(line int, format string, args ...any) *Error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	open := 0 // brackets open, never below 0
	i, n := 0, len(src)
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
				return nil, jerrf(line, "unterminated comment")
			}
			i += 2
		case c >= '0' && c <= '9', c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9':
			start := i
			if c == '0' && i+1 < n && (src[i+1] == 'x' || src[i+1] == 'X') {
				i += 2
				for i < n && isHexDigit(src[i]) {
					i++
				}
				v, err := strconv.ParseUint(src[start+2:i], 16, 64)
				if err != nil {
					return nil, jerrf(line, "bad hex literal")
				}
				toks = append(toks, token{kind: tNum, num: float64(v), line: line})
				continue
			}
			for i < n && (src[i] >= '0' && src[i] <= '9' || src[i] == '.' || src[i] == 'e' || src[i] == 'E') {
				i++
			}
			v, err := strconv.ParseFloat(src[start:i], 64)
			if err != nil {
				return nil, jerrf(line, "bad number %q", src[start:i])
			}
			toks = append(toks, token{kind: tNum, num: v, line: line})
		case c == '"' || c == '\'':
			quote := c
			i++
			var sb strings.Builder
			for i < n && src[i] != quote {
				if src[i] == '\n' {
					return nil, jerrf(line, "newline in string")
				}
				if src[i] == '\\' && i+1 < n {
					switch src[i+1] {
					case 'n':
						sb.WriteByte('\n')
					case 't':
						sb.WriteByte('\t')
					case 'r':
						sb.WriteByte('\r')
					case '0':
						sb.WriteByte(0)
					default:
						sb.WriteByte(src[i+1])
					}
					i += 2
					continue
				}
				sb.WriteByte(src[i])
				i++
			}
			if i >= n {
				return nil, jerrf(line, "unterminated string")
			}
			i++
			toks = append(toks, token{kind: tStr, str: sb.String(), line: line})
		case isJSIdentStart(c):
			start := i
			for i < n && isJSIdentCont(src[i]) {
				i++
			}
			text := src[start:i]
			k := tIdent
			if jsKeywords[text] {
				k = tKeyword
			}
			toks = append(toks, token{kind: k, text: text, line: line})
		default:
			matched := false
			for _, p := range []string{
				"===", "!==", ">>>", "==", "!=", "<=", ">=", "&&", "||",
				"<<", ">>", "+=", "-=", "*=", "/=", "%=", "++", "--",
			} {
				if strings.HasPrefix(src[i:], p) {
					toks = append(toks, token{kind: tPunct, text: p, line: line})
					i += len(p)
					matched = true
					break
				}
			}
			if matched {
				continue
			}
			if strings.ContainsRune("+-*/%<>=!&|^~(){}[];,.?:", rune(c)) {
				// Every open bracket's contents parse one level deeper,
				// so a source whose brackets nest past maxDepth fails
				// here, before its tokens are all allocated.
				switch c {
				case '(', '[', '{':
					if open++; open > maxDepth {
						return nil, jerrf(line, "nesting deeper than %d levels", maxDepth)
					}
				case ')', ']', '}':
					open = max(open-1, 0)
				}
				toks = append(toks, token{kind: tPunct, text: string(c), line: line})
				i++
				continue
			}
			return nil, jerrf(line, "unexpected character %q", c)
		}
	}
	toks = append(toks, token{kind: tEOF, line: line})
	return toks, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
func isJSIdentStart(c byte) bool {
	return c == '_' || c == '$' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isJSIdentCont(c byte) bool { return isJSIdentStart(c) || c >= '0' && c <= '9' }
