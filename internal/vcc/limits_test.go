package vcc

import (
	"errors"
	"testing"
)

// TestOversizedGlobalIsACompileError: a global that would take the image
// past asm.MaxImage is reported at its line, before any byte of it is
// laid out; so is an array length that overflows the size arithmetic.
func TestOversizedGlobalIsACompileError(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"char g[50000000];\nvirtine int f(int n) { return g[n]; }", 1},
		{"int g[4000000000000000000];\nvirtine int f(int n) { return g[n]; }", 1},
		{"char g[0xFFFFFFFFFFFFFFFF];\nvirtine int f(int n) { return g[n]; }", 1},
		{"char a[10000000];\nchar g[10000000];\nvirtine int f(int n) { return a[n] + g[n]; }", 2},
	} {
		_, err := Compile(tc.src)
		var cerr *CompileError
		if !errors.As(err, &cerr) || cerr.Line != tc.line {
			t.Errorf("%q: got %v, want a CompileError at line %d", tc.src, err, tc.line)
		}
	}
	// Under the limit compiles.
	if _, err := Compile("char g[1000000];\nvirtine int f(int n) { return g[n]; }"); err != nil {
		t.Fatal(err)
	}
}
