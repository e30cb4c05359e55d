package asm

import (
	"errors"
	"fmt"
	"testing"
)

// TestFailsClosed: a directive without its operand, a negative count and
// a program past MaxImage are each an *Error, never a panic or a huge
// allocation.
func TestFailsClosed(t *testing.T) {
	cases := []struct{ name, src string }{
		{".align without operand", ".bits 64\n.align\n"},
		{".Align without operand", ".bits 64\n.Align\n"},
		{".zero without operand", ".bits 64\n.zero\n"},
		{".zero negative", ".bits 64\n.zero -1\n"},
		{".align negative", ".bits 64\n.align -8\n"},
		{".zero past the limit", fmt.Sprintf(".bits 64\n.zero %d\n", MaxImage+1)},
		{".zero at the limit, then a byte", fmt.Sprintf(".bits 64\n.zero %d\n.db 1\n", MaxImage)},
		{"two .zero past the limit", fmt.Sprintf(".bits 64\n.zero %d\n.zero %d\n", MaxImage/2, MaxImage/2+1)},
		{".align past the limit", ".bits 64\n.db 1\n.align 0x4000000\n"},
		{".zero of a symbol", ".bits 64\n.equ N, 4\n.zero N\n"},
		{"too many operands", ".bits 64\n\tmov rax, rbx, rcx\n"},
		{"empty operand", ".bits 64\n\tmov rax,\n"},
		{"unclosed memory operand", ".bits 64\n\tload rax, [rbx\n"},
		{"bad .equ name", ".bits 64\n.equ 10, 5\n"},
	}
	for _, tc := range cases {
		_, err := Assemble(tc.src)
		var aerr *Error
		if !errors.As(err, &aerr) {
			t.Errorf("%s: got %v, want an *asm.Error", tc.name, err)
		}
	}

	// Typed statements meet the same checks.
	for _, s := range []Stmt{
		{Kind: Zero, Args: [2]Arg{Imm(-1)}},
		{Kind: Zero, Args: [2]Arg{Imm(MaxImage + 1)}},
		{Kind: Zero},
		{Kind: Align, Args: [2]Arg{Sym("eight")}},
	} {
		u := NewUnit()
		u.Add(s)
		var aerr *Error
		if _, err := u.Assemble(); !errors.As(err, &aerr) {
			t.Errorf("%+v: got %v, want an *asm.Error", s, err)
		}
	}

	// The limit itself is reachable.
	p, err := Assemble(fmt.Sprintf(".bits 64\n.zero %d\n", MaxImage))
	if err != nil || len(p.Code) != MaxImage {
		t.Fatalf("a program of exactly MaxImage bytes: %v", err)
	}
}

// TestStringLiteralsKeepSeparators: a ';' or ',' inside a .db string is
// part of the string, not a comment or an operand break.
func TestStringLiteralsKeepSeparators(t *testing.T) {
	p, err := Assemble(".bits 64\n.db \"a;b,c\\\"d[\", 0 ; trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(p.Code), "a;b,c\"d[\x00"; got != want {
		t.Fatalf("code %q, want %q", got, want)
	}
}

// TestListingRoundTrip: the listing of typed statements parses back to
// the same statements and the same bytes.
func TestListingRoundTrip(t *testing.T) {
	stmts := []Stmt{
		{Label: "top"},
		Ins(0),
		{Kind: Align, Args: [2]Arg{Imm(8)}},
		{Label: "data"},
		{Kind: DQ, Args: [2]Arg{Imm(-5)}},
		{Kind: Zero, Args: [2]Arg{Imm(3)}},
		{Kind: DB, Args: [2]Arg{Str("x;y, \"z\"\n"), Imm(0)}},
	}
	for _, text := range []string{
		"movi rax, -7", "mov rbx, rax", "add rsp, 16", "sub rax, 8", "cmp rax, 0",
		"load rax, [rbp-8]", "loadb rbx, [rbp+16]", "store [rbx], rax", "load rax, [rbx+0]",
		"jz top", "call data", "out 8, rdi", "push rax", "ret", "movi rax, data+8",
		"ljmp64 top", "movcr cr0, rax", "rdcr rax, efer", "shl rax, 3",
	} {
		u := NewUnit()
		if err := u.Parse(".bits 64\n" + text); err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		stmts = append(stmts, u.Stmts()...)
	}
	listing := Listing(stmts)
	u := NewUnit()
	if err := u.Parse(".bits 64\n" + listing); err != nil {
		t.Fatalf("listing does not parse: %v\n%s", err, listing)
	}
	if again := Listing(u.Stmts()); again != listing {
		t.Fatalf("listing changed on a round trip:\n%s\nthen\n%s", listing, again)
	}
	typed := NewUnit()
	typed.Parse(".bits 64")
	typed.Add(stmts...)
	want, err := typed.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	got, err := u.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Code) != string(want.Code) {
		t.Fatalf("listing assembles to\n% x\nstatements to\n% x", got.Code, want.Code)
	}
}
