package asm_test

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/guest"
	"repro/internal/vcc"
)

// FuzzAssemble feeds arbitrary text to the text front end: it assembles
// or returns an *asm.Error, never panics, and never lays out more than
// MaxImage bytes. Seeds: the boot stubs, a vcc listing and directive
// edge cases.
func FuzzAssemble(f *testing.F) {
	f.Add(guest.WrapLongMode("\thlt\n"))
	f.Add(guest.WrapProtected("\tout 1, rdi\n\thlt\n"))
	f.Add(".bits 16\n.org 0x8000\n_start:\n\thlt\n")
	f.Add(".bits 64\n.equ MAGIC, 0xAB\ndata:\n.db 1, 2, MAGIC\n.db \"hi;,\"\n.dw 0x1234\n.dd data+4\n.dq data-1\n.zero 3\n.align 8\n.word 7\n")
	f.Add(".bits 32\n\tmov eax, [ebx+8]\n\tstore [esp-4], eax\n\tljmp64 x\nx: shl rax, 3\n\tin rax, 2\n\tmovcr cr4, rax\n")
	f.Add(".align\n.zero -1\n")
	if prog, err := vcc.Compile(`int g; virtine int f(int n) { g = n; puts("a,b;c"); return n * 2; }`); err == nil {
		f.Add(prog.Virtines["f"].Asm)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := asm.Assemble(src)
		if err != nil {
			var aerr *asm.Error
			if !errors.As(err, &aerr) {
				t.Fatalf("error %T is not an *asm.Error: %v", err, err)
			}
			return
		}
		if len(p.Code) > asm.MaxImage {
			t.Fatalf("%d bytes laid out, past MaxImage", len(p.Code))
		}
	})
}
