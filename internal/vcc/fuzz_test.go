package vcc

import (
	"bytes"
	"testing"

	"repro/internal/asm"
)

// FuzzCompile feeds arbitrary C source, up to 4 KiB, to the compiler with
// the optimizer on and off: it compiles or returns an error, never
// panics, and every virtine it accepts has a listing that the
// assembler's text front end turns back into exactly the image's code,
// origin and entry — the typed path and the text path agree. The guest
// never runs. Seeds: the pinned programs and the differential sources.
func FuzzCompile(f *testing.F) {
	for _, p := range pinnedSources {
		f.Add(p.src)
	}
	for _, srcs := range differentialSources() {
		for _, src := range srcs {
			f.Add(src)
		}
	}
	f.Add(`char msg[16] = 0; int n = 3 * 4; virtine_permissive int f(int a) { puts("a;b,c\"d\n"); return a / n; }`)
	f.Add(`char big[50000000]; virtine int f(int a) { return big[a]; }`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4<<10 {
			return
		}
		for _, opt := range []bool{true, false} {
			prog, err := CompileWithOptions(src, Options{Optimize: opt})
			if err != nil {
				continue
			}
			for name, v := range prog.Virtines {
				p, err := asm.Assemble(v.Asm)
				if err != nil {
					t.Fatalf("%s (optimize %v): listing does not assemble: %v", name, opt, err)
				}
				if !bytes.Equal(p.Code, v.Image.Code) || p.Origin != v.Image.Origin || p.Entry != v.Image.Entry {
					t.Fatalf("%s (optimize %v): listing assembles to %d bytes at %#x (entry %#x), the image is %d bytes at %#x (entry %#x)",
						name, opt, len(p.Code), p.Origin, p.Entry, len(v.Image.Code), v.Image.Origin, v.Image.Entry)
				}
			}
		}
	})
}
