package httpd

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"repro/internal/asm"
	"repro/internal/vcc"
)

// The vcc handlers this package compiles: the file server and the test
// copy of the benchmark's tenant handler.
var handlerSources = []struct{ name, src string }{
	{"fileServer", fileServerC},
	{"tenantHandler", tenantHandlerC},
}

// TestHandlerImagePins pins each handler's image with the optimizer on
// and off: the image name (which embeds the CRC-32 of its code) and the
// CRC-32 of its Asm listing, which must reassemble through the text
// front end to exactly the image's code, origin and entry. vcc pins its
// own test programs the same way (TestImagePins there).
func TestHandlerImagePins(t *testing.T) {
	pins := map[string]string{
		// Filled from the commit before vcc built typed statements.
		"fileServer/opt=true":     "virtine-handle-bc99ab5a 465c01a3",
		"fileServer/opt=false":    "virtine-handle-7692d196 dae7aa8b",
		"tenantHandler/opt=true":  "virtine-handle-9dda89d4 ed374d0d",
		"tenantHandler/opt=false": "virtine-handle-ce2a8fee 314c3310",
	}
	for _, h := range handlerSources {
		for _, opt := range []bool{true, false} {
			key := fmt.Sprintf("%s/opt=%v", h.name, opt)
			prog, err := vcc.CompileWithOptions(h.src, vcc.Options{Optimize: opt})
			if err != nil {
				t.Fatal(err)
			}
			v := prog.Virtines["handle"]
			p, err := asm.Assemble(v.Asm)
			if err != nil {
				t.Fatalf("%s: listing does not assemble: %v", key, err)
			}
			if !bytes.Equal(p.Code, v.Image.Code) || p.Origin != v.Image.Origin || p.Entry != v.Image.Entry {
				t.Fatalf("%s: listing does not reassemble to the image", key)
			}
			got := fmt.Sprintf("%s %08x", v.Image.Name, crc32.ChecksumIEEE([]byte(v.Asm)))
			if got != pins[key] {
				t.Errorf("%q: %q,", key, got)
			}
		}
	}
}

// TestCompileAllocs gates the file server's compile (parse, codegen,
// peephole, layout, encoding and the Asm listing) at its allocation
// count. The count repeats exactly from run to run; under the race
// detector it reads higher, so the gate is skipped there.
func TestCompileAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const limit = 1208
	n := testing.AllocsPerRun(20, func() {
		if _, err := vcc.CompileFunc(fileServerC, "handle"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per file-server compile", n)
	if n > limit {
		t.Fatalf("a file-server compile makes %v allocations, want at most %d", n, limit)
	}
}

// BenchmarkCompile times one vcc compile of each handler, from C source
// to a packaged image and its listing.
func BenchmarkCompile(b *testing.B) {
	for _, h := range handlerSources {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := vcc.CompileFunc(h.src, "handle"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
