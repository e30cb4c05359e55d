package httpd

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hypercall"
	"repro/internal/vcc"
	"repro/internal/wasp"
)

// TestCodeCacheStatsPins pins the compiled tier's counters over a fresh
// file server's first four requests, and over a tenant handler's first
// run and one restored run: which traces are compiled, how often they are
// entered and how often they stop early. The values are also those of a
// trace compiler that compiles every step of a loop afresh instead of
// repeating its period, which must not change any of them.
func TestCodeCacheStatsPins(t *testing.T) {
	type stats struct{ compiled, hits, deopts uint64 }
	read := func(w *wasp.Wasp) stats {
		cs := w.CodeCacheStats()
		return stats{cs.BlocksCompiled, cs.BlockHits, cs.BlockDeopts}
	}
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		path string
		want stats
	}{
		{"/index.html", stats{58, 197, 1}},
		{"/big.bin", stats{60, 308, 1}},
		{"/missing", stats{63, 349, 1}},
		{"/index.html", stats{63, 462, 1}},
	} {
		if _, err := s.Serve(Request(tc.path), cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		if got := read(w); got != tc.want {
			t.Errorf("file server request %d (%s): %+v, want %+v", i+1, tc.path, got, tc.want)
		}
	}

	v, err := vcc.CompileFunc(tenantHandlerC, "handle")
	if err != nil {
		t.Fatal(err)
	}
	w = wasp.New(wasp.WithCOW(true))
	img := v.Image.WithName(v.Image.Name + "@tenant-7")
	for i, want := range []stats{{30, 1163, 1}, {30, 1188, 1}} {
		env := hypercall.NewEnv()
		env.NetIn = []byte("128000")
		res, err := w.Run(img, wasp.RunConfig{
			Policy: v.Policy, Env: env, Args: vcc.MarshalArgs(7),
			RetBytes: vcc.RetSize, Snapshot: true,
		}, cycles.NewClock())
		if err != nil {
			t.Fatal(err)
		}
		if res.SnapshotUsed != (i == 1) {
			t.Fatalf("tenant run %d: snapshot used %v", i, res.SnapshotUsed)
		}
		if got := read(w); got != want {
			t.Errorf("tenant run %d: %+v, want %+v", i, got, want)
		}
	}
}

// firstServe builds a fresh runtime and file server, then serves one
// request: the image's first, which compiles every trace it runs.
func firstServe(tb testing.TB, before func()) {
	s, err := NewFileServer(wasp.New(), testFiles())
	if err != nil {
		tb.Fatal(err)
	}
	req, clk := Request("/index.html"), cycles.NewClock()
	before()
	if resp, err := s.Serve(req, clk); err != nil || resp.Status != 200 {
		tb.Fatalf("status %v, err %v", resp, err)
	}
}

// TestFirstServeAllocs gates a fresh image's first request through
// FileServer.Serve at the allocations it makes now (the compile of the
// server itself not counted). Compiling a trace makes two of them, its
// cblock and its step array. The gate reads the median of ten runs: one
// or two of them may carry an allocation of the Go runtime's own.
func TestFirstServeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const limit, runs = 311, 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	counts := make([]uint64, runs)
	for i := range counts {
		firstServe(t, func() {
			runtime.ReadMemStats(&ms)
			counts[i] = -ms.Mallocs
		})
		runtime.ReadMemStats(&ms)
		counts[i] += ms.Mallocs
	}
	slices.Sort(counts)
	n := counts[runs/2]
	t.Logf("%d allocations per first request (median of %v)", n, counts)
	if n > limit {
		t.Fatalf("a fresh image's first request makes %d allocations, want at most %d", n, limit)
	}
}

// BenchmarkFirstServe times a fresh image's first request; the runtime
// and server it runs on are built outside the timer.
func BenchmarkFirstServe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		firstServe(b, b.StartTimer)
	}
}
