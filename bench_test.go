// Package virtines_test holds the benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation, plus ablation
// benches for the design choices DESIGN.md calls out (pooling, cleaning
// strategy, snapshotting, TLB, hypercall count).
//
// Benchmarks report `vcycles/op` (virtual cycles per operation on the
// calibrated clock) and `vus/op` (virtual microseconds) — the metrics the
// paper reports — alongside Go's wall-clock ns/op for the simulator
// itself.
//
// Run with: go test -bench=. -benchmem
package virtines_test

import (
	"fmt"
	"testing"

	"repro/internal/aes"
	"repro/internal/cpu"
	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/httpd"
	"repro/internal/hypercall"
	"repro/internal/js"
	"repro/internal/sched"
	"repro/internal/serverless"
	"repro/internal/vcc"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

// report attaches the virtual-time metrics to b.
func report(b *testing.B, totalCycles uint64) {
	b.Helper()
	perOp := float64(totalCycles) / float64(b.N)
	b.ReportMetric(perOp, "vcycles/op")
	b.ReportMetric(cycles.Micros(uint64(perOp)), "vus/op")
}

// BenchmarkFig2ContextCreation regenerates Fig 2: lower bounds on
// execution-context creation.
func BenchmarkFig2ContextCreation(b *testing.B) {
	for _, base := range []vmm.Baseline{
		vmm.BaselineFunction, vmm.BaselinePthread, vmm.BaselineVMRun,
	} {
		b.Run(base.String(), func(b *testing.B) {
			noise := cycles.NewNoise(1)
			clk := cycles.NewClock()
			for i := 0; i < b.N; i++ {
				base.Measure(clk, noise, 1)
			}
			report(b, clk.Now())
		})
	}
	b.Run("KVM-create-hlt", func(b *testing.B) {
		img := guest.RealModeHalt()
		clk := cycles.NewClock()
		for i := 0; i < b.N; i++ {
			ctx := vmm.Create(img.MemBytes(), clk)
			if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
				b.Fatal(err)
			}
			if ex := ctx.Run(100); ex.Reason != cpu.ExitHalt {
				b.Fatalf("exit %+v", ex)
			}
		}
		report(b, clk.Now())
	})
}

// BenchmarkTable1BootBreakdown regenerates Table 1: the full minimal boot
// (real → protected → ident-map paging → long mode), reporting the
// dominant component as a metric.
func BenchmarkTable1BootBreakdown(b *testing.B) {
	w := wasp.New(wasp.WithPooling(false))
	img := guest.MinimalHalt()
	var total, ident uint64
	for i := 0; i < b.N; i++ {
		clk := cycles.NewClock()
		res, err := w.Run(img, wasp.RunConfig{}, clk)
		if err != nil {
			b.Fatal(err)
		}
		total += clk.Now()
		ident += res.BootEvents[cpu.EvCR3Load] - res.BootEvents[cpu.EvIdentMapStart]
	}
	report(b, total)
	b.ReportMetric(float64(ident)/float64(b.N), "identmap-vcycles/op")
}

// BenchmarkFig3ModeLatency regenerates Fig 3: fib(20) per processor mode.
func BenchmarkFig3ModeLatency(b *testing.B) {
	fib := func(n int) string {
		return `
	movi rdi, 20
	call f
	hlt
f:
	cmp rdi, 2
	jge r
	mov rax, rdi
	ret
r:
	push rdi
	sub rdi, 1
	call f
	pop rdi
	push rax
	sub rdi, 2
	call f
	pop rbx
	add rax, rbx
	ret
`
	}
	images := map[string]*guest.Image{
		"real16": guest.MustFromAsm("b16", ".bits 16\n.org 0x8000\n_start:\n"+fib(20)),
		"prot32": guest.MustFromAsm("b32", guest.WrapProtected(fib(20))),
		"long64": guest.MustFromAsm("b64x", guest.WrapLongMode(fib(20))),
	}
	for _, name := range []string{"real16", "prot32", "long64"} {
		img := images[name]
		b.Run(name, func(b *testing.B) {
			w := wasp.New()
			if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, wasp.RunConfig{}, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkFig4EchoMilestones regenerates Fig 4: one full echo exchange.
func BenchmarkFig4EchoMilestones(b *testing.B) {
	w := wasp.New()
	img := httpd.EchoImage()
	pol := httpd.EchoPolicy()
	req := []byte("GET / HTTP/1.0\r\n\r\n")
	var total uint64
	for i := 0; i < b.N; i++ {
		env := hypercall.NewEnv()
		env.NetIn = req
		clk := cycles.NewClock()
		if _, err := w.Run(img, wasp.RunConfig{Policy: pol, Env: env}, clk); err != nil {
			b.Fatal(err)
		}
		total += clk.Now()
	}
	report(b, total)
}

// BenchmarkFig8CreationLatency regenerates Fig 8's Wasp bars.
func BenchmarkFig8CreationLatency(b *testing.B) {
	img := guest.RealModeHalt()
	for _, mode := range []struct {
		name string
		opts []wasp.Option
	}{
		{"wasp-scratch", []wasp.Option{wasp.WithPooling(false)}},
		{"wasp+C", nil},
		{"wasp+CA", []wasp.Option{wasp.WithAsyncClean(true)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w := wasp.New(mode.opts...)
			if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, wasp.RunConfig{}, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkFig11FibScaling regenerates Fig 11 for representative n.
func BenchmarkFig11FibScaling(b *testing.B) {
	v, err := vcc.CompileFunc(`
virtine int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}`, "fib")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int64{0, 10, 20} {
		for _, snap := range []bool{false, true} {
			name := "fib"
			if snap {
				name += "+snapshot"
			}
			b.Run(benchName(name, n), func(b *testing.B) {
				w := wasp.New(wasp.WithSnapshotting(snap))
				cfg := wasp.RunConfig{
					Policy: v.Policy, Args: vcc.MarshalArgs(n),
					RetBytes: vcc.RetSize, Snapshot: snap,
				}
				if _, err := w.Run(v.Image, cfg, cycles.NewClock()); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				var total uint64
				for i := 0; i < b.N; i++ {
					clk := cycles.NewClock()
					if _, err := w.Run(v.Image, cfg, clk); err != nil {
						b.Fatal(err)
					}
					total += clk.Now()
				}
				report(b, total)
			})
		}
	}
}

func benchName(prefix string, n int64) string {
	return prefix + "/n=" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}

// BenchmarkFig12ImageSize regenerates Fig 12 at three sizes.
func BenchmarkFig12ImageSize(b *testing.B) {
	base := guest.MinimalHalt()
	for _, size := range []struct {
		name string
		pad  int
	}{{"64KB", 64 << 10}, {"1MB", 1 << 20}, {"16MB", 16 << 20}} {
		b.Run(size.name, func(b *testing.B) {
			w := wasp.New(wasp.WithAsyncClean(true))
			img := base.WithPad(size.pad)
			if _, err := w.Run(img, wasp.RunConfig{Snapshot: true}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, wasp.RunConfig{Snapshot: true}, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkFig13HTTPServer regenerates Fig 13.
func BenchmarkFig13HTTPServer(b *testing.B) {
	files := map[string][]byte{"/index.html": []byte("<html>bench</html>")}
	req := httpd.Request("/index.html")

	b.Run("native", func(b *testing.B) {
		srv := httpd.NewNativeFileServer(files)
		var total uint64
		for i := 0; i < b.N; i++ {
			clk := cycles.NewClock()
			if _, err := srv.Serve(req, clk); err != nil {
				b.Fatal(err)
			}
			total += clk.Now()
		}
		report(b, total)
	})
	for _, mode := range []struct {
		name string
		snap bool
	}{{"virtine", false}, {"virtine+snapshot", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w := wasp.New()
			srv, err := httpd.NewFileServer(w, files)
			if err != nil {
				b.Fatal(err)
			}
			srv.Snapshot = mode.snap
			if _, err := srv.Serve(req, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := srv.Serve(req, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkFig14JavaScript regenerates Fig 14's bars.
func BenchmarkFig14JavaScript(b *testing.B) {
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	b.Run("native", func(b *testing.B) {
		var total uint64
		for i := 0; i < b.N; i++ {
			clk := cycles.NewClock()
			if _, err := js.NativeEncode(data, clk); err != nil {
				b.Fatal(err)
			}
			total += clk.Now()
		}
		report(b, total)
	})
	for _, variant := range js.Fig14Variants {
		b.Run(variant.Name, func(b *testing.B) {
			w := wasp.New()
			vm := js.NewVirtineJS(w, variant.Snapshot, variant.NoTeardown)
			if _, err := vm.Encode(data, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := vm.Encode(data, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkFig15Serverless regenerates a short Fig 15 trace per op.
func BenchmarkFig15Serverless(b *testing.B) {
	w := wasp.New()
	pattern := serverless.DefaultPattern(8)
	for i := 0; i < b.N; i++ {
		trace, err := serverless.RunFig15(w, pattern, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		s := serverless.Summarize(trace)
		if i == 0 {
			b.ReportMetric(s.VespidMeanP50, "vespid-p50-ms")
			b.ReportMetric(s.WhiskMeanP50, "whisk-p50-ms")
		}
	}
}

// BenchmarkSec64OpenSSL regenerates the §6.4 speed numbers at 16KB.
func BenchmarkSec64OpenSSL(b *testing.B) {
	w := wasp.New()
	key := []byte("0123456789abcdef")
	iv := []byte("fedcba9876543210")
	src := make([]byte, 16384)
	b.Run("native", func(b *testing.B) {
		c, _ := aes.New(key)
		var total uint64
		for i := 0; i < b.N; i++ {
			clk := cycles.NewClock()
			if _, err := aes.NativeEncrypt(c, src, iv, clk); err != nil {
				b.Fatal(err)
			}
			total += clk.Now()
		}
		report(b, total)
	})
	b.Run("virtine", func(b *testing.B) {
		vc, err := aes.NewVirtineCipher(w, key, iv)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := vc.Encrypt(src, cycles.NewClock()); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var total uint64
		for i := 0; i < b.N; i++ {
			clk := cycles.NewClock()
			if _, err := vc.Encrypt(src, clk); err != nil {
				b.Fatal(err)
			}
			total += clk.Now()
		}
		report(b, total)
	})
}

// --- Ablation benches: the design choices DESIGN.md calls out. ---

// BenchmarkAblationPooling isolates the shell pool's contribution.
func BenchmarkAblationPooling(b *testing.B) {
	img := guest.RealModeHalt()
	for _, mode := range []struct {
		name    string
		pooling bool
	}{{"pool-on", true}, {"pool-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			w := wasp.New(wasp.WithPooling(mode.pooling))
			if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, wasp.RunConfig{}, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkAblationSnapshot isolates snapshotting for the vcc fib image.
func BenchmarkAblationSnapshot(b *testing.B) {
	v, err := vcc.CompileFunc(`
virtine int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }`, "fib")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		snap bool
	}{{"snapshot-on", true}, {"snapshot-off", false}} {
		b.Run(mode.name, func(b *testing.B) {
			w := wasp.New(wasp.WithSnapshotting(mode.snap))
			cfg := wasp.RunConfig{Policy: v.Policy, Args: vcc.MarshalArgs(1), RetBytes: vcc.RetSize, Snapshot: mode.snap}
			if _, err := w.Run(v.Image, cfg, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(v.Image, cfg, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkAblationCOWReset measures the copy-on-write reset (§7.2's
// anticipated optimization) against full snapshot restores for a 1 MB
// image: reset cost tracks dirtied pages, not image size.
func BenchmarkAblationCOWReset(b *testing.B) {
	src := guest.WrapLongMode(`
	out 0x08, rdi
	movi rbx, 0x6000
	load rax, [rbx]
	inc rax
	store [rbx], rax
	movi rdi, 0
	out 0x00, rdi
	hlt
`)
	for _, mode := range []struct {
		name string
		cow  bool
	}{{"full-restore", false}, {"cow-reset", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w := wasp.New(wasp.WithCOW(mode.cow), wasp.WithAsyncClean(true))
			img := guest.MustFromAsm("cow-bench", src).WithPad(1 << 20)
			cfg := wasp.RunConfig{Snapshot: true}
			for i := 0; i < 2; i++ {
				if _, err := w.Run(img, cfg, cycles.NewClock()); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, cfg, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkAblationTLB measures the MMU's translation cache: long-mode
// fib with and without the TLB.
func BenchmarkAblationTLB(b *testing.B) {
	img := guest.MustFromAsm("tlb-fib", guest.WrapLongMode(`
	movi rdi, 15
	call f
	hlt
f:
	cmp rdi, 2
	jge r
	mov rax, rdi
	ret
r:
	push rdi
	sub rdi, 1
	call f
	pop rdi
	push rax
	sub rdi, 2
	call f
	pop rbx
	add rax, rbx
	ret
`))
	for _, mode := range []struct {
		name  string
		noTLB bool
	}{{"tlb-on", false}, {"tlb-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				ctx := vmm.Create(img.MemBytes(), clk)
				if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
					b.Fatal(err)
				}
				ctx.CPU.NoTLB = mode.noTLB
				start := clk.Now()
				if ex := ctx.Run(10_000_000); ex.Reason != cpu.ExitHalt {
					b.Fatalf("exit %+v", ex)
				}
				total += clk.Now() - start
			}
			report(b, total)
		})
	}
}

// BenchmarkAblationHypercallCount shows the per-exit cost: a guest making
// k hypercalls.
func BenchmarkAblationHypercallCount(b *testing.B) {
	mk := func(k int) *guest.Image {
		body := ""
		for i := 0; i < k; i++ {
			body += "\tmovi rdi, 1\n\tout 0x0B, rdi\n"
		}
		return guest.MustFromAsm(benchName("hc", int64(k)), guest.WrapLongMode(body+"\thlt\n"))
	}
	for _, k := range []int{0, 1, 8} {
		img := mk(k)
		b.Run(benchName("calls", int64(k)), func(b *testing.B) {
			w := wasp.New()
			if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, wasp.RunConfig{}, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkSimulator measures the raw simulator: interpreted guest
// instructions per second (wall clock), useful for sizing experiments.
func BenchmarkSimulator(b *testing.B) {
	img := guest.MustFromAsm("sim", guest.WrapLongMode(`
	movi rcx, 10000
l:
	dec rcx
	jnz l
	hlt
`))
	ctx := vmm.Create(img.MemBytes(), cycles.NewClock())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.Load(img.Code, img.Origin, img.Entry, img.Mode); err != nil {
			b.Fatal(err)
		}
		if ex := ctx.Run(10_000_000); ex.Reason != cpu.ExitHalt {
			b.Fatalf("exit %+v", ex)
		}
	}
	b.ReportMetric(float64(ctx.CPU.Retired), "instructions")
}

// BenchmarkSchedulerSaturation drives concurrent Run calls through the
// unified scheduler at increasing worker counts. The pooled, snapshotted
// runtime state is shared by all workers, so this is the contention
// benchmark for the sharded shell pools: wall-clock ns/op must not
// degrade as workers are added (a single runtime-wide mutex would make
// it collapse), and vmakespan/op — the virtual-time cost of the
// schedule — shrinks with the pool width.
func BenchmarkSchedulerSaturation(b *testing.B) {
	body := `
	movi rcx, 2000
sl:
	dec rcx
	jnz sl
	movi rdi, 0
	out 0x00, rdi
	hlt
`
	for _, workers := range []int{1, 2, 4, 8} {
		img := guest.MustFromAsm(benchName("satfib", int64(workers)), guest.WrapLongMode(body))
		b.Run(benchName("workers", int64(workers)), func(b *testing.B) {
			w := wasp.New()
			s := sched.New(w, workers)
			defer s.Close()
			// Warm the shell pool directly so steady state is measured
			// without polluting the scheduler's worker clocks or counts.
			if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			tickets := make([]*sched.Ticket, b.N)
			for i := range tickets {
				tickets[i] = s.Submit(img, wasp.RunConfig{})
			}
			if err := sched.WaitAll(tickets...); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(cycles.Micros(s.Makespan())/float64(b.N), "vmakespan-us/op")
			b.ReportMetric(float64(s.Completed()), "completed")
		})
	}
}

// BenchmarkSubmitBatch isolates the scheduler's submission-path
// overhead: a burst of B trivial tasks submitted one Submit at a time
// (B lock acquisitions, B ticket allocations, B wakes) versus one
// SubmitBatch (one lock acquisition, one ticket slab, one wake). The
// timed region is the submission only — service runs untimed between
// iterations — so ns/op divided by the burst size is the per-ticket
// dispatch overhead; batch must come out measurably lower at bursts
// >= 64.
func BenchmarkSubmitBatch(b *testing.B) {
	task := func(clk *cycles.Clock) (*wasp.Result, error) { return nil, nil }
	for _, burst := range []int{64, 256} {
		for _, mode := range []string{"single", "batch"} {
			b.Run(fmt.Sprintf("%s/burst=%d", mode, burst), func(b *testing.B) {
				w := wasp.New()
				s := sched.New(w, 4, sched.WithQueueCap(4*burst))
				defer s.Close()
				reqs := make([]sched.Request, burst)
				for j := range reqs {
					reqs[j] = sched.Request{Fn: task}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var tickets []*sched.Ticket
					if mode == "batch" {
						tickets = s.SubmitBatch(reqs)
					} else {
						tickets = make([]*sched.Ticket, burst)
						for j := range tickets {
							tickets[j] = s.SubmitFn(task)
						}
					}
					b.StopTimer()
					if err := sched.WaitAll(tickets...); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/ticket")
			})
		}
	}
}

// BenchmarkWaspCARelease isolates the release-path win of true async
// cleaning (Fig 8): under Wasp+C a reused shell pays its zeroing on the
// measured path (at the next acquire); under Wasp+CA that cost is the
// cleaner's and no ZeroCost ever lands on the run clock. vcycles/op must
// come out lower for wasp+CA.
func BenchmarkWaspCARelease(b *testing.B) {
	img := guest.MinimalHalt()
	for _, mode := range []struct {
		name string
		opts []wasp.Option
	}{
		{"wasp+C", nil},
		{"wasp+CA", []wasp.Option{wasp.WithAsyncClean(true)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			w := wasp.New(mode.opts...)
			if _, err := w.Run(img, wasp.RunConfig{}, cycles.NewClock()); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				clk := cycles.NewClock()
				if _, err := w.Run(img, wasp.RunConfig{}, clk); err != nil {
					b.Fatal(err)
				}
				total += clk.Now()
			}
			report(b, total)
		})
	}
}

// BenchmarkHypercallAllocs measures host-side allocations on the
// hypercall data path: a guest making 8 write() hypercalls (each a
// guestMem.ReadGuest of the payload) plus an 8-byte Result.Ret copy-out.
// The scratch-buffer ReadGuest and the inline Ret buffer keep allocs/op
// flat in the number of hypercalls; before those changes every ReadGuest
// and every copy-out allocated (see BENCH_interp.json for the recorded
// before/after counts).
func BenchmarkHypercallAllocs(b *testing.B) {
	body := ""
	for i := 0; i < 8; i++ {
		body += "\tmovi rdi, 1\n\tmovi rsi, 0x8000\n\tmovi rdx, 64\n\tout 0x01, rax\n"
	}
	body += "\tmovi rdi, 0\n\tout 0x00, rdi\n\thlt\n"
	img := guest.MustFromAsm("hc-allocs", guest.WrapLongMode(body))
	w := wasp.New()
	cfg := wasp.RunConfig{
		Policy:   hypercall.MaskOf(hypercall.NrWrite),
		RetBytes: 8,
	}
	mk := func() wasp.RunConfig {
		c := cfg
		c.Env = hypercall.NewEnv()
		return c
	}
	if _, err := w.Run(img, mk(), cycles.NewClock()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Run(img, mk(), cycles.NewClock()); err != nil {
			b.Fatal(err)
		}
	}
}
