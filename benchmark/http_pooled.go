package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/httpd"
	"repro/internal/hypercall"
	"repro/internal/sched"
	"repro/internal/wasp"
)

// http_pooled: the paper's Fig 8/13 regime. The §6.3 file server runs
// one virtine per request with snapshotting off on a Wasp+CA runtime,
// so every request takes a pooled shell, boots the image, makes seven
// host interactions and hands the dirty shell to the async cleaner.
var httpPooled = &workload{
	name:  "http_pooled",
	why:   "tiny guest, ~7 hypercalls: sched dispatch, wasp pool/cleaner, image boot and hypercall dominate, cpu is small (Fig 8/13)",
	setup: setupHTTPPooled,
}

// httpFileSizes are the served files' base sizes. The §6.3 handler
// answers 404 above 7900 bytes, so the set stops short of it: every
// request must succeed.
var httpFileSizes = []int{64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 5120, 6144, 7680}

// httpVirtualRequests sizes the virtual pass: 160 samples lie beyond p99.
const httpVirtualRequests = 16_000

type httpInstance struct {
	seed     uint64
	sz       sizes
	w        *wasp.Wasp
	fs       *httpd.FileServer
	memBytes int // the handler image's shell size class
	paths    []string
	reqs     [][]byte
	files    map[string][]byte
	pick     *zipf

	guest guestAcc
}

func setupHTTPPooled(seed uint64, sz sizes, l *ledger) (instance, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	in := &httpInstance{seed: seed, sz: sz, files: map[string][]byte{}}
	for i, base := range httpFileSizes {
		// A few seeded bytes on top of each class size keep the classes
		// apart while giving every seed its own file set.
		data := make([]byte, base+rng.Intn(32))
		rng.Read(data)
		path := fmt.Sprintf("/f%02d.bin", i)
		in.paths = append(in.paths, path)
		in.reqs = append(in.reqs, httpd.Request(path))
		in.files[path] = data
	}
	// Small files are the popular ones, as on a static site.
	in.pick = newZipf(len(in.paths), 1.0)

	in.w = wasp.New(wasp.WithAsyncClean(true))
	t0 := time.Now()
	fs, err := httpd.NewFileServer(in.w, in.files)
	if err != nil {
		return nil, err
	}
	l.set("vcc.compile_ns", float64(time.Since(t0)))
	fs.Snapshot = false
	in.fs = fs

	// The first request boots cold and fills the decoded-code registry;
	// the shell it leaves behind names the handler's size class, which
	// the file server otherwise keeps private. Prewarm that class for the
	// real workers and the virtual fleet.
	if _, err := in.serve(0); err != nil {
		return nil, err
	}
	c := in.w.Cleaner()
	c.SetDriven(true)
	c.Drain()
	for mb := guest.MinMemory; mb <= 1<<20 && in.memBytes == 0; mb += 4096 {
		if in.w.PoolSize(mb) > 0 {
			in.memBytes = mb
		}
	}
	c.SetDriven(false)
	if in.memBytes == 0 {
		return nil, fmt.Errorf("http_pooled: no pooled shell after a served request")
	}
	in.w.Prewarm(in.memBytes, realWidth()+virtualWorkers)
	return in, nil
}

// serve runs one request directly on the runtime (no scheduler) and
// checks it.
func (in *httpInstance) serve(file int) (*httpd.Response, error) {
	resp, err := in.fs.Serve(in.reqs[file], cycles.NewClock())
	return resp, in.verify(file, resp, err)
}

// verify is the output check: status 200 and a body equal to the file
// the request named.
func (in *httpInstance) verify(file int, resp *httpd.Response, err error) error {
	if err != nil {
		return err
	}
	want := in.files[in.paths[file]]
	if resp.Status != 200 || !bytes.Equal(resp.Body, want) {
		return fmt.Errorf("http_pooled: %s: status %d with %d body bytes, want 200 with %d", in.paths[file], resp.Status, len(resp.Body), len(want))
	}
	return nil
}

func (in *httpInstance) virtualPass(l *ledger) (vstats, error) {
	sc := sched.NewVirtual(in.w, virtualWorkers)
	defer sc.Close()
	rng := rand.New(rand.NewSource(int64(in.seed) + 1))
	n := httpVirtualRequests / in.sz.vscale
	lat := make([]uint64, 0, n)
	var failed uint64
	for i := 0; i < n; i++ {
		file := in.pick.draw(rng)
		t := in.fs.Submit(sc, in.reqs[file])
		res, _ := t.Wait()
		resp, err := httpd.ParseTicket(t)
		if in.verify(file, resp, err) != nil {
			failed++
			continue
		}
		in.guest.add(t.Start, res)
		lat = append(lat, t.Done-t.Arrival)
	}
	in.guest.reqs = uint64(len(lat))
	l.count(uint64(n), failed)
	l.set("sched.rejected", float64(sc.Rejected()))
	return vstatsOf(lat), conserved(sc)
}

func (in *httpInstance) realPass(p pass) (passStats, error) {
	sc := sched.New(in.w, p.clients)
	defer sc.Close()
	st := closedLoop(p, func(id int) clientFunc {
		rng := rand.New(rand.NewSource(int64(in.seed) + 100 + int64(id)))
		return func(req uint64, spans *spanBuf) error {
			file := in.pick.draw(rng)
			root := spans.begin("request", req, -1)
			sub := spans.begin("sched.submit", req, root)
			t := in.fs.Submit(sc, in.reqs[file])
			spans.end(sub)
			wait := spans.begin("sched.wait", req, root)
			resp, err := httpd.ParseTicket(t)
			spans.end(wait)
			spans.end(root)
			return in.verify(file, resp, err)
		}
	})
	sc.Close()
	return st, conserved(sc)
}

// probe measures what a request costs with and without the scheduler,
// the native baseline of Fig 13, the hypercall layer's host time, the
// cleaner and a cold create. The file server builds its RunConfig privately, so its
// handler cannot be wrapped from outside; instead each request's seven
// host interactions are replayed against hypercall.Env.Handle directly.
func (in *httpInstance) probe(tr *tracer, sz sizes, l *ledger) error {
	spans := tr.buf(probeTid)
	rng := rand.New(rand.NewSource(int64(in.seed) + 2))
	files := make([]int, sz.probeOps)
	for i := range files {
		files[i] = in.pick.draw(rng)
	}

	sc := sched.New(in.w, 1)
	defer sc.Close()
	var virtCycles, nativeCycles uint64
	err := probeOverhead(spans, sz.probeOps, l,
		func(i int) error {
			resp, err := httpd.ParseTicket(in.fs.Submit(sc, in.reqs[files[i]]))
			return in.verify(files[i], resp, err)
		},
		func(i int) error {
			resp, err := in.serve(files[i])
			if err == nil {
				virtCycles += resp.Cycles
			}
			return err
		})
	if err != nil {
		return err
	}

	native := httpd.NewNativeFileServer(in.files)
	for _, file := range files {
		resp, err := native.Serve(in.reqs[file], cycles.NewClock())
		if err := in.verify(file, resp, err); err != nil {
			return fmt.Errorf("native baseline: %w", err)
		}
		nativeCycles += resp.Cycles
	}
	l.set("httpd.native_vcycles", float64(nativeCycles)/float64(sz.probeOps))
	l.set("httpd.slowdown_ratio", ratio(float64(virtCycles), float64(nativeCycles)))

	fs := hypercall.NewFS()
	for path, data := range in.files {
		fs.Put(path, data)
	}
	for i, file := range files {
		if err := in.replayHypercalls(spans, fs.Fork(), uint64(i), file); err != nil {
			return err
		}
	}
	if err := in.probeCleaner(sz, l); err != nil {
		return err
	}
	return probeVMM(in.memBytes, nil, sz, l)
}

// probeTid is the Chrome-trace thread the single-threaded probe phase
// records on, clear of the closed-loop clients' ids.
const probeTid = 1000

// flatMem is the guest-memory window of the hypercall replay; the probe
// supplies only in-range addresses.
type flatMem []byte

func (m flatMem) ReadGuest(addr uint64, n int) ([]byte, error) { return m[addr : addr+uint64(n)], nil }
func (m flatMem) WriteGuest(addr uint64, b []byte) error       { copy(m[addr:], b); return nil }

// replayHypercalls issues one request's host interactions — recv, stat,
// open, read, send, close, exit — against a request-private Env over a
// fork of the file set, one hypercall.handle span per call.
func (in *httpInstance) replayHypercalls(spans *spanBuf, fs *hypercall.FS, req uint64, file int) error {
	const pathAt, bufAt = 0, 256
	mem := make(flatMem, guest.MinMemory)
	copy(mem[pathAt:], in.paths[file]) // NUL-terminated by the zeroed window
	env := hypercall.NewEnv()
	env.FS = fs
	env.NetIn = in.reqs[file]
	want := in.files[in.paths[file]]
	seq := []hypercall.Args{
		{Nr: hypercall.NrRecv, A0: hypercall.SocketFD, A1: bufAt, A2: 511},
		{Nr: hypercall.NrStat, A0: pathAt},
		{Nr: hypercall.NrOpen, A0: pathAt},
		{Nr: hypercall.NrRead, A1: bufAt, A2: uint64(len(want))}, // A0: the opened fd
		{Nr: hypercall.NrSend, A0: hypercall.SocketFD, A1: bufAt, A2: uint64(len(want))},
		{Nr: hypercall.NrClose}, // A0: the opened fd
		{Nr: hypercall.NrExit, A0: 200},
	}
	root := spans.begin("hypercall.replay", req, -1)
	defer spans.end(root)
	var fd uint64
	for _, call := range seq {
		if call.Nr == hypercall.NrRead || call.Nr == hypercall.NrClose {
			call.A0 = fd
		}
		s := spans.begin("hypercall.handle", req, root)
		ret, err := env.Handle(call, mem)
		spans.end(s)
		if err != nil {
			return fmt.Errorf("hypercall replay: %s: %w", hypercall.Name(call.Nr), err)
		}
		if call.Nr == hypercall.NrOpen {
			fd = ret
		}
	}
	if !bytes.Equal(env.NetOut.Bytes(), want) || !env.Exited {
		return fmt.Errorf("hypercall replay: %s: wrong bytes on the socket", in.paths[file])
	}
	return nil
}

// probeCleaner takes the drain away from the cleaner's background
// goroutine, dirties shells in batches smaller than the warm pool (so
// no acquire reclaims inline), and times Drain.
func (in *httpInstance) probeCleaner(sz sizes, l *ledger) error {
	c := in.w.Cleaner()
	c.SetDriven(true)
	defer c.SetDriven(false)
	c.Drain()
	var shells int
	var ns time.Duration
	for done := 0; done < sz.probeOps; done += virtualWorkers {
		for i := 0; i < virtualWorkers; i++ {
			if _, err := in.serve(0); err != nil {
				return err
			}
		}
		t0 := time.Now()
		shells += c.Drain()
		ns += time.Since(t0)
	}
	l.set("wasp.clean_ns_per_shell", ratio(float64(ns), float64(shells)))
	return nil
}

func (in *httpInstance) finish(l *ledger) error {
	in.guest.record(l)
	recordRuntime(in.w, l)
	return nil
}
