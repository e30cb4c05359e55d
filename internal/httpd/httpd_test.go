package httpd

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sched"
	"repro/internal/vcc"
	"repro/internal/vmm"
	"repro/internal/wasp"
)

func TestEchoServer(t *testing.T) {
	w := wasp.New()
	env := hypercall.NewEnv()
	req := []byte("GET / HTTP/1.0\r\n\r\n")
	env.NetIn = append([]byte(nil), req...)
	res, err := w.Run(EchoImage(), wasp.RunConfig{
		Policy: EchoPolicy(),
		Env:    env,
	}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.NetOut, req) {
		t.Fatalf("echo = %q, want %q", res.NetOut, req)
	}
}

func TestEchoMilestonesOrdered(t *testing.T) {
	w := wasp.New()
	env := hypercall.NewEnv()
	env.NetIn = []byte("ping")
	res, err := w.Run(EchoImage(), wasp.RunConfig{Policy: EchoPolicy(), Env: env}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Marks) != 3 {
		t.Fatalf("marks = %d, want 3", len(res.Marks))
	}
	var entry, recvDone, sendDone uint64
	for _, m := range res.Marks {
		switch m.ID {
		case MarkMainEntry:
			entry = m.Cycle
		case MarkRecvDone:
			recvDone = m.Cycle
		case MarkSendDone:
			sendDone = m.Cycle
		}
	}
	if entry == 0 || recvDone <= entry || sendDone <= recvDone {
		t.Fatalf("milestones out of order: %d %d %d", entry, recvDone, sendDone)
	}
	// Fig 4's claim: main entry is reached in roughly 10K cycles
	// (protected-mode boot, no paging), and the full exchange stays
	// well under 1 ms (§4.2: sub-millisecond response latencies).
	if entry < 5_000 || entry > 25_000 {
		t.Fatalf("main entry at %d cycles, want ≈10K (Fig 4)", entry)
	}
	if ms := cycles.Millis(sendDone); ms >= 1.0 {
		t.Fatalf("response took %.2f ms, want <1ms", ms)
	}
}

func TestEchoDefaultDenyBlocksSockets(t *testing.T) {
	w := wasp.New()
	env := hypercall.NewEnv()
	env.NetIn = []byte("x")
	_, err := w.Run(EchoImage(), wasp.RunConfig{Env: env}, cycles.NewClock())
	if err == nil || !strings.Contains(err.Error(), "denied") {
		t.Fatalf("err = %v, want denial", err)
	}
}

func testFiles() map[string][]byte {
	return map[string][]byte{
		"/index.html": []byte("<html>hello virtines</html>"),
		"/big.bin":    bytes.Repeat([]byte("x"), 4096),
	}
}

func TestFileServerServes(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if string(resp.Body) != "<html>hello virtines</html>" {
		t.Fatalf("body = %q", resp.Body)
	}
	// §6.3: seven host interactions per request (recv, stat, open,
	// read, send, close, exit) plus the crt0 snapshot mechanism call.
	if resp.Exits != 8 {
		t.Fatalf("hypercall exits = %d, want 8", resp.Exits)
	}
	// With snapshotting on, later runs resume past the snapshot call
	// and make exactly the paper's seven.
	s.Snapshot = true
	if _, err := s.Serve(Request("/index.html"), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	warm, err := s.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if warm.Exits != 7 {
		t.Fatalf("warm hypercall exits = %d, want 7", warm.Exits)
	}
}

func TestFileServer404(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Serve(Request("/missing"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestFileServerLargeFile(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := s.Serve(Request("/big.bin"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) != 4096 {
		t.Fatalf("status=%d len=%d", resp.Status, len(resp.Body))
	}
}

func TestNativeMatchesVirtine(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	n := NewNativeFileServer(testFiles())
	vresp, err := s.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	nresp, err := n.Serve(Request("/index.html"), cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(vresp.Raw, nresp.Raw) {
		t.Fatalf("virtine and native responses differ:\n%q\n%q", vresp.Raw, nresp.Raw)
	}
}

func TestFig13Shape(t *testing.T) {
	// Structural claims of Fig 13: native is fastest; virtine without
	// snapshot is slowest; snapshotting recovers much of the gap but
	// host interactions keep it above native.
	files := testFiles()
	req := Request("/index.html")

	serve := func(snapshot bool) uint64 {
		w := wasp.New()
		s, err := NewFileServer(w, files)
		if err != nil {
			t.Fatal(err)
		}
		s.Snapshot = snapshot
		// Warm pool and snapshot.
		if _, err := s.Serve(req, cycles.NewClock()); err != nil {
			t.Fatal(err)
		}
		clk := cycles.NewClock()
		const N = 20
		for i := 0; i < N; i++ {
			if _, err := s.Serve(req, clk); err != nil {
				t.Fatal(err)
			}
		}
		return clk.Now() / N
	}
	nsrv := NewNativeFileServer(files)
	nclk := cycles.NewClock()
	const N = 20
	for i := 0; i < N; i++ {
		if _, err := nsrv.Serve(req, nclk); err != nil {
			t.Fatal(err)
		}
	}
	native := nclk.Now() / N
	virt := serve(false)
	snap := serve(true)

	if !(native < snap && snap < virt) {
		t.Fatalf("ordering wrong: native=%d snapshot=%d virtine=%d", native, snap, virt)
	}
	// Paper: a bit more than 2x latency increase for virtines vs native;
	// accept a 1.5-6x band.
	ratio := float64(virt) / float64(native)
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("virtine/native latency ratio = %.2f, want ≈2-3", ratio)
	}
}

func TestServeManyConcurrent(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	s.Snapshot = true
	// Deploy step: warm the snapshot so concurrent requests restore it.
	if _, err := s.Serve(Request("/index.html"), cycles.NewClock()); err != nil {
		t.Fatal(err)
	}
	const n = 40
	reqs := make([][]byte, n)
	for i := range reqs {
		if i%3 == 2 {
			reqs[i] = Request("/missing")
		} else {
			reqs[i] = Request("/index.html")
		}
	}
	resps, err := s.ServeMany(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, resp := range resps {
		want := 200
		if i%3 == 2 {
			want = 404
		}
		if resp.Status != want {
			t.Fatalf("request %d: status %d, want %d", i, resp.Status, want)
		}
		if want == 200 && string(resp.Body) != "<html>hello virtines</html>" {
			t.Fatalf("request %d: body %q", i, resp.Body)
		}
	}
}

func TestRequestParseRejectsGarbage(t *testing.T) {
	n := NewNativeFileServer(testFiles())
	if _, err := n.Serve([]byte("garbage"), cycles.NewClock()); err == nil {
		t.Fatal("garbage request accepted")
	}
	if _, err := parseResponse([]byte("junk"), 0, 0); err == nil {
		t.Fatal("junk response parsed")
	}
	if _, err := parseResponse([]byte("HTTP/1.0 xx"), 0, 0); err == nil {
		t.Fatal("bad status parsed")
	}
}

// TestFileServerFailedReadReturns500 is the regression test for the
// guest handler swallowing a failed read: a negative return from
// read() used to be added to the response length, sending a garbled
// partial 200. The handler must answer with a clean 500 instead.
func TestFileServerFailedReadReturns500(t *testing.T) {
	w := wasp.New()
	srv, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	env := srv.newEnv()
	env.NetIn = Request("/index.html")
	// Fail the guest's file read underneath an otherwise healthy host:
	// stat and open succeed, read reports -1 errno-style.
	failRead := hypercall.HandlerFunc(func(call hypercall.Args, mem hypercall.GuestMem) (uint64, error) {
		if call.Nr == hypercall.NrRead && call.A0 != hypercall.SocketFD {
			return ^uint64(0), nil
		}
		return env.Handle(call, mem)
	})
	res, err := w.Run(srv.image, wasp.RunConfig{
		Policy:   srv.policy,
		Env:      env,
		Handler:  failRead,
		Args:     vcc.MarshalArgs(0),
		RetBytes: vcc.RetSize,
	}, cycles.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := parseResponse(res.NetOut, res.Cycles, res.IOExits)
	if err != nil {
		t.Fatalf("failed read corrupted the response: %v", err)
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
	if len(resp.Body) != 0 {
		t.Fatalf("500 response carries a body: %q", resp.Body)
	}
	if bytes.Contains(res.NetOut, []byte("200 OK")) {
		t.Fatalf("partial 200 leaked into the wire bytes: %q", res.NetOut)
	}
}

// TestServeTenants drives the multi-tenant path: per-tenant image
// clones under one weighted-admission scheduler, every tenant's
// requests answered correctly and in order.
func TestServeTenants(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	s.Snapshot = true
	tenants := map[string][][]byte{}
	for _, name := range []string{"hot", "cold-a", "cold-b"} {
		n := 3
		if name == "hot" {
			n = 12
		}
		for i := 0; i < n; i++ {
			req := Request("/index.html")
			if i%3 == 2 {
				req = Request("/missing")
			}
			tenants[name] = append(tenants[name], req)
		}
	}
	out, err := s.ServeTenants(tenants, 4, &sched.Admission{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, reqs := range tenants {
		if len(out[name]) != len(reqs) {
			t.Fatalf("%s: %d responses for %d requests", name, len(out[name]), len(reqs))
		}
		for i, resp := range out[name] {
			if resp == nil {
				t.Fatalf("%s request %d: missing response", name, i)
			}
			want := 200
			if i%3 == 2 {
				want = 404
			}
			if resp.Status != want {
				t.Fatalf("%s request %d: status %d, want %d", name, i, resp.Status, want)
			}
		}
	}
}

// TestServeTenantsHardCapRejects: a tenant over its hard quota in
// RejectOverflow mode gets nil response slots, and the other tenants
// are unaffected.
func TestServeTenantsHardCapRejects(t *testing.T) {
	w := wasp.New()
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string][][]byte{}
	for i := 0; i < 24; i++ {
		tenants["hog"] = append(tenants["hog"], Request("/index.html"))
	}
	tenants["quiet"] = [][]byte{Request("/index.html")}
	out, err := s.ServeTenants(tenants, 2, &sched.Admission{MaxInFlight: 2, RejectOverflow: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out["quiet"][0] == nil || out["quiet"][0].Status != 200 {
		t.Fatalf("quiet tenant response = %+v", out["quiet"][0])
	}
	served, rejected := 0, 0
	for _, resp := range out["hog"] {
		if resp == nil {
			rejected++
		} else {
			served++
			if resp.Status != 200 {
				t.Fatalf("served hog response status %d", resp.Status)
			}
		}
	}
	if served == 0 {
		t.Fatal("hard cap served nothing for the hog tenant")
	}
	if rejected == 0 {
		t.Fatal("hard cap in reject mode rejected nothing despite a 24-deep burst over cap 2")
	}
}

// TestServeTenantsPlaced: on a runtime spanning KVM and Hyper-V, a
// Static placer pins tenants to opposite backends; both are answered
// correctly, shells never cross platforms (each backend's pool warms),
// and a tenant pinned outside the fleet comes back as nil slots.
func TestServeTenantsPlaced(t *testing.T) {
	w := wasp.New(wasp.WithPlatforms(vmm.KVM{}, vmm.HyperV{}))
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		t.Fatal(err)
	}
	tenants := map[string][][]byte{}
	for _, name := range []string{"on-kvm", "on-hv", "nowhere"} {
		for i := 0; i < 4; i++ {
			tenants[name] = append(tenants[name], Request("/index.html"))
		}
	}
	pl := placement.Static{Pins: map[string]string{
		s.image.Name + "@on-kvm":  "kvm",
		s.image.Name + "@on-hv":   "hyper-v",
		s.image.Name + "@nowhere": "xen",
	}}
	out, err := s.ServeTenants(tenants, 4, &sched.Admission{}, pl)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"on-kvm", "on-hv"} {
		for i, resp := range out[name] {
			if resp == nil || resp.Status != 200 {
				t.Fatalf("%s request %d: response %+v, want 200", name, i, resp)
			}
		}
	}
	for i, resp := range out["nowhere"] {
		if resp != nil {
			t.Fatalf("unplaceable tenant request %d got a response: %+v", i, resp)
		}
	}
	if kvm, hv := metric(w, "wasp_pool_shells{platform=kvm}"), metric(w, "wasp_pool_shells{platform=hyper-v}"); kvm == 0 || hv == 0 {
		t.Fatalf("both backends should hold warm shells after the split run (kvm=%v hv=%v)", kvm, hv)
	}
}

// BenchmarkColdBoot serves one request at a time on a Wasp+CA runtime
// with snapshotting off: http_pooled's request without the scheduler.
// Every request boots a fresh virtine; after the first, each replays the
// recorded boot stub up to its hand-off and executes the rest
// (replays/op).
func BenchmarkColdBoot(b *testing.B) {
	w := wasp.New(wasp.WithAsyncClean(true))
	s, err := NewFileServer(w, testFiles())
	if err != nil {
		b.Fatal(err)
	}
	s.Snapshot = false
	req := Request("/index.html")
	replays := func() float64 { return metric(w, "wasp_boot_replays{platform=kvm}") }
	if _, err := s.Serve(req, cycles.NewClock()); err != nil { // the recording boot
		b.Fatal(err)
	}
	before := replays()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Serve(req, cycles.NewClock())
		if err != nil || resp.Status != 200 {
			b.Fatalf("status %v, err %v", resp, err)
		}
	}
	b.ReportMetric((replays()-before)/float64(b.N), "replays/op")
}

// tenantHandlerC is a test copy of the benchmark harness's tenant handler
// (the tenant_restore and fork_storm workloads). A tenant's first run
// boots, builds a 1,024-byte tenant document, snapshots, then answers one
// request from the socket.
const tenantHandlerC = `
virtine_config(0xC0) int handle(int tenant) {
	char doc[1024];
	for (int i = 0; i < 1024; i++) { doc[i] = 'a' + (tenant + i) % 26; }
	__hc(8, 0, 0, 0);
	char req[32];
	int n = recv(3, req, 31);
	if (n < 1) { return -1; }
	req[n] = 0;
	int num = atoi(req);
	char *heap = (__image_end() + 4095) & ~4095;
	for (int i = 0; i < num / 1000000; i++) { heap[i * 4096] = 1; }
	send(3, doc + num % 1000, (num / 1000) % 1000);
	return tenant;
}
`

// BenchmarkTenantFirstRun times a fresh tenant's first run of that handler
// on a COW runtime (boot, document loop, capture) and the drop of its
// snapshot: the guest work that dominates a fork_storm lifecycle. Every op
// is a new tenant with a new argument; its boot replays the stub's
// recording, which holds no argument, so replays/op must read 1. A
// resident tenant makes the recording and keeps the image's base layer,
// as the workload's warm-up does.
func BenchmarkTenantFirstRun(b *testing.B) {
	v, err := vcc.CompileFunc(tenantHandlerC, "handle")
	if err != nil {
		b.Fatal(err)
	}
	w := wasp.New(wasp.WithCOW(true))
	run := func(id int, drop bool) uint64 {
		img := v.Image.WithName(fmt.Sprintf("%s@tenant-%d", v.Image.Name, id))
		env := hypercall.NewEnv()
		env.NetIn = []byte("128000") // the first 128 document bytes
		res, err := w.Run(img, wasp.RunConfig{
			Policy: v.Policy, Env: env, Args: vcc.MarshalArgs(int64(id)),
			RetBytes: vcc.RetSize, Snapshot: true,
		}, cycles.NewClock())
		if err != nil || vcc.UnmarshalRet(res.Ret) != int64(id) || len(res.NetOut) != 128 ||
			res.NetOut[0] != byte('a'+id%26) {
			b.Fatalf("tenant %d: result %+v, err %v", id, res, err)
		}
		if drop {
			w.DropSnapshot(img.Name)
		}
		return res.Retired
	}
	run(1<<30, false) // the resident tenant
	replays := func() float64 { return metric(w, "wasp_boot_replays{platform=kvm}") }
	before := replays()
	var instr uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instr += run(i, true)
	}
	b.StopTimer()
	perOp := (replays() - before) / float64(b.N)
	if perOp != 1 {
		b.Fatalf("%v replays per tenant boot, want 1", perOp)
	}
	b.ReportMetric(float64(instr)/float64(b.N), "instr/op")
	b.ReportMetric(perOp, "replays/op")
}

// metric reads one of the runtime's registry metrics.
func metric(w *wasp.Wasp, name string) float64 {
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// doublerAsm reads the argument word, doubles it into the return slot
// and exits.
const doublerAsm = `
	movi rbx, 0x0
	load rdi, [rbx]
	add rdi, rdi
	movi rbx, 0x4000
	store [rbx], rdi
	movi rdi, 0
	out 0x00, rdi
	hlt
`

// TestWaspCAMatchesWaspC replays one seeded virtual-mode sequence of file
// server requests (snapshots off: every request boots) and doubler
// virtines on a Wasp+C and a Wasp+CA runtime. The two pool and reuse
// shells alike and differ only in where a reused shell's zeroing is
// charged: each Result equals its twin in every field but Cycles once
// its clock readings are taken from the ticket's start, Cycles differs
// by exactly ZeroCost of the shell on each acquire of a used one (paid
// before the guest entry, so the readings shift by as much), and
// populating a shell rewrites as many pages in both.
func TestWaspCAMatchesWaspC(t *testing.T) {
	doubler := guest.MustFromAsm("doubler", guest.WrapLongMode(doublerAsm))
	paths := []string{"/index.html", "/big.bin", "/missing"}
	type run struct {
		res     *wasp.Result
		start   uint64
		mem     int
		http    bool
		reused  bool // a Wasp+CA acquire found a shell that had run
		written float64
	}
	play := func(opts ...wasp.Option) []run {
		w := wasp.New(opts...)
		s, err := NewFileServer(w, testFiles())
		if err != nil {
			t.Fatal(err)
		}
		s.Snapshot = false
		sc := sched.NewVirtual(w, 2)
		defer sc.Close()
		rng := rand.New(rand.NewSource(7))
		var out []run
		for i := 0; i < 48; i++ {
			r := run{http: rng.Intn(3) > 0}
			img, cfg := doubler, wasp.RunConfig{Args: vcc.MarshalArgs(int64(i)), RetBytes: 8}
			if r.http {
				img, cfg = s.image, s.runConfig(Request(paths[rng.Intn(len(paths))]))
			}
			// Wasp+C publishes no cleaner series: metric reads 0 there.
			cleaned := metric(w, "wasp_clean_cleaned{platform=kvm}")
			written := metric(w, "wasp_shell_pages_written{platform=kvm}")
			// Arrivals 1 ms apart: every ticket finds an idle fleet in
			// both runtimes, so their pools are sized alike.
			tk := sc.SubmitAt(uint64(i)*cycles.FromMicros(1000), img, cfg)
			if r.res, err = tk.Wait(); err != nil {
				t.Fatal(err)
			}
			r.start, r.mem = tk.Start, img.MemBytes()
			r.written = metric(w, "wasp_shell_pages_written{platform=kvm}") - written
			r.reused = metric(w, "wasp_clean_cleaned{platform=kvm}") > cleaned
			out = append(out, r)
		}
		return out
	}
	// rebased is r's Result with Cycles cleared and its clock readings
	// taken from the ticket's start plus shift.
	rebased := func(r run, shift uint64) wasp.Result {
		res := *r.res
		res.Cycles = 0
		res.GuestEntry -= r.start + shift
		for e, at := range res.BootEvents {
			if at != 0 {
				res.BootEvents[e] = at - r.start - shift
			}
		}
		return res
	}
	syncRuns, asyncRuns := play(), play(wasp.WithAsyncClean(true))
	var reused, requests int
	var pages [2]float64
	for i, c := range syncRuns {
		ca := asyncRuns[i]
		var zero uint64
		if ca.reused {
			zero = cycles.ZeroCost(ca.mem)
			reused++
		}
		if c.res.Cycles != ca.res.Cycles+zero {
			t.Fatalf("run %d: Wasp+C %d cycles, Wasp+CA %d + zeroing %d", i, c.res.Cycles, ca.res.Cycles, zero)
		}
		if c.written != ca.written {
			t.Fatalf("run %d: populate wrote %v pages under Wasp+C, %v under Wasp+CA", i, c.written, ca.written)
		}
		if a, b := rebased(c, zero), rebased(ca, 0); !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: results differ beyond Cycles:\nWasp+C  %+v\nWasp+CA %+v", i, a, b)
		}
		if c.http {
			requests++
			pages[0] += c.written
			pages[1] += ca.written
		}
	}
	if reused == 0 || reused == len(asyncRuns) {
		t.Fatalf("%d of %d acquires reused a shell: the sequence must mix cold and reused shells", reused, len(asyncRuns))
	}
	t.Logf("%d of %d acquires reused a shell; pages written per request: Wasp+C %.1f, Wasp+CA %.1f",
		reused, len(asyncRuns), pages[0]/float64(requests), pages[1]/float64(requests))
}
