// Package httpd provides the HTTP workloads of the evaluation: the
// protected-mode echo server whose startup milestones Fig 4 measures, the
// static-file server handled per-request in a virtine (Fig 13, §6.3), and
// the native baseline both are compared against.
//
// The paper's echo server is ~160 lines of hand-written assembly plus a
// small C runtime, booting to protected mode (no paging) and using
// hypercall-based I/O; ours is the same shape in VX assembly. The
// static-file server is the §6.3 workload: a connection-handling function
// annotated with the virtine keyword, making exactly seven host
// interactions per request: recv, stat, open, read, send, close, exit.
package httpd

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/sched"
	"repro/internal/vcc"
	"repro/internal/wasp"
)

// Milestone IDs the echo server marks (Fig 4).
const (
	MarkMainEntry = 1
	MarkRecvDone  = 2
	MarkSendDone  = 3
)

// EchoImage builds the protected-mode echo server: boot 16→32 (no
// paging, §4.2), mark main entry, recv the request, mark, send it back,
// mark, exit.
func EchoImage() *guest.Image {
	return guest.MustFromAsm("echo-server", guest.WrapProtected(`
	movi rdi, 1
	out 0x0B, rdi        ; mark: reached C code (main entry)
	movi rdi, 3
	movi rsi, echo_buf
	movi rdx, 4096
	out 0x07, rdi        ; recv(sock, buf, cap)
	mov rcx, rax
	movi rdi, 2
	out 0x0B, rdi        ; mark: request received
	movi rdi, 3
	movi rsi, echo_buf
	mov rdx, rcx
	out 0x06, rdi        ; send(sock, buf, n)
	movi rdi, 3
	out 0x0B, rdi        ; mark: response sent
	movi rdi, 0
	out 0x00, rdi        ; exit
	hlt
.align 8
echo_buf:
	.zero 4096
`))
}

// EchoPolicy permits exactly the echo server's socket calls.
func EchoPolicy() hypercall.Policy {
	return hypercall.MaskOf(hypercall.NrRecv, hypercall.NrSend)
}

// fileServerC is the §6.3 connection handler, written in the virtine C
// dialect. The virtine_config mask admits the six socket/file hypercalls;
// exit is a mechanism. Request format: "GET <path> HTTP/1.0\r\n...".
const fileServerC = `
virtine_config(0xFC) int handle(int unused) {
	char req[512];
	int n = recv(3, req, 511);                 /* (1) read request    */
	if (n < 5) { return -1; }
	req[n] = 0;

	/* parse "GET /path ..." */
	char path[128];
	int i = 0;
	while (req[i] && req[i] != ' ') { i++; }
	while (req[i] == ' ') { i++; }
	int j = 0;
	while (req[i] && req[i] != ' ' && j < 127) { path[j] = req[i]; i++; j++; }
	path[j] = 0;

	int size = stat_size(path);                /* (2) stat file       */
	char resp[8192];
	int rn = 0;
	if (size < 0 || size > 7900) {
		char *nf = "HTTP/1.0 404 Not Found\r\n\r\n";
		send(3, nf, strlen(nf));
		return 404;
	}
	int fd = open(path);                       /* (3) open file       */

	/* build "HTTP/1.0 200 OK\r\nContent-Length: N\r\n\r\n" + body */
	char *hdr = "HTTP/1.0 200 OK\r\nContent-Length: ";
	int hl = strlen(hdr);
	memcpy(resp, hdr, hl);
	rn = hl;
	char num[24];
	int nl = itoa(size, num);
	memcpy(resp + rn, num, nl);
	rn += nl;
	memcpy(resp + rn, "\r\n\r\n", 4);
	rn += 4;
	int m = read(fd, resp + rn, size);         /* (4) read file       */
	if (m < 0) {
		/* a failed host read must not reach the response: rn would
		   absorb the negative count and send() would leak garbage */
		close(fd);
		char *er = "HTTP/1.0 500 Internal Server Error\r\n\r\n";
		send(3, er, strlen(er));
		return 500;
	}
	rn += m;

	send(3, resp, rn);                         /* (5) write response  */
	close(fd);                                 /* (6) close file      */
	return 200;                                /* (7) exit            */
}
`

// FileServer is the virtine-backed static HTTP server of Fig 13.
type FileServer struct {
	W      *wasp.Wasp
	Env    *hypercall.Env
	fs     *hypercall.FS // static file set, forked per request
	image  *guest.Image
	policy hypercall.Policy

	// Snapshot toggles the §5.2 optimization ("virtine" vs "snapshot"
	// series in Fig 13).
	Snapshot bool
}

// NewFileServer compiles the handler and installs the given files into
// the server's filesystem, which keeps their bytes (hypercall.FS.Put): the
// caller must not modify them afterwards.
func NewFileServer(w *wasp.Wasp, files map[string][]byte) (*FileServer, error) {
	v, err := vcc.CompileFunc(fileServerC, "handle")
	if err != nil {
		return nil, err
	}
	fs := hypercall.NewFS()
	for path, data := range files {
		fs.Put(path, data)
	}
	s := &FileServer{
		W:      w,
		fs:     fs,
		image:  v.Image,
		policy: v.Policy,
	}
	s.Env = s.newEnv()
	return s, nil
}

// newEnv builds a request-private host environment over the server's
// file set. Concurrent requests must not share an Env — it carries the
// per-run socket and stream state — but they do share the static file
// contents: each env gets an O(1) fork of the server filesystem rather
// than a rebuilt copy.
func (s *FileServer) newEnv() *hypercall.Env {
	env := hypercall.NewEnv()
	env.FS = s.fs.Fork()
	return env
}

// Response is one served HTTP exchange.
type Response struct {
	Raw    []byte
	Status int
	Body   []byte
	Cycles uint64 // service time for this request
	Exits  uint64
}

// Serve handles one HTTP request in a fresh virtine, advancing clk by the
// full service time.
func (s *FileServer) Serve(req []byte, clk *cycles.Clock) (*Response, error) {
	s.Env.ResetRun()
	s.Env.NetIn = append([]byte(nil), req...)
	res, err := s.W.Run(s.image, wasp.RunConfig{
		Policy:   s.policy,
		Env:      s.Env,
		Args:     vcc.MarshalArgs(0),
		RetBytes: vcc.RetSize,
		Snapshot: s.Snapshot,
	}, clk)
	if err != nil {
		return nil, err
	}
	return parseResponse(res.NetOut, res.Cycles, res.IOExits)
}

// Submit dispatches one request through a scheduler — the concurrent
// request path. Each request runs in a fresh virtine against a
// request-private environment, so tickets on different workers proceed
// fully in parallel. The returned ticket's result carries the raw
// exchange; parse it with ParseTicket.
func (s *FileServer) Submit(sc *sched.Scheduler, req []byte) *sched.Ticket {
	return sc.Submit(s.image, s.runConfig(req))
}

// runConfig builds one request's RunConfig over a request-private
// environment.
func (s *FileServer) runConfig(req []byte) wasp.RunConfig {
	env := s.newEnv()
	env.NetIn = append([]byte(nil), req...)
	return wasp.RunConfig{
		Policy:   s.policy,
		Env:      env,
		Args:     vcc.MarshalArgs(0),
		RetBytes: vcc.RetSize,
		Snapshot: s.Snapshot,
	}
}

// ParseTicket waits for a submitted request and parses its response.
func ParseTicket(t *sched.Ticket) (*Response, error) {
	res, err := t.Wait()
	if err != nil {
		return nil, err
	}
	return parseResponse(res.NetOut, res.Cycles, res.IOExits)
}

// ServeTenants is the multi-tenant request path: each tenant's requests
// run against a tenant-private clone of the handler image (its own
// snapshot, shell telemetry, and admission identity), all dispatched
// through one scheduler as a single batch under the given admission
// policy. With soft weights a hot tenant's burst cannot starve the
// others of workers; with MaxQueued a tenant's requests beyond its
// queue bound are shed — those slots come back nil in the tenant's
// response slice (every other error aborts). Responses are returned per
// tenant, in each tenant's request order.
//
// When the server's runtime spans several hypervisor backends
// (wasp.WithPlatforms), the workers are spread round-robin across them,
// and any worker serves any tenant on its own backend.
func (s *FileServer) ServeTenants(tenants map[string][][]byte, workers int, adm *sched.Admission) (map[string][]*Response, error) {
	var opts []sched.Option
	if adm != nil {
		opts = append(opts, sched.WithAdmission(*adm))
	}
	platforms := s.W.Platforms()
	if len(platforms) > 1 {
		opts = append(opts, sched.WithWorkerPlatforms(platforms...))
	}
	sc := sched.New(s.W, workers, opts...)
	defer sc.Close()

	names := make([]string, 0, len(tenants))
	total := 0
	for name, reqs := range tenants {
		names = append(names, name)
		total += len(reqs)
	}
	sort.Strings(names)
	need := workers
	if total < need {
		need = total
	}
	// Prewarm every backend's pool for its share of the fleet: shells
	// never cross platforms, so each backend warms its own.
	for i, p := range platforms {
		share := (need + len(platforms) - 1 - i) / len(platforms)
		if share > 0 {
			s.W.PrewarmOn(p.Name(), s.image.MemBytes(), share)
		}
	}

	type slot struct {
		tenant string
		idx    int
	}
	batch := make([]sched.Request, 0, total)
	slots := make([]slot, 0, total)
	for _, name := range names {
		img := s.image.WithName(s.image.Name + "@" + name)
		for i, req := range tenants[name] {
			batch = append(batch, sched.Request{Img: img, Cfg: s.runConfig(req)})
			slots = append(slots, slot{name, i})
		}
	}
	tickets := sc.SubmitBatch(batch)

	out := make(map[string][]*Response, len(tenants))
	for name, reqs := range tenants {
		out[name] = make([]*Response, len(reqs))
	}
	for i, t := range tickets {
		resp, err := ParseTicket(t)
		if err != nil {
			if errors.Is(err, sched.ErrAdmission) {
				continue // shed: slot stays nil
			}
			return nil, err
		}
		out[slots[i].tenant][slots[i].idx] = resp
	}
	return out, nil
}

// NativeFileServer is the baseline: the same handler logic running as a
// host function against the same environment, paying syscall costs
// instead of hypercall exits.
type NativeFileServer struct {
	Env *hypercall.Env
}

// NewNativeFileServer installs files into a fresh environment, which
// keeps their bytes as NewFileServer's does.
func NewNativeFileServer(files map[string][]byte) *NativeFileServer {
	env := hypercall.NewEnv()
	for path, data := range files {
		env.FS.Put(path, data)
	}
	return &NativeFileServer{Env: env}
}

// Serve handles one request natively. The same seven host interactions
// happen, but each costs a syscall rather than a doubly-expensive VM exit
// (§6.3), and there is no context provisioning.
func (s *NativeFileServer) Serve(req []byte, clk *cycles.Clock) (*Response, error) {
	start := clk.Now()
	env := s.Env
	env.ResetRun()
	env.NetIn = append([]byte(nil), req...)

	clk.Advance(cycles.NetSyscall) // recv through the host network stack
	clk.Advance(cycles.MemcpyCost(len(req)))
	line := string(req)
	clk.Advance(uint64(2 * len(line))) // request parse, ~2 cycles/byte
	parts := strings.Fields(line)
	if len(parts) < 2 {
		return nil, fmt.Errorf("httpd: bad request")
	}
	path := parts[1]

	clk.Advance(cycles.FileSyscall) // stat
	size, err := env.FS.Stat(path)
	if err != nil {
		clk.Advance(cycles.NetSyscall) // send 404
		out := []byte("HTTP/1.0 404 Not Found\r\n\r\n")
		return parseResponse(out, clk.Now()-start, 0)
	}
	clk.Advance(cycles.FileSyscall) // open
	fd, err := env.FS.Open(path)
	if err != nil {
		return nil, err
	}
	clk.Advance(cycles.FileSyscall) // read
	body, err := env.FS.Read(fd, size)
	if err != nil {
		return nil, err
	}
	clk.Advance(cycles.MemcpyCost(size))
	var resp bytes.Buffer
	fmt.Fprintf(&resp, "HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n", size)
	resp.Write(body)
	clk.Advance(cycles.MemcpyCost(resp.Len()))
	clk.Advance(cycles.NetSyscall)  // send
	clk.Advance(cycles.FileSyscall) // close
	if err := env.FS.Close(fd); err != nil {
		return nil, err
	}
	return parseResponse(resp.Bytes(), clk.Now()-start, 0)
}

// parseResponse validates and splits a raw HTTP response. The bytes are
// the guest's, so it fails closed: the response opens with "HTTP/1.0 ",
// then exactly three ASCII digits from 100 to 599 and a space. The body
// is everything after the first blank line, nil when there is none.
func parseResponse(raw []byte, cyc, exits uint64) (*Response, error) {
	rest, ok := bytes.CutPrefix(raw, []byte("HTTP/1.0 "))
	if !ok {
		return nil, fmt.Errorf("httpd: malformed response %q", raw[:min(len(raw), 40)])
	}
	if len(rest) < 4 || rest[3] != ' ' {
		return nil, fmt.Errorf("httpd: malformed status line")
	}
	status := 0
	for _, c := range rest[:3] {
		if c < '0' || c > '9' {
			return nil, fmt.Errorf("httpd: bad status %q", rest[:3])
		}
		status = status*10 + int(c-'0')
	}
	if status < 100 || status > 599 {
		return nil, fmt.Errorf("httpd: bad status %d", status)
	}
	_, body, _ := bytes.Cut(raw, []byte("\r\n\r\n"))
	return &Response{Raw: raw, Status: status, Body: body, Cycles: cyc, Exits: exits}, nil
}

// Request builds a GET request for path.
func Request(path string) []byte {
	return []byte("GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n")
}
