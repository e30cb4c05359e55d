// Package core is the public face of the virtine library — the paper's
// primary contribution (§2) assembled from the substrates underneath:
//
//	core.Client     a virtine client: a program that embeds Wasp (§5.1)
//	core.Func       one virtine-annotated function, callable like a
//	                regular function but executing in its own micro-VM
//
// The quickstart mirrors Fig 9:
//
//	client := core.NewClient()
//	fns, _ := client.CompileC(`
//	    virtine int fib(int n) {
//	        if (n < 2) return n;
//	        return fib(n - 1) + fib(n - 2);
//	    }`)
//	fib := fns["fib"]
//	v, _, _ := fib.CallOn(cycles.NewClock(), 20) // runs in an isolated virtual context
//
// Each call advances the virtual clock its caller passes and returns the
// run's Result beside the value. Every invocation provisions (or reuses,
// §5.2) a hardware virtual context, marshals the arguments into the
// virtine's address space, executes the packaged image under the
// compiled hypercall policy, and returns the unmarshalled result.
package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/cycles"
	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/sched"
	"repro/internal/vcc"
	"repro/internal/wasp"
)

// Client embeds the Wasp runtime the way a host program links against
// libwasp. A single Client's pool, snapshot cache, and scheduler are
// shared by all of its Funcs.
type Client struct {
	W *wasp.Wasp

	// schedMu guards lazy scheduler creation and Close.
	schedMu sync.Mutex
	sched   *sched.Scheduler
	serials []*sched.Scheduler
	closed  bool
}

// NewClient returns a Client with the default Wasp configuration
// (pooling + snapshotting on, synchronous cleaning).
func NewClient(opts ...wasp.Option) *Client {
	return &Client{W: wasp.New(opts...)}
}

// Scheduler returns the client's dispatch substrate, creating it on
// first use: a bounded worker pool as wide as the host's parallelism,
// shared by every Func's asynchronous invocations.
func (c *Client) Scheduler() *sched.Scheduler {
	c.schedMu.Lock()
	defer c.schedMu.Unlock()
	if c.sched == nil {
		c.sched = sched.New(c.W, runtime.GOMAXPROCS(0))
		if c.closed {
			c.sched.Close() // Close already happened: hand out a closed scheduler
		}
	}
	return c.sched
}

// newSerial builds a width-1 scheduler — a serial execution lane for a
// Func whose invocations must not interleave (pinned Env) — and tracks
// it for Close.
func (c *Client) newSerial() *sched.Scheduler {
	s := sched.New(c.W, 1)
	c.schedMu.Lock()
	if c.closed {
		s.Close()
	}
	c.serials = append(c.serials, s)
	c.schedMu.Unlock()
	return s
}

// Close drains and stops the client's schedulers. The client remains
// usable for synchronous CallOns; asynchronous submissions — outstanding
// or later — fail with sched.ErrClosed. The closed schedulers stay in
// place so every Func observes the same closed state.
func (c *Client) Close() {
	c.schedMu.Lock()
	c.closed = true
	all := append([]*sched.Scheduler(nil), c.serials...)
	if c.sched != nil {
		all = append(all, c.sched)
	}
	c.schedMu.Unlock()
	for _, s := range all {
		s.Close()
	}
}

// CompileC compiles virtine-extended C source (§5.3) and returns one Func
// per virtine-annotated function.
func (c *Client) CompileC(src string) (map[string]*Func, error) {
	prog, err := vcc.Compile(src)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Func, len(prog.Virtines))
	for name, v := range prog.Virtines {
		out[name] = &Func{
			client:   c,
			Name:     name,
			Image:    v.Image,
			Policy:   v.Policy,
			NArgs:    len(v.Fn.Params),
			compiled: v,
			Snapshot: true, // language extensions snapshot by default (§5.3)
		}
	}
	return out, nil
}

// Func is a callable virtine function.
type Func struct {
	client *Client

	Name   string
	Image  *guest.Image
	Policy hypercall.Policy
	NArgs  int
	// compiled carries the vcc metadata for typed-argument checking
	// (nil for hand-built images).
	compiled *vcc.Virtine

	// Snapshot toggles the §5.2 snapshot fast path (the language
	// extensions enable it by default; "this can be disabled with the
	// use of an environment variable" — here, a field).
	Snapshot bool

	// Env optionally pins a host environment across calls (for
	// filesystem-backed virtines). When nil each call gets a fresh one.
	Env *hypercall.Env

	// envMu serializes runs that share the pinned Env: a hypercall
	// environment carries per-run socket and stream state, so two
	// in-flight invocations must not interleave on it. Funcs without a
	// pinned Env dispatch fully in parallel.
	envMu sync.Mutex

	// serial is the Func's width-1 scheduler lane, created on the first
	// asynchronous invocation with a pinned Env. Queuing those on a
	// dedicated lane (instead of the shared pool) keeps tickets that
	// must serialize anyway from occupying shared workers head-of-line.
	serialOnce sync.Once
	serial     *sched.Scheduler
}

// serialSched returns the Func's serial lane, creating it on first use.
func (f *Func) serialSched() *sched.Scheduler {
	f.serialOnce.Do(func() { f.serial = f.client.newSerial() })
	return f.serial
}

// CallOn invokes the virtine synchronously with int64 arguments — from
// the caller's perspective a normal function call (§2) — advancing the
// supplied clock, and returns the full run result alongside the
// unmarshalled return value.
func (f *Func) CallOn(clk *cycles.Clock, args ...int64) (int64, *wasp.Result, error) {
	if f.NArgs != 0 && len(args) != f.NArgs {
		return 0, nil, fmt.Errorf("core: %s wants %d args, got %d", f.Name, f.NArgs, len(args))
	}
	return f.callBlob(clk, vcc.MarshalArgs(args...))
}

// CallTyped invokes the virtine with typed Go arguments: integers bind to
// scalar parameters, strings and byte slices to char* parameters. The
// argument data is marshalled into the virtine's private address space
// (copy-restore semantics, §7.2) — the IDL-style interface of §2.
func (f *Func) CallTyped(clk *cycles.Clock, args ...any) (int64, *wasp.Result, error) {
	if f.compiled != nil {
		if err := f.compiled.CheckSignature(args...); err != nil {
			return 0, nil, err
		}
	}
	blob, err := vcc.MarshalTyped(args...)
	if err != nil {
		return 0, nil, err
	}
	return f.callBlob(clk, blob)
}

func (f *Func) callBlob(clk *cycles.Clock, blob []byte) (int64, *wasp.Result, error) {
	env := f.Env
	if env != nil {
		f.envMu.Lock()
		defer f.envMu.Unlock()
		env.ResetRun()
	}
	res, err := f.client.W.Run(f.Image, wasp.RunConfig{
		Policy:   f.Policy,
		Env:      env,
		Args:     blob,
		RetBytes: vcc.RetSize,
		Snapshot: f.Snapshot,
	}, clk)
	if err != nil {
		return 0, nil, err
	}
	return vcc.UnmarshalRet(res.Ret), res, nil
}
