package sched

import (
	"bytes"
	"testing"

	"repro/internal/guest"
	"repro/internal/hypercall"
	"repro/internal/wasp"
)

// tenantShapedAsm is a warm tenant's request in miniature: it captures
// its snapshot on the first run, and every later run restores there,
// receives a request on the socket, sends it back and exits.
const tenantShapedAsm = `
	out 0x08, rdi        ; snapshot(): later runs restore here
	movi rdi, 3
	movi rsi, 0x5000
	movi rdx, 64
	out 0x07, rax        ; recv(3, heap, 64)
	mov rdx, rax
	movi rdi, 3
	movi rsi, 0x5000
	out 0x06, rax        ; send(3, heap, n)
	movi rdi, 0
	out 0x00, rdi        ; exit(0)
	hlt
`

// TestRealSubmitWaitAllocs: a warm restored request submitted to a
// real-mode scheduler and waited for makes at most six allocations, the
// caller's NewEnv inside the measured function, with and without
// admission weights: the ticket's one allocation (ticket, config and
// the one-element list the core takes), beside wasp.Run's five (NewEnv's
// two; the Result, the NetOut growth and its copy). A per-ticket channel,
// a ticket slice or an admission queue regrown after draining shows up
// here.
func TestRealSubmitWaitAllocs(t *testing.T) {
	img := guest.MustFromAsm("tenant-shaped", guest.WrapLongMode(tenantShapedAsm))
	req := []byte("GET /tenant")
	for _, c := range []struct {
		name string
		opts []Option
	}{
		{"fifo", nil},
		{"weighted", []Option{WithAdmission(Admission{Weights: map[string]int{img.Name: 2}})}},
	} {
		s := New(wasp.New(), 1, c.opts...)
		run := func() {
			env := hypercall.NewEnv()
			env.NetIn = req
			res, err := s.Submit(img, wasp.RunConfig{
				Policy:   hypercall.MaskOf(hypercall.NrSend, hypercall.NrRecv),
				Env:      env,
				Snapshot: true,
				RetBytes: 8,
			}).Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.NetOut, req) {
				t.Fatalf("sent %q, want %q", res.NetOut, req)
			}
		}
		run() // capture
		run() // the first restore decodes nothing new
		n := testing.AllocsPerRun(50, run)
		s.Close()
		t.Logf("%s: %v allocations", c.name, n)
		if n > 6 {
			t.Errorf("%s: a warm restored Submit(...).Wait() makes %v allocations, want at most 6", c.name, n)
		}
	}
}
