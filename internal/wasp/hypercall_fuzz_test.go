package wasp

import (
	"bytes"
	"math/bits"
	"testing"

	"repro/internal/cycles"
	"repro/internal/hypercall"
	"repro/internal/vmm"
)

// maxIOChunk is the canned handlers' bound on one hypercall transfer
// (hypercall.maxIOChunk).
const maxIOChunk = 1 << 20

// FuzzHypercall drives one hypercall with an arbitrary number and six
// arbitrary arguments, and arbitrary socket and data-channel input,
// through the canned handlers (hypercall.Env.Handle) over a run's real
// guest-memory window: a 16 KiB context whose memory holds the path
// "/a.txt" near its start and again in its last seven bytes, beside a
// filesystem holding that file open as descriptor 4. Whatever the call:
//
//   - Handle never panics;
//   - every guest pointer is bounds-checked: a call whose buffer, or
//     whose path's first byte, lies outside guest memory fails, and a
//     failed call writes no guest memory;
//   - guest memory changes only on pages the context marks dirty, so
//     every write went through the window;
//   - NetOut, Stdout and DataOut grow by at most maxIOChunk;
//   - the run's clock only ever advances;
//   - open and stat of either path succeed, the one that ends at the
//     last byte of memory included.
func FuzzHypercall(f *testing.F) {
	const (
		size    = 16 << 10
		lowPath = 0x100
		endPath = size - 7 // "/a.txt\0" ends at the last byte
		buf     = 0x200
		fileFD  = 4
	)
	sock := uint64(hypercall.SocketFD)
	seed := func(nr uint8, a0, a1, a2 uint64, netIn, dataIn string) {
		f.Add(nr, a0, a1, a2, uint64(0), uint64(0), uint64(0), []byte(netIn), []byte(dataIn))
	}
	seed(hypercall.NrWrite, 1, buf, 5, "", "")
	seed(hypercall.NrWrite, 7, buf, 5, "", "")
	seed(hypercall.NrRecv, sock, buf, 16, "GET / HTTP/1.0", "")
	seed(hypercall.NrRead, sock, buf, 4, "req", "")
	seed(hypercall.NrSend, sock, buf, 8, "", "")
	seed(hypercall.NrSend, 9, buf, 8, "", "")
	seed(hypercall.NrOpen, lowPath, 0, 0, "", "")
	seed(hypercall.NrOpen, endPath, 0, 0, "", "")
	seed(hypercall.NrStat, endPath, 0, 0, "", "")
	seed(hypercall.NrStat, size-1, 0, 0, "", "")
	seed(hypercall.NrRead, fileFD, buf, 64, "", "")
	seed(hypercall.NrRead, 99, buf, 8, "", "")
	seed(hypercall.NrClose, fileFD, 0, 0, "", "")
	seed(hypercall.NrGetData, buf, 4, 0, "", "0123456789")
	seed(hypercall.NrReturnData, buf, 6, 0, "", "")
	seed(hypercall.NrExit, 3, 0, 0, "", "")
	seed(hypercall.NrSnapshot, 0, 0, 0, "", "")
	seed(hypercall.NrMark, 42, 0, 0, "", "")
	seed(0x7F, 0, 0, 0, "", "")
	seed(hypercall.NrWrite, 1, ^uint64(0)-8, 16, "", "") // the end wraps
	seed(hypercall.NrReturnData, size-4, 8, 0, "", "")
	f.Fuzz(func(t *testing.T, nr uint8, a0, a1, a2, a3, a4, a5 uint64, netIn, dataIn []byte) {
		clk := cycles.NewClock()
		ctx := vmm.CreateOn(vmm.KVM{}, size, cycles.NewClock())
		for i := range ctx.Mem {
			ctx.Mem[i] = byte(i*7 + 1)
		}
		copy(ctx.Mem[lowPath:], "/a.txt\x00")
		copy(ctx.Mem[endPath:], "/a.txt\x00")
		orig := bytes.Clone(ctx.Mem)
		gm := &guestMem{ctx: ctx, mem: ctx.Mem, clk: clk}

		env := hypercall.NewEnv()
		env.Clock = clk
		env.FS.Put("/a.txt", []byte("hello from the host filesystem"))
		if fd, err := env.FS.Open("/a.txt"); err != nil || fd != fileFD {
			t.Fatalf("open = %d, %v", fd, err)
		}
		env.NetIn, env.DataIn = netIn, dataIn

		call := hypercall.Args{Nr: nr, A0: a0, A1: a1, A2: a2, A3: a3, A4: a4, A5: a5}
		at := clk.Now()
		_, err := env.Handle(call, gm)

		if clk.Now() < at {
			t.Fatalf("%v moved the clock back from %d to %d", call, at, clk.Now())
		}
		if n := max(env.NetOut.Len(), env.Stdout.Len(), len(env.DataOut)); n > maxIOChunk {
			t.Fatalf("%v left %d bytes of output, more than one transfer", call, n)
		}
		for p := 0; p < size/vmm.PageSize; p++ {
			lo, hi := p*vmm.PageSize, (p+1)*vmm.PageSize
			if !ctx.CPU.PageDirty(p) && !bytes.Equal(ctx.Mem[lo:hi], orig[lo:hi]) {
				t.Fatalf("%v changed page %d without marking it dirty", call, p)
			}
		}
		if err != nil && !bytes.Equal(ctx.Mem, orig) {
			t.Fatalf("%v failed (%v) but wrote guest memory", call, err)
		}

		// The buffer a call addresses, when its arguments decide it: a
		// call whose buffer is outside guest memory must fail.
		inside := func(addr, n uint64) bool {
			end, carry := bits.Add64(addr, n, 0)
			return carry == 0 && end <= size
		}
		file := uint64(len("hello from the host filesystem"))
		addr, n, addressed := uint64(0), uint64(0), false
		switch {
		case nr == hypercall.NrWrite && a2 <= maxIOChunk,
			nr == hypercall.NrSend && a0 == sock && a2 <= maxIOChunk:
			addr, n, addressed = a1, a2, true
		case (nr == hypercall.NrRecv || nr == hypercall.NrRead) && a0 == sock && a2 <= maxIOChunk:
			addr, n, addressed = a1, min(a2, uint64(len(netIn))), true
		case nr == hypercall.NrRead && a0 == fileFD && a2 <= maxIOChunk:
			addr, n, addressed = a1, min(a2, file), true
		case nr == hypercall.NrGetData && min(a1, uint64(len(dataIn))) <= maxIOChunk:
			addr, n, addressed = a0, min(a1, uint64(len(dataIn))), true
		case nr == hypercall.NrReturnData && a1 <= maxIOChunk:
			addr, n, addressed = a0, a1, true
		case nr == hypercall.NrOpen || nr == hypercall.NrStat:
			addr, n, addressed = a0, 1, true // at least the terminator
		}
		if addressed && !inside(addr, n) && err == nil {
			t.Fatalf("%v addressed [%#x,+%d) outside %d bytes of guest memory and succeeded", call, addr, n, size)
		}
		if (nr == hypercall.NrOpen || nr == hypercall.NrStat) && (a0 == lowPath || a0 == endPath) && err != nil {
			t.Fatalf("%v of a terminated path failed: %v", call, err)
		}
	})
}
