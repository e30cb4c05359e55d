package hypercall

import (
	"bytes"
	"fmt"

	"repro/internal/cycles"
)

// Mark is one milestone recorded by the NrMark hypercall (Fig 4's echo
// server milestones are recorded this way).
type Mark struct {
	ID    uint64
	Cycle uint64
}

// Env is the host environment one virtine execution sees: an in-memory
// filesystem, a single virtual socket (the "connection" handed to the
// echo/HTTP servers), the §6.5 data channel, and milestone marks. Wasp
// resets the per-run pieces between executions; the FS persists the way
// the host filesystem does.
type Env struct {
	FS *FS

	// Virtual socket (descriptor 3): NetIn is drained by recv, NetOut
	// accumulates send. One connection per run, like the paper's
	// handler-per-connection servers.
	NetIn  []byte
	NetOut bytes.Buffer

	// §6.5 data channel: get_data fills the guest buffer from DataIn;
	// return_data copies the guest buffer to DataOut.
	DataIn  []byte
	DataOut []byte

	// Std stream capture (write to fds 1/2).
	Stdout bytes.Buffer

	// ExitCode from NrExit; Exited marks that the guest called exit.
	ExitCode uint64
	Exited   bool

	// SnapshotRequested is latched by NrSnapshot; Wasp consumes it.
	SnapshotRequested bool

	// Marks are milestone timestamps, read from Clock.
	Marks []Mark

	// Clock is the clock of the run the environment serves, set by the
	// VMM when the run starts: marks read it, and the host-side service
	// work a handled call re-creates (kernel syscalls, §6.3) is charged
	// on it. With a nil Clock marks read 0 and nothing is charged.
	Clock *cycles.Clock
}

// NewEnv returns an environment with an empty filesystem. It makes two
// allocations, the Env and its FS; the FS's maps come with its first
// file or descriptor.
func NewEnv() *Env { return &Env{FS: NewFS()} }

// ResetRun clears per-execution state (socket, data channel, exit, marks)
// while keeping the filesystem.
func (e *Env) ResetRun() {
	e.NetIn = nil
	e.NetOut.Reset()
	e.DataIn = nil
	e.DataOut = nil
	e.Stdout.Reset()
	e.ExitCode = 0
	e.Exited = false
	e.SnapshotRequested = false
	e.Marks = nil
}

// SocketFD is the descriptor of the per-run virtual socket.
const SocketFD = 3

// maxIOChunk bounds a single hypercall transfer, like a host kernel would.
const maxIOChunk = 1 << 20

// Handle implements the canned general-purpose handlers Wasp provides
// out of the box (§5.1): POSIX-mirroring file and socket calls, the data
// channel, and instrumentation. Argument validation happens here — the
// handler assumes inputs are hostile (§3.2) and bounds-checks every guest
// pointer through GuestMem.
func (e *Env) Handle(call Args, mem GuestMem) (uint64, error) {
	e.chargeHostWork(call.Nr)
	switch call.Nr {
	case NrExit:
		e.ExitCode = call.A0
		e.Exited = true
		return 0, nil

	case NrWrite:
		fd, buf, n := call.A0, call.A1, call.A2
		if n > maxIOChunk {
			return 0, fmt.Errorf("write: length %d exceeds limit", n)
		}
		b, err := mem.ReadGuest(buf, int(n))
		if err != nil {
			return 0, fmt.Errorf("write: %w", err)
		}
		switch fd {
		case 1, 2:
			e.Stdout.Write(b)
			return n, nil
		case SocketFD:
			e.NetOut.Write(b)
			return n, nil
		}
		return 0, fmt.Errorf("write: bad fd %d", fd)

	case NrRead:
		fd, buf, n := call.A0, call.A1, call.A2
		if n > maxIOChunk {
			return 0, fmt.Errorf("read: length %d exceeds limit", n)
		}
		if fd == SocketFD {
			return e.recv(buf, n, mem)
		}
		data, err := e.FS.Read(int(fd), int(n))
		if err != nil {
			return ^uint64(0), nil // -1: bad descriptor / failed read (errno-style, like open/stat)
		}
		if err := mem.WriteGuest(buf, data); err != nil {
			return 0, fmt.Errorf("read: %w", err)
		}
		return uint64(len(data)), nil

	case NrOpen:
		path, err := ReadCString(mem, call.A0, 4096)
		if err != nil {
			return 0, fmt.Errorf("open: %w", err)
		}
		fd, err := e.FS.Open(path)
		if err != nil {
			return ^uint64(0), nil // -1: no such file
		}
		return uint64(fd), nil

	case NrClose:
		if call.A0 == SocketFD {
			return 0, nil // per-run socket closes with the run
		}
		if err := e.FS.Close(int(call.A0)); err != nil {
			return 0, err
		}
		return 0, nil

	case NrStat:
		path, err := ReadCString(mem, call.A0, 4096)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		size, err := e.FS.Stat(path)
		if err != nil {
			return ^uint64(0), nil // -1: no such file (errno-style)
		}
		return uint64(size), nil

	case NrSend:
		if call.A0 != SocketFD {
			return 0, fmt.Errorf("send: bad socket %d", call.A0)
		}
		if call.A2 > maxIOChunk {
			return 0, fmt.Errorf("send: length %d exceeds limit", call.A2)
		}
		b, err := mem.ReadGuest(call.A1, int(call.A2))
		if err != nil {
			return 0, fmt.Errorf("send: %w", err)
		}
		e.NetOut.Write(b)
		return call.A2, nil

	case NrRecv:
		if call.A0 != SocketFD {
			return 0, fmt.Errorf("recv: bad socket %d", call.A0)
		}
		return e.recv(call.A1, call.A2, mem)

	case NrSnapshot:
		e.SnapshotRequested = true
		return 0, nil

	case NrGetData:
		n := uint64(len(e.DataIn))
		if call.A1 < n {
			n = call.A1
		}
		if n > maxIOChunk {
			return 0, fmt.Errorf("get_data: length %d exceeds limit", n)
		}
		if err := mem.WriteGuest(call.A0, e.DataIn[:n]); err != nil {
			return 0, fmt.Errorf("get_data: %w", err)
		}
		return n, nil

	case NrReturnData:
		if call.A1 > maxIOChunk {
			return 0, fmt.Errorf("return_data: length %d exceeds limit", call.A1)
		}
		b, err := mem.ReadGuest(call.A0, int(call.A1))
		if err != nil {
			return 0, fmt.Errorf("return_data: %w", err)
		}
		e.DataOut = append([]byte(nil), b...)
		return call.A1, nil

	case NrMark:
		var now uint64
		if e.Clock != nil {
			now = e.Clock.Now()
		}
		e.Marks = append(e.Marks, Mark{ID: call.A0, Cycle: now})
		return 0, nil
	}
	return 0, fmt.Errorf("hypercall: unknown number %#x", call.Nr)
}

// chargeHostWork accounts the host-kernel work a serviced hypercall
// re-creates: socket ops traverse the network stack, file ops hit the
// page cache (§6.3).
func (e *Env) chargeHostWork(nr uint8) {
	if e.Clock == nil {
		return
	}
	switch nr {
	case NrSend, NrRecv:
		e.Clock.Advance(cycles.NetSyscall)
	case NrOpen, NrClose, NrStat, NrRead, NrWrite:
		e.Clock.Advance(cycles.FileSyscall)
	}
}

func (e *Env) recv(buf, n uint64, mem GuestMem) (uint64, error) {
	if n > maxIOChunk {
		return 0, fmt.Errorf("recv: length %d exceeds limit", n)
	}
	m := uint64(len(e.NetIn))
	if n < m {
		m = n
	}
	if err := mem.WriteGuest(buf, e.NetIn[:m]); err != nil {
		return 0, fmt.Errorf("recv: %w", err)
	}
	e.NetIn = e.NetIn[m:]
	return m, nil
}
