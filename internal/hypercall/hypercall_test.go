package hypercall

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cycles"
)

// fakeMem is an in-test GuestMem.
type fakeMem struct{ b []byte }

func (m *fakeMem) ReadGuest(addr uint64, n int) ([]byte, error) {
	if n < 0 || addr+uint64(n) > uint64(len(m.b)) {
		return nil, errOOB
	}
	out := make([]byte, n)
	copy(out, m.b[addr:])
	return out, nil
}

func (m *fakeMem) WriteGuest(addr uint64, b []byte) error {
	if addr+uint64(len(b)) > uint64(len(m.b)) {
		return errOOB
	}
	copy(m.b[addr:], b)
	return nil
}

var errOOB = &oobError{}

type oobError struct{}

func (*oobError) Error() string { return "out of bounds" }

func newMem(n int) *fakeMem { return &fakeMem{b: make([]byte, n)} }

func TestPolicyDenyAllAndAllowAll(t *testing.T) {
	if (DenyAll{}).Allow(NrWrite) {
		t.Fatal("deny-all allowed write")
	}
	if !(AllowAll{}).Allow(NrWrite) {
		t.Fatal("allow-all denied write")
	}
	if (DenyAll{}).String() != "deny-all" || (AllowAll{}).String() != "allow-all" {
		t.Fatal("policy names wrong")
	}
}

func TestMaskPolicy(t *testing.T) {
	m := MaskOf(NrRead, NrWrite)
	if !m.Allow(NrRead) || !m.Allow(NrWrite) {
		t.Fatal("mask denied configured calls")
	}
	if m.Allow(NrOpen) || m.Allow(NrSend) {
		t.Fatal("mask allowed unconfigured calls")
	}
}

func TestMaskProperty(t *testing.T) {
	f := func(nrs []uint8) bool {
		var valid []uint8
		for _, nr := range nrs {
			valid = append(valid, nr%NumHypercalls)
		}
		m := MaskOf(valid...)
		for _, nr := range valid {
			if !m.Allow(nr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOneShot(t *testing.T) {
	o := NewOneShot(AllowAll{}, NrGetData)
	if !o.Allow(NrGetData) {
		t.Fatal("first use denied")
	}
	if o.Allow(NrGetData) {
		t.Fatal("second use allowed")
	}
	if !o.Allow(NrReturnData) {
		t.Fatal("non-one-shot call denied")
	}
	if !(NewOneShot(DenyAll{}, NrGetData)).Allow(NrExit) == false {
		t.Fatal("one-shot must respect inner policy")
	}
}

func TestNames(t *testing.T) {
	if Name(NrExit) != "exit" || Name(NrSnapshot) != "snapshot" {
		t.Fatal("names wrong")
	}
	if !strings.Contains(Name(0xEE), "hc?") {
		t.Fatal("unknown name should be marked")
	}
	a := Args{Nr: NrWrite, A0: 1}
	if !strings.Contains(a.String(), "write") {
		t.Fatal("Args.String missing name")
	}
}

func TestEnvWriteAndStdout(t *testing.T) {
	env := NewEnv()
	mem := newMem(1024)
	copy(mem.b[100:], "hello")
	ret, err := env.Handle(Args{Nr: NrWrite, A0: 1, A1: 100, A2: 5}, mem)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 5 || env.Stdout.String() != "hello" {
		t.Fatalf("write ret=%d out=%q", ret, env.Stdout.String())
	}
	if _, err := env.Handle(Args{Nr: NrWrite, A0: 99, A1: 100, A2: 5}, mem); err == nil {
		t.Fatal("bad fd accepted")
	}
	if _, err := env.Handle(Args{Nr: NrWrite, A0: 1, A1: 2000, A2: 5}, mem); err == nil {
		t.Fatal("OOB buffer accepted")
	}
}

func TestEnvFileRoundTrip(t *testing.T) {
	env := NewEnv()
	env.FS.Put("/f.txt", []byte("contents!"))
	mem := newMem(4096)
	copy(mem.b[0:], "/f.txt\x00")

	size, err := env.Handle(Args{Nr: NrStat, A0: 0}, mem)
	if err != nil || size != 9 {
		t.Fatalf("stat = %d, %v", size, err)
	}
	fd, err := env.Handle(Args{Nr: NrOpen, A0: 0}, mem)
	if err != nil {
		t.Fatal(err)
	}
	n, err := env.Handle(Args{Nr: NrRead, A0: fd, A1: 512, A2: 9}, mem)
	if err != nil || n != 9 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if string(mem.b[512:521]) != "contents!" {
		t.Fatal("read data wrong")
	}
	if _, err := env.Handle(Args{Nr: NrClose, A0: fd}, mem); err != nil {
		t.Fatal(err)
	}
	if env.FS.OpenCount() != 0 {
		t.Fatal("descriptor leaked")
	}
}

func TestEnvMissingFileErrno(t *testing.T) {
	env := NewEnv()
	mem := newMem(256)
	copy(mem.b[0:], "/missing\x00")
	ret, err := env.Handle(Args{Nr: NrStat, A0: 0}, mem)
	if err != nil {
		t.Fatal("stat of missing file should not kill the virtine")
	}
	if int64(ret) != -1 {
		t.Fatalf("stat ret = %d, want -1", int64(ret))
	}
	ret, err = env.Handle(Args{Nr: NrOpen, A0: 0}, mem)
	if err != nil || int64(ret) != -1 {
		t.Fatalf("open = %d, %v; want -1, nil", int64(ret), err)
	}
}

func TestEnvSocket(t *testing.T) {
	env := NewEnv()
	env.NetIn = []byte("request")
	mem := newMem(1024)
	n, err := env.Handle(Args{Nr: NrRecv, A0: SocketFD, A1: 0, A2: 100}, mem)
	if err != nil || n != 7 {
		t.Fatalf("recv = %d, %v", n, err)
	}
	if string(mem.b[:7]) != "request" {
		t.Fatal("recv data wrong")
	}
	// Drained: next recv returns 0.
	n, err = env.Handle(Args{Nr: NrRecv, A0: SocketFD, A1: 0, A2: 100}, mem)
	if err != nil || n != 0 {
		t.Fatalf("second recv = %d", n)
	}
	copy(mem.b[200:], "response")
	if _, err := env.Handle(Args{Nr: NrSend, A0: SocketFD, A1: 200, A2: 8}, mem); err != nil {
		t.Fatal(err)
	}
	if env.NetOut.String() != "response" {
		t.Fatal("send data wrong")
	}
	if _, err := env.Handle(Args{Nr: NrSend, A0: 9, A1: 200, A2: 8}, mem); err == nil {
		t.Fatal("bad socket accepted")
	}
}

func TestEnvDataChannel(t *testing.T) {
	env := NewEnv()
	env.DataIn = []byte("payload")
	mem := newMem(1024)
	n, err := env.Handle(Args{Nr: NrGetData, A0: 0, A1: 100}, mem)
	if err != nil || n != 7 {
		t.Fatalf("get_data = %d, %v", n, err)
	}
	copy(mem.b[500:], "result")
	if _, err := env.Handle(Args{Nr: NrReturnData, A0: 500, A1: 6}, mem); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.DataOut, []byte("result")) {
		t.Fatalf("data out = %q", env.DataOut)
	}
	// get_data with a small cap truncates.
	env.DataIn = []byte("0123456789")
	n, _ = env.Handle(Args{Nr: NrGetData, A0: 0, A1: 4}, mem)
	if n != 4 {
		t.Fatalf("capped get_data = %d", n)
	}
}

func TestEnvExitAndSnapshotAndMark(t *testing.T) {
	env := NewEnv()
	env.Clock = cycles.NewClock()
	env.Clock.Advance(777)
	mem := newMem(64)
	if _, err := env.Handle(Args{Nr: NrExit, A0: 3}, mem); err != nil {
		t.Fatal(err)
	}
	if !env.Exited || env.ExitCode != 3 {
		t.Fatal("exit not latched")
	}
	// The capture is the VMM's (it keys on the call number); the
	// environment's handler only acknowledges it.
	if ret, err := env.Handle(Args{Nr: NrSnapshot}, mem); ret != 0 || err != nil {
		t.Fatalf("snapshot = (%d, %v), want (0, nil)", ret, err)
	}
	if _, err := env.Handle(Args{Nr: NrMark, A0: 42}, mem); err != nil {
		t.Fatal(err)
	}
	if len(env.Marks) != 1 || env.Marks[0].ID != 42 || env.Marks[0].Cycle != 777 {
		t.Fatalf("marks = %+v", env.Marks)
	}
}

func TestEnvResetRun(t *testing.T) {
	env := NewEnv()
	env.FS.Put("/keep.txt", []byte("kept"))
	env.NetIn = []byte("x")
	env.DataIn = []byte("y")
	env.Stdout.WriteString("z")
	env.Exited = true
	env.ResetRun()
	if env.NetIn != nil || env.DataIn != nil || env.Stdout.Len() != 0 || env.Exited {
		t.Fatal("per-run state not cleared")
	}
	if _, err := env.FS.Stat("/keep.txt"); err != nil {
		t.Fatal("filesystem should persist across runs")
	}
}

func TestEnvUnknownHypercall(t *testing.T) {
	env := NewEnv()
	if _, err := env.Handle(Args{Nr: 0x7F}, newMem(16)); err == nil {
		t.Fatal("unknown hypercall accepted")
	}
}

func TestEnvHostWorkCharging(t *testing.T) {
	env := NewEnv()
	env.Clock = cycles.NewClock()
	env.NetIn = []byte("req")
	mem := newMem(256)
	if _, err := env.Handle(Args{Nr: NrRecv, A0: SocketFD, A1: 0, A2: 16}, mem); err != nil {
		t.Fatal(err)
	}
	net := env.Clock.Now()
	if net == 0 {
		t.Fatal("socket hypercall charged no host work")
	}
	copy(mem.b[0:], "/nope\x00")
	if _, err := env.Handle(Args{Nr: NrStat, A0: 0}, mem); err != nil {
		t.Fatal(err)
	}
	if charged := env.Clock.Now() - net; charged == 0 || charged >= net {
		t.Fatalf("file syscall (%d) should cost less than socket (%d)", charged, net)
	}
}

func TestReadCString(t *testing.T) {
	mem := newMem(256)
	copy(mem.b[10:], "hello\x00")
	s, err := ReadCString(mem, 10, 64)
	if err != nil || s != "hello" {
		t.Fatalf("ReadCString = %q, %v", s, err)
	}
	// Unterminated within max.
	for i := 0; i < 64; i++ {
		mem.b[100+i] = 'A'
	}
	if _, err := ReadCString(mem, 100, 32); err == nil {
		t.Fatal("unterminated string accepted")
	}
}

// TestReadCStringAtEndOfMemory: a string in the last 64 bytes of guest
// memory reads as far as the end and no further, at every distance from
// the end: terminated by the last byte it is found, with no terminator
// before the end it is an error. A string clear of the last 64 bytes is
// charged one 64-byte window, as before.
func TestReadCStringAtEndOfMemory(t *testing.T) {
	const size = 256
	for d := 1; d <= 64; d++ {
		mem := newMem(size)
		at := uint64(size - d)
		copy(mem.b[at:], strings.Repeat("a", d-1)+"\x00")
		s, err := ReadCString(mem, at, 4096)
		if err != nil || s != strings.Repeat("a", d-1) {
			t.Fatalf("%d bytes from the end: ReadCString = %q, %v", d, s, err)
		}
		mem.b[size-1] = 'a'
		if s, err := ReadCString(mem, at, 4096); err == nil {
			t.Fatalf("%d bytes from the end: unterminated string read as %q", d, s)
		}
	}
	if _, err := ReadCString(newMem(size), size, 4096); err == nil {
		t.Fatal("a string at the end of memory read")
	}
	if _, err := ReadCString(newMem(size), size+1, 4096); err == nil {
		t.Fatal("a string past the end of memory read")
	}

	mem := &chargedMem{fakeMem: newMem(size)}
	copy(mem.b[size-65:], "/a.txt\x00")
	if s, err := ReadCString(mem, size-65, 4096); err != nil || s != "/a.txt" || mem.read != 64 {
		t.Fatalf("ReadCString = %q, %v after reading %d bytes, want one 64-byte window", s, err, mem.read)
	}
	mem.read = 0
	copy(mem.b[size-8:], "/a.txt\x00")
	if s, err := ReadCString(mem, size-8, 4096); err != nil || s != "/a.txt" || mem.read != 8 {
		t.Fatalf("ReadCString = %q, %v after reading %d bytes, want the last 8", s, err, mem.read)
	}
}

// chargedMem counts the bytes a reader copies out of guest memory.
type chargedMem struct {
	*fakeMem
	read int
}

func (m *chargedMem) ReadGuest(addr uint64, n int) ([]byte, error) {
	b, err := m.fakeMem.ReadGuest(addr, n)
	if err == nil {
		m.read += n
	}
	return b, err
}

func TestMemFS(t *testing.T) {
	fs := NewFS()
	fs.Put("/a", []byte("aaa"))
	fs.Put("/b", []byte("bb"))
	paths := fs.Paths()
	if len(paths) != 2 || paths[0] != "/a" {
		t.Fatalf("paths = %v", paths)
	}
	fd, err := fs.Open("/a")
	if err != nil {
		t.Fatal(err)
	}
	// Partial reads advance the offset.
	b1, _ := fs.Read(fd, 2)
	b2, _ := fs.Read(fd, 2)
	b3, _ := fs.Read(fd, 2)
	if string(b1) != "aa" || string(b2) != "a" || b3 != nil {
		t.Fatalf("reads = %q %q %q", b1, b2, b3)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(fd); err == nil {
		t.Fatal("double close accepted")
	}
	if _, err := fs.Read(99, 1); err == nil {
		t.Fatal("bad fd read accepted")
	}
	if _, err := fs.Open("/nope"); err == nil {
		t.Fatal("open of missing file should error at FS level")
	}
}

// TestForkOfEmptyFSSharesPuts: an FS makes its maps on first write, and
// a fork of one that has no files yet still shares one file map with it
// and with every other fork, while descriptors stay per fork.
func TestForkOfEmptyFSSharesPuts(t *testing.T) {
	fs := NewFS()
	a, b := fs.Fork(), fs.Fork()
	a.Put("/a", []byte("from a"))
	fs.Put("/shared", []byte("from the parent"))
	for _, f := range []*FS{fs, a, b} {
		if n, err := f.Stat("/a"); err != nil || n != len("from a") {
			t.Fatalf("a fork's Put is not visible everywhere: Stat = %d, %v", n, err)
		}
		if _, err := f.Stat("/shared"); err != nil {
			t.Fatalf("the parent's Put is not visible in its forks: %v", err)
		}
	}
	if _, err := a.Open("/a"); err != nil {
		t.Fatal(err)
	}
	if a.OpenCount() != 1 || b.OpenCount() != 0 || fs.OpenCount() != 0 {
		t.Fatalf("open descriptors %d, %d, %d, want only the opening fork's", a.OpenCount(), b.OpenCount(), fs.OpenCount())
	}
}

func TestHandlerFunc(t *testing.T) {
	h := HandlerFunc(func(call Args, mem GuestMem) (uint64, error) {
		return call.A0 + 1, nil
	})
	v, err := h.Handle(Args{A0: 41}, newMem(1))
	if err != nil || v != 42 {
		t.Fatal("HandlerFunc broken")
	}
}

// TestReadBadDescriptorErrno: a failed file read reports -1 to the
// guest (errno-style, like open and stat) instead of killing the run,
// so guest code can handle the failure.
func TestReadBadDescriptorErrno(t *testing.T) {
	env := NewEnv()
	ret, err := env.Handle(Args{Nr: NrRead, A0: 99, A1: 0, A2: 8}, newMem(64))
	if err != nil {
		t.Fatalf("bad-fd read must fail errno-style, got hard error %v", err)
	}
	if ret != ^uint64(0) {
		t.Fatalf("ret = %#x, want -1", ret)
	}
}

// OpenCount reports the number of open descriptors (leak detection in
// tests).
func (fs *FS) OpenCount() int { return len(fs.fds) }

// NewOneShot builds a OneShot policy over inner.
func NewOneShot(inner Policy, once ...uint8) *OneShot {
	return &OneShot{Inner: inner, Once: MaskOf(once...)}
}
