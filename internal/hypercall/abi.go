// Package hypercall defines the virtine hypercall ABI and the host-side
// machinery that services it: security policies (default-deny, as §5.1
// requires), canned POSIX-like handlers, and the in-memory host
// environment (filesystem, virtual socket, data channel) those handlers
// operate on.
//
// Hypercalls in Wasp "are not meant to emulate low-level virtual devices,
// but are instead designed to provide high-level hypervisor services with
// as few exits as possible" (§5.1) — e.g. a hypercall that mirrors the
// read POSIX call rather than a virtio block device. The guest triggers a
// hypercall with OUT to the port carrying the call number; arguments
// travel in RDI, RSI, RDX, R10, R8, R9 and the result returns in RAX,
// mirroring the Linux syscall convention the mini-libc forwards.
package hypercall

import (
	"errors"
	"fmt"
)

// Hypercall numbers (I/O port = number).
const (
	NrExit        = 0x00 // exit(code) — always permitted
	NrWrite       = 0x01 // write(fd, buf, len)
	NrRead        = 0x02 // read(fd, buf, len)
	NrOpen        = 0x03 // open(path, flags)
	NrClose       = 0x04 // close(fd)
	NrStat        = 0x05 // stat(path) -> size
	NrSend        = 0x06 // send(sock, buf, len)
	NrRecv        = 0x07 // recv(sock, buf, len)
	NrSnapshot    = 0x08 // snapshot() — capture reset state (§5.2)
	NrGetData     = 0x09 // get_data(buf, cap) -> n (§6.5)
	NrReturnData  = 0x0A // return_data(buf, len) (§6.5)
	NrMark        = 0x0B // mark(id) — milestone instrumentation (Fig 4)
	NumHypercalls = 0x0C
)

var nrNames = [NumHypercalls]string{
	"exit", "write", "read", "open", "close", "stat",
	"send", "recv", "snapshot", "get_data", "return_data", "mark",
}

// Name returns the symbolic name of a hypercall number.
func Name(nr uint8) string {
	if int(nr) < len(nrNames) {
		return nrNames[nr]
	}
	return fmt.Sprintf("hc?%#x", nr)
}

// Args carries one decoded hypercall: the number (from the port) and up to
// six register arguments.
type Args struct {
	Nr                     uint8
	A0, A1, A2, A3, A4, A5 uint64
}

func (a Args) String() string {
	return fmt.Sprintf("%s(%#x, %#x, %#x)", Name(a.Nr), a.A0, a.A1, a.A2)
}

// ErrDenied is returned when the client policy rejects a hypercall; the
// virtine is terminated (default-deny semantics, §3.3).
var ErrDenied = errors.New("hypercall: denied by policy")

// Policy decides whether a virtine may make a given hypercall. Exit and
// mark are mechanisms of the hypervisor itself and are always serviced;
// policies govern everything else.
type Policy interface {
	Allow(nr uint8) bool
	String() string
}

// DenyAll is the default policy: "Wasp provides no externally observable
// behavior through hypercalls other than the ability to exit" (§5.1).
type DenyAll struct{}

func (DenyAll) Allow(uint8) bool { return false }
func (DenyAll) String() string   { return "deny-all" }

// AllowAll corresponds to the virtine_permissive keyword (§5.3).
type AllowAll struct{}

func (AllowAll) Allow(uint8) bool { return true }
func (AllowAll) String() string   { return "allow-all" }

// Mask allows exactly the hypercalls whose bit is set — the
// virtine_config(cfg) bit-mask configuration (§5.3).
type Mask uint64

// MaskOf builds a Mask allowing the listed hypercall numbers.
func MaskOf(nrs ...uint8) Mask {
	var m Mask
	for _, nr := range nrs {
		m |= 1 << nr
	}
	return m
}

func (m Mask) Allow(nr uint8) bool { return m&(1<<nr) != 0 }
func (m Mask) String() string      { return fmt.Sprintf("mask(%#x)", uint64(m)) }

// OneShot wraps a policy and additionally enforces that selected
// hypercalls may be made at most once per virtine execution — the §6.5
// hardening where snapshot() and get_data() "cannot be called more than
// once, meaning that if an attacker were to gain remote code execution
// capabilities, the only permitted hypercall would terminate the virtine."
// Its state is the execution's, so each run takes a fresh OneShot.
// snapshot is a mechanism call that bypasses the policy gate (§5.1), as
// exit and mark do, so a OneShot cannot limit it.
type OneShot struct {
	Inner Policy
	Once  Mask // calls restricted to a single use
	used  [NumHypercalls]bool
}

func (o *OneShot) Allow(nr uint8) bool {
	if !o.Inner.Allow(nr) {
		return false
	}
	if int(nr) < len(o.used) && o.Once.Allow(nr) {
		if o.used[nr] {
			return false
		}
		o.used[nr] = true
	}
	return true
}

func (o *OneShot) String() string { return "one-shot(" + o.Inner.String() + ")" }

// GuestMem is the bounds-checked window a handler gets into the virtine's
// memory. Handlers are trusted but must "take care to assume that inputs
// have not been properly sanitized" (§3.2); every access is checked.
//
// The slice ReadGuest returns is only valid until the next ReadGuest on
// the same GuestMem: implementations may reuse one scratch buffer across
// calls so hypercall-heavy runs do not allocate per call. Handlers that
// retain the data must copy it. A zero-length read succeeds exactly
// when addr is inside memory or at its end. The GuestMem itself is valid
// only for the Handle call it is passed to: the runtime reuses it for
// the next run of the same shell.
type GuestMem interface {
	ReadGuest(addr uint64, n int) ([]byte, error)
	WriteGuest(addr uint64, b []byte) error
}

// Handler services hypercalls that the policy admitted. Returning an
// error terminates the virtine; returning (v, nil) resumes the guest with
// v in RAX.
type Handler interface {
	Handle(call Args, mem GuestMem) (uint64, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(call Args, mem GuestMem) (uint64, error)

// Handle calls f.
func (f HandlerFunc) Handle(call Args, mem GuestMem) (uint64, error) {
	return f(call, mem)
}

// ReadCString reads a NUL-terminated string from guest memory, capped at
// max bytes, validating the terminator exists. It reads a 64-byte window
// first and doubles it until it finds the terminator or reaches max. A
// window that would run past the end of guest memory shrinks to end
// there: ReadCString finds the end with zero-length reads, which the
// GuestMem contract bounds-checks and charges nothing for, and reads what
// is left once. A string still unterminated at the end is an error.
func ReadCString(mem GuestMem, addr uint64, max int) (string, error) {
	for n := 64; ; n *= 2 {
		if n > max {
			n = max
		}
		b, err := mem.ReadGuest(addr, n)
		last := n == max
		if err != nil {
			var left int
			if left, err = tail(mem, addr, n); err != nil {
				return "", err
			}
			if b, err = mem.ReadGuest(addr, left); err != nil {
				return "", err
			}
			last = true
		}
		for i, c := range b {
			if c == 0 {
				return string(b[:i]), nil
			}
		}
		if last {
			return "", fmt.Errorf("hypercall: unterminated string at %#x", addr)
		}
	}
}

// tail returns how many bytes from addr to the end of guest memory,
// given that a read of n bytes from addr failed: the largest k < n at
// which a zero-length read at addr+k succeeds. It fails when addr
// itself is outside memory.
func tail(mem GuestMem, addr uint64, n int) (int, error) {
	if _, err := mem.ReadGuest(addr, 0); err != nil {
		return 0, err
	}
	lo, hi := 0, n // a read ending at addr+lo succeeds; one at addr+hi does not
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if _, err := mem.ReadGuest(addr+uint64(mid), 0); err == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
