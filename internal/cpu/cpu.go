// Package cpu implements the guest CPU emulator for the VX instruction
// set. One CPU executes one virtine's code against that virtine's private
// guest-physical memory, advancing a virtual cycle clock with calibrated
// per-operation costs. The CPU is architecturally faithful where the
// paper's boot-cost analysis (§4.2, Table 1) depends on architecture:
//
//   - It powers on in 16-bit real mode at the image entry point.
//   - Writing CR0.PE transitions to protected mode (3217-cycle charge).
//   - Enabling CR0.PG with EFER.LME set activates long mode.
//   - LGDT really reads a 10-byte descriptor from guest memory; the first
//     (cold) load carries Table 1's 4118-cycle cost.
//   - LJMP completes mode switches and is validated against the control
//     registers, so a guest cannot jump to 64-bit code without paging on.
//   - In long mode the MMU walks real 4-level page tables that the guest
//     built in its own memory (2 MB large pages), with a TLB in front.
//   - OUT to a port causes a VM exit — the hypercall trap Wasp interposes
//     on (§5.1).
//
// The CPU also records event timestamps (mode transitions, GDT loads,
// first long-mode instruction, CR3 load) so the Table 1 boot breakdown is
// measured, not asserted.
package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// Event identifies a boot milestone the CPU timestamps.
type Event uint8

const (
	EvLgdt Event = iota
	EvProtected
	EvLongActive
	EvLjmp32
	EvLjmp64
	EvFirstInstr64
	EvCR3Load
	EvIdentMapStart // first store after entering protected mode
	NumEvents
)

func (e Event) String() string {
	switch e {
	case EvLgdt:
		return "lgdt"
	case EvProtected:
		return "protected-transition"
	case EvLongActive:
		return "long-transition"
	case EvLjmp32:
		return "ljmp32"
	case EvLjmp64:
		return "ljmp64"
	case EvFirstInstr64:
		return "first-instr64"
	case EvCR3Load:
		return "cr3-load"
	case EvIdentMapStart:
		return "ident-map-start"
	}
	return "ev?"
}

// ExitReason explains why control returned to the VMM.
type ExitReason uint8

const (
	ExitNone  ExitReason = iota
	ExitHalt             // HLT retired
	ExitIO               // OUT/IN port access (hypercall)
	ExitFault            // architectural fault (bad fetch, page fault, ...)
)

func (r ExitReason) String() string {
	switch r {
	case ExitNone:
		return "none"
	case ExitHalt:
		return "halt"
	case ExitIO:
		return "io"
	case ExitFault:
		return "fault"
	}
	return "exit?"
}

// Exit describes one VM exit.
type Exit struct {
	Reason ExitReason
	Port   uint8   // for ExitIO
	In     bool    // true when the guest is reading (IN)
	Reg    isa.Reg // register carrying the OUT value / receiving IN
	Err    error   // for ExitFault
}

// Flags holds the condition codes.
type Flags struct {
	ZF, SF, CF, OF bool
}

// TierEvent is one execution-tier transition: a guest block entering the
// compiled-closure tier (compile) or falling back out of it (deopt).
// Recorded only under TierTrace; Cycle is the virtual time of the
// transition and PC the guest IP of the block involved.
type TierEvent struct {
	Deopt bool
	PC    uint64
	Cycle uint64
}

// tierLogCap bounds the per-run tier log; a steady-state guest compiles
// a handful of traces, so the cap only matters for pathological SMC
// loops, where dropping the tail is preferable to unbounded growth.
const tierLogCap = 256

// tier appends a transition to the tier log when tracing is on. Callers
// pass the guest IP of the affected block; the timestamp comes from the
// CPU's own clock.
func (c *CPU) tier(deopt bool, pc uint64) {
	if !c.TierTrace || len(c.TierLog) >= tierLogCap {
		return
	}
	var at uint64
	if c.Clock != nil {
		at = c.Clock.Now()
	}
	c.TierLog = append(c.TierLog, TierEvent{Deopt: deopt, PC: pc, Cycle: at})
}

// CPU is one virtual processor.
type CPU struct {
	Regs  [isa.NumRegs]uint64
	IP    uint64
	Flags Flags

	CR0, CR3, CR4, EFER uint64
	GDTBase             uint64
	GDTLimit            uint16

	Mode isa.Mode
	Mem  []byte // guest-physical memory, owned by the VM context

	Clock *cycles.Clock

	// Events holds the cycle timestamp of each boot milestone; zero
	// means "not reached" (cycle 0 cannot coincide with any milestone
	// because decoding the first instruction costs at least one cycle).
	Events [NumEvents]uint64

	// Retired counts instructions retired.
	Retired uint64

	Halted bool

	// NoTLB disables the translation cache (ablation: every long-mode
	// access pays a full page walk).
	NoTLB bool

	// Legacy makes Run execute every instruction through Step. The
	// differential determinism tests use it as the reference for the
	// default trace engine; virtual-cycle results must be bit-identical.
	Legacy bool

	// Stats counts compiled-trace activity.
	// Reset zeroes it alongside Retired; Wasp harvests per-run deltas.
	Stats JITStats

	// TierTrace enables the tier-transition log: when set, each trace
	// compile and deopt appends a TierEvent to TierLog (bounded at
	// tierLogCap; overflow is dropped silently — the counters in Stats
	// stay exact). The guest hot loop never calls out: the embedder
	// (Wasp's RunOn) drains TierLog into its tracer at run end and clears
	// both fields before pooling.
	TierTrace bool
	TierLog   []TierEvent

	tlb        map[uint64]uint64 // 2MB page: vaddr>>21 → physical base
	gdtLoads   int
	pendFirst  bool // next retired instruction is the first in long mode
	sawStore32 bool // EvIdentMapStart latch

	// Decoded-instruction cache (cache.go), one entry per physical page;
	// codeNew marks decode state not yet published by ShareCode.
	code    []*codePage
	codeNew bool

	// pstate is the per-page store-barrier state (barrier.go), one byte
	// per 4 KiB page of Mem: dirty since the last ClearDirty, and holding
	// decode state. It survives Reset (minus the decode bits).
	pstate []uint8

	// codeClobbered is set whenever the store barrier actually unhooks a
	// decoded page. A store closure whose store took the barrier's slow
	// path tests this hint: stores to data pages (which have no decode
	// state) never set it, so the precise page-identity check runs only
	// when some decoded page really was hit.
	codeClobbered bool

	// lateFault attribution: a fused pair closure (jit.go) that faults
	// half-way records here which half completed — extra cost to roll
	// back when the unexecuted second half was pre-batched (lateRoll),
	// extra instructions retired when the first half committed (lateRet)
	// and the mid-pair IP the fault belongs to (lateMid). blockStop
	// consumes and clears the record on the fault path only.
	lateSet  bool
	lateRoll uint8
	lateRet  uint8
	lateMid  int32

	// blockEntry is the virtual IP of the compiled trace currently
	// executing; CALL/RET closures rebuild absolute return addresses
	// from it plus a compile-time relative offset.
	blockEntry uint64

	// Direct-mapped front cache for compiled-block lookup (jit.go): one
	// probe instead of an atomic load plus map lookup per block entry.
	// Entries self-invalidate: a hit requires the recorded page to still
	// be installed at the recorded index — which is also why the table
	// may outlive Reset: a page pointer is only ever installed over the
	// bytes it was decoded from (AdoptCode compares them), so a slot left
	// by an earlier tenant either misses or names a trace of these bytes.
	bcache *[bcacheSize]bcent

	// Hot-path translation caches in front of the tlb map. Both are
	// strict subsets of state the architectural paths already hold, so
	// they change no cycle accounting: the fetch window caches the
	// current code page's linear mapping across sequential instructions
	// (re-established on page cross, mode switch, CR3 write, or TLB
	// flush), and the one-entry data TLB short-circuits the map lookup
	// for the common same-page data access.
	fetchOK               bool
	fetchVBase, fetchVEnd uint64
	fetchPBase            uint64
	dtlbOK                bool
	dtlbPage, dtlbBase    uint64
}

// New returns a powered-on CPU in real mode, with IP at entry, owning mem,
// advancing clk.
func New(mem []byte, clk *cycles.Clock, entry uint64) *CPU {
	c := &CPU{
		Mem:    mem,
		Clock:  clk,
		IP:     entry,
		Mode:   isa.Mode16,
		tlb:    make(map[uint64]uint64),
		pstate: make([]uint8, (len(mem)+codePageSize-1)/codePageSize),
		bcache: new([bcacheSize]bcent),
	}
	c.Regs[isa.RSP] = uint64(len(mem)) // stack grows down from the top
	return c
}

// Reset returns the CPU to power-on state at entry without touching
// memory. Used when replaying a snapshot, whose register file is restored
// separately. All decode state is dropped, so every page's decode bit
// goes with it; the dirty bits belong to the VMM's restore point and stay.
func (c *CPU) Reset(entry uint64) {
	if c.code != nil {
		for i := range c.pstate {
			c.pstate[i] &= pageDirty
		}
	}
	*c = CPU{
		Mem:       c.Mem,
		Clock:     c.Clock,
		pstate:    c.pstate,
		bcache:    c.bcache,
		Legacy:    c.Legacy,
		TierTrace: c.TierTrace,
		TierLog:   c.TierLog,
		IP:        entry,
		Mode:      isa.Mode16,
		tlb:       make(map[uint64]uint64),
	}
	c.Regs[isa.RSP] = uint64(len(c.Mem))
}

// State snapshots the architectural register state (not memory).
type State struct {
	Regs                [isa.NumRegs]uint64
	IP                  uint64
	Flags               Flags
	CR0, CR3, CR4, EFER uint64
	GDTBase             uint64
	GDTLimit            uint16
	Mode                isa.Mode
	GDTLoads            int
}

// Save captures the architectural state for snapshotting (§5.2).
func (c *CPU) Save() State {
	return State{
		Regs: c.Regs, IP: c.IP, Flags: c.Flags,
		CR0: c.CR0, CR3: c.CR3, CR4: c.CR4, EFER: c.EFER,
		GDTBase: c.GDTBase, GDTLimit: c.GDTLimit, Mode: c.Mode,
		GDTLoads: c.gdtLoads,
	}
}

// Restore reinstates a saved architectural state. The TLB is flushed, as
// on a real mode/CR3 change. The decoded-instruction cache is kept: its
// entries are invalidated at write time, so whatever pages survive still
// match memory (parked COW shells rely on this to skip re-decoding).
func (c *CPU) Restore(s State) {
	c.Regs, c.IP, c.Flags = s.Regs, s.IP, s.Flags
	c.CR0, c.CR3, c.CR4, c.EFER = s.CR0, s.CR3, s.CR4, s.EFER
	c.GDTBase, c.GDTLimit, c.Mode = s.GDTBase, s.GDTLimit, s.Mode
	c.gdtLoads = s.GDTLoads
	c.Halted = false
	c.FlushTLB()
}

// JITStats counts compiled-trace activity: traces compiled, entered and
// deoptimized, and the instructions the counted-loop kernel (loop.go)
// retired without entering a closure.
type JITStats struct {
	BlocksCompiled uint64
	BlockHits      uint64
	BlockDeopts    uint64
	LoopRetired    uint64
}

func (c *CPU) fault(format string, args ...any) *Exit {
	return &Exit{Reason: ExitFault, Err: fmt.Errorf("cpu: "+format, args...)}
}

// mark records an event timestamp once.
func (c *CPU) mark(e Event) {
	if c.Events[e] == 0 {
		c.Events[e] = c.Clock.Now()
	}
}

// EventDelta returns the cycles between two recorded events, or 0 if
// either is missing.
func (c *CPU) EventDelta(from, to Event) uint64 {
	a, b := c.Events[from], c.Events[to]
	if a == 0 || b == 0 || b < a {
		return 0
	}
	return b - a
}
