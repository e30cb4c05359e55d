package cpu

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// maskTab and signTab are sized and masked so the compiler can elide
// bounds checks on the hot flag-computation path.
var maskTab = [4]uint64{
	isa.Mode16: 0xFFFF,
	isa.Mode32: 0xFFFF_FFFF,
	isa.Mode64: ^uint64(0),
	3:          ^uint64(0),
}

var signTab = [4]uint64{
	isa.Mode16: 1 << 15,
	isa.Mode32: 1 << 31,
	isa.Mode64: 1 << 63,
	3:          1 << 63,
}

// widthMask returns the value mask for the mode.
func widthMask(m isa.Mode) uint64 { return maskTab[m&3] }

func signBit(m isa.Mode) uint64 { return signTab[m&3] }

// signedAt interprets v as a signed integer at the mode's width.
func signedAt(v uint64, m isa.Mode) int64 {
	shift := uint(64 - m.Width()*8)
	return int64(v<<shift) >> shift
}

func (c *CPU) setArith(res, a, b uint64, sub bool) {
	m := c.Mode
	mask := widthMask(m)
	r := res & mask
	c.Flags.ZF = r == 0
	c.Flags.SF = r&signBit(m) != 0
	if sub {
		c.Flags.CF = (a & mask) < (b & mask)
		c.Flags.OF = (a^b)&(a^res)&signBit(m) != 0
	} else {
		c.Flags.CF = r < (a & mask)
		c.Flags.OF = ^(a^b)&(a^res)&signBit(m) != 0
	}
}

func (c *CPU) setLogic(res uint64) {
	mask := widthMask(c.Mode)
	r := res & mask
	c.Flags.ZF = r == 0
	c.Flags.SF = r&signBit(c.Mode) != 0
	c.Flags.CF = false
	c.Flags.OF = false
}

func (c *CPU) get(r isa.Reg) uint64    { return c.Regs[r] & widthMask(c.Mode) }
func (c *CPU) set(r isa.Reg, v uint64) { c.Regs[r] = v & widthMask(c.Mode) }

// Step executes one instruction. A nil exit means execution continues.
func (c *CPU) Step() *Exit {
	if c.Halted {
		return &Exit{Reason: ExitHalt}
	}
	fetchP, err := c.Translate(c.IP, false)
	if err != nil {
		return c.fault("instruction fetch at %#x: %v", c.IP, err)
	}
	in, derr := isa.Decode(c.Mem, fetchP, c.Mode)
	if derr != nil {
		return &Exit{Reason: ExitFault, Err: derr}
	}
	c.Clock.Advance(cycles.InstrBase)
	if c.pendFirst {
		c.Clock.Advance(cycles.FirstInstr64)
		c.mark(EvFirstInstr64)
		c.pendFirst = false
	}
	next := c.IP + uint64(in.Len)
	w := uint64(c.Mode.Width())
	mask := widthMask(c.Mode)
	// Immediates are sign-extended at decode so displacements work;
	// when an immediate is used as an address it must be re-masked to
	// the mode width (a 16-bit address 0x8000 is not negative).
	addrImm := in.Imm & mask

	switch in.Op {
	case isa.NOP, isa.CLI, isa.STI:
		// CLI/STI cost one cycle; the virtine model takes no interrupts.

	case isa.HLT:
		c.Halted = true
		c.Retired++
		c.IP = next
		return &Exit{Reason: ExitHalt}

	case isa.MOVI:
		c.set(in.Dst, in.Imm)
	case isa.MOV:
		c.set(in.Dst, c.get(in.Src))

	case isa.LOAD:
		v, err := c.loadWord((c.get(in.Src)+in.Imm)&mask, c.Mode)
		if err != nil {
			return c.fault("%v", err)
		}
		c.set(in.Dst, v)
	case isa.STORE:
		if c.Mode == isa.Mode32 && !c.sawStore32 {
			c.sawStore32 = true
			c.mark(EvIdentMapStart)
		}
		if err := c.storeWord((c.get(in.Dst)+in.Imm)&mask, c.get(in.Src), c.Mode); err != nil {
			return c.fault("%v", err)
		}
	case isa.LOADB:
		p, err := c.Translate((c.get(in.Src)+in.Imm)&mask, false)
		if err != nil {
			return c.fault("%v", err)
		}
		if p >= uint64(len(c.Mem)) {
			return c.fault("byte load beyond memory at %#x", p)
		}
		c.Clock.Advance(cycles.MemAccess)
		c.set(in.Dst, uint64(c.Mem[p]))
	case isa.STOREB:
		p, err := c.Translate((c.get(in.Dst)+in.Imm)&mask, true)
		if err != nil {
			return c.fault("%v", err)
		}
		if p >= uint64(len(c.Mem)) {
			return c.fault("byte store beyond memory at %#x", p)
		}
		c.Clock.Advance(cycles.MemStore)
		c.Mem[p] = byte(c.get(in.Src))
		c.StoreBarrier(p, 1)

	case isa.ADD:
		a, b := c.get(in.Dst), c.get(in.Src)
		r := a + b
		c.setArith(r, a, b, false)
		c.set(in.Dst, r)
	case isa.ADDI:
		a := c.get(in.Dst)
		r := a + in.Imm
		c.setArith(r, a, in.Imm, false)
		c.set(in.Dst, r)
	case isa.SUB:
		a, b := c.get(in.Dst), c.get(in.Src)
		r := a - b
		c.setArith(r, a, b, true)
		c.set(in.Dst, r)
	case isa.SUBI:
		a := c.get(in.Dst)
		r := a - in.Imm
		c.setArith(r, a, in.Imm, true)
		c.set(in.Dst, r)
	case isa.MUL:
		c.Clock.Advance(cycles.InstrMul)
		r := c.get(in.Dst) * c.get(in.Src)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.DIV, isa.MOD:
		c.Clock.Advance(cycles.InstrDiv)
		a := signedAt(c.get(in.Dst), c.Mode)
		b := signedAt(c.get(in.Src), c.Mode)
		if b == 0 {
			return c.fault("divide by zero at %#x", c.IP)
		}
		var r int64
		if in.Op == isa.DIV {
			r = a / b
		} else {
			r = a % b
		}
		c.setLogic(uint64(r))
		c.set(in.Dst, uint64(r))
	case isa.AND:
		r := c.get(in.Dst) & c.get(in.Src)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.ANDI:
		r := c.get(in.Dst) & in.Imm
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.OR:
		r := c.get(in.Dst) | c.get(in.Src)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.ORI:
		r := c.get(in.Dst) | in.Imm
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.XOR:
		r := c.get(in.Dst) ^ c.get(in.Src)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.SHLV:
		r := c.get(in.Dst) << (c.get(in.Src) & 63)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.SHRV:
		r := c.get(in.Dst) >> (c.get(in.Src) & 63)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.SARV:
		r := uint64(signedAt(c.get(in.Dst), c.Mode) >> (c.get(in.Src) & 63))
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.SHL:
		r := c.get(in.Dst) << (in.Imm & 63)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.SHR:
		r := c.get(in.Dst) >> (in.Imm & 63)
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.SAR:
		r := uint64(signedAt(c.get(in.Dst), c.Mode) >> (in.Imm & 63))
		c.setLogic(r)
		c.set(in.Dst, r)
	case isa.NEG:
		a := c.get(in.Dst)
		r := -a
		c.setArith(r, 0, a, true)
		c.set(in.Dst, r)
	case isa.NOT:
		c.set(in.Dst, ^c.get(in.Dst))
	case isa.INC:
		a := c.get(in.Dst)
		r := a + 1
		c.setArith(r, a, 1, false)
		c.set(in.Dst, r)
	case isa.DEC:
		a := c.get(in.Dst)
		r := a - 1
		c.setArith(r, a, 1, true)
		c.set(in.Dst, r)

	case isa.CMP:
		a, b := c.get(in.Dst), c.get(in.Src)
		c.setArith(a-b, a, b, true)
	case isa.CMPI:
		a := c.get(in.Dst)
		c.setArith(a-in.Imm, a, in.Imm, true)

	case isa.JMP:
		next = addrImm
	case isa.JZ:
		if c.Flags.ZF {
			next = addrImm
		}
	case isa.JNZ:
		if !c.Flags.ZF {
			next = addrImm
		}
	case isa.JL:
		if c.Flags.SF != c.Flags.OF {
			next = addrImm
		}
	case isa.JG:
		if !c.Flags.ZF && c.Flags.SF == c.Flags.OF {
			next = addrImm
		}
	case isa.JLE:
		if c.Flags.ZF || c.Flags.SF != c.Flags.OF {
			next = addrImm
		}
	case isa.JGE:
		if c.Flags.SF == c.Flags.OF {
			next = addrImm
		}
	case isa.JB:
		if c.Flags.CF {
			next = addrImm
		}
	case isa.JAE:
		if !c.Flags.CF {
			next = addrImm
		}

	case isa.CALL:
		c.Regs[isa.RSP] -= w
		if err := c.storeWord(c.Regs[isa.RSP], next, c.Mode); err != nil {
			return c.fault("call push: %v", err)
		}
		next = addrImm
	case isa.RET:
		v, err := c.loadWord(c.Regs[isa.RSP], c.Mode)
		if err != nil {
			return c.fault("ret pop: %v", err)
		}
		c.Regs[isa.RSP] += w
		next = v & widthMask(c.Mode)
	case isa.PUSH:
		c.Regs[isa.RSP] -= w
		if err := c.storeWord(c.Regs[isa.RSP], c.get(in.Dst), c.Mode); err != nil {
			return c.fault("push: %v", err)
		}
	case isa.POP:
		v, err := c.loadWord(c.Regs[isa.RSP], c.Mode)
		if err != nil {
			return c.fault("pop: %v", err)
		}
		c.Regs[isa.RSP] += w
		c.set(in.Dst, v)

	case isa.OUT:
		c.Retired++
		c.IP = next
		return &Exit{Reason: ExitIO, Port: uint8(in.Imm), Reg: in.Dst}
	case isa.IN:
		c.Retired++
		c.IP = next
		return &Exit{Reason: ExitIO, Port: uint8(in.Imm), Reg: in.Dst, In: true}

	case isa.LGDT:
		base, err := c.Translate(addrImm, false)
		if err != nil {
			return c.fault("lgdt: %v", err)
		}
		if base+10 > uint64(len(c.Mem)) {
			return c.fault("lgdt descriptor beyond memory at %#x", base)
		}
		c.GDTLimit = uint16(c.Mem[base]) | uint16(c.Mem[base+1])<<8
		var gb uint64
		for i := 0; i < 8; i++ {
			gb |= uint64(c.Mem[base+2+uint64(i)]) << (8 * i)
		}
		c.GDTBase = gb
		c.gdtLoads++
		if c.gdtLoads == 1 {
			c.Clock.Advance(cycles.Lgdt32)
		} else {
			c.Clock.Advance(cycles.Lgdt64)
		}
		c.mark(EvLgdt)

	case isa.MOVCR:
		cr := isa.CR(in.Dst)
		v := c.Regs[in.Src] // control registers are written full-width
		switch cr {
		case isa.CR0:
			old := c.CR0
			c.CR0 = v
			if old&isa.CR0PE == 0 && v&isa.CR0PE != 0 {
				c.Clock.Advance(cycles.ProtectedTransition)
				c.mark(EvProtected)
			}
			if old&isa.CR0PG == 0 && v&isa.CR0PG != 0 {
				if c.EFER&isa.EFERLME != 0 {
					if c.CR4&isa.CR4PAE == 0 {
						return c.fault("enabling long mode without CR4.PAE")
					}
					c.EFER |= isa.EFERLMA
					c.Clock.Advance(cycles.LongTransition)
					c.mark(EvLongActive)
				}
				c.FlushTLB()
			}
		case isa.CR3:
			c.CR3 = v
			c.Clock.Advance(cycles.CR3Load)
			c.FlushTLB()
			c.mark(EvCR3Load)
		case isa.CR4:
			c.CR4 = v
		case isa.EFER:
			c.EFER = v
		default:
			return c.fault("movcr to unknown control register %d", in.Dst)
		}

	case isa.RDCR:
		switch isa.CR(in.Src) {
		case isa.CR0:
			c.Regs[in.Dst] = c.CR0
		case isa.CR3:
			c.Regs[in.Dst] = c.CR3
		case isa.CR4:
			c.Regs[in.Dst] = c.CR4
		case isa.EFER:
			c.Regs[in.Dst] = c.EFER
		default:
			return c.fault("rdcr from unknown control register %d", in.Src)
		}

	case isa.LJMP:
		var target isa.Mode
		switch in.Sub {
		case 2:
			target = isa.Mode16
		case 4:
			target = isa.Mode32
		case 8:
			target = isa.Mode64
		default:
			return c.fault("ljmp with bad width %d", in.Sub)
		}
		switch target {
		case isa.Mode32:
			if c.CR0&isa.CR0PE == 0 {
				return c.fault("ljmp to 32-bit code with CR0.PE clear")
			}
			c.Clock.Advance(cycles.Ljmp32)
			c.mark(EvLjmp32)
		case isa.Mode64:
			if c.EFER&isa.EFERLMA == 0 {
				return c.fault("ljmp to 64-bit code without long mode active")
			}
			c.Clock.Advance(cycles.Ljmp64)
			c.mark(EvLjmp64)
			c.pendFirst = true
		}
		c.Mode = target
		c.FlushTLB()
		next = addrImm

	default:
		return c.fault("unimplemented opcode %v", in.Op)
	}

	c.Retired++
	c.IP = next
	return nil
}

// Run executes until a VM exit or until maxSteps instructions have
// retired; exceeding the budget is a fault (runaway guest).
//
// There are two engines over one cycle model. The default dispatches
// compiled traces (jit.go) wherever one applies and Step for everything
// else: specials, first visits, and the tail of an instruction budget. A
// trace batches its fixed per-instruction costs and puts them on the clock
// only at observation points (VM exits, faults, before any Step), so the
// virtual-cycle results are bit-identical to running Step alone — which is
// what Legacy selects, as the differential determinism tests' reference.
func (c *CPU) Run(maxSteps uint64) *Exit {
	if c.Legacy {
		for i := uint64(0); i < maxSteps; i++ {
			if ex := c.Step(); ex != nil {
				return ex
			}
		}
		return c.fault("instruction budget (%d) exhausted at ip=%#x", maxSteps, c.IP)
	}
	return c.runCached(maxSteps)
}

// setFetchWindow caches the linear code mapping containing ip so
// sequential fetches skip Translate entirely. The window is a pure host-
// side cache of translations the architectural path just performed (and,
// in long mode, of a mapping the tlb map now holds), so it is cycle-
// neutral; it is invalidated by FlushTLB and after every Step the
// dispatcher takes (mode switches, CR3 writes).
func (c *CPU) setFetchWindow(ip, phys uint64) {
	switch c.Mode {
	case isa.Mode16:
		if ip < 1<<20 {
			c.fetchOK, c.fetchVBase, c.fetchVEnd, c.fetchPBase = true, 0, 1<<20, 0
		}
	case isa.Mode32:
		if ip < 1<<32 {
			c.fetchOK, c.fetchVBase, c.fetchVEnd, c.fetchPBase = true, 0, 1<<32, 0
		}
	default:
		if c.NoTLB {
			return // every fetch must pay the full walk, as the ablation demands
		}
		vbase := ip &^ 0x1F_FFFF
		c.fetchOK = true
		c.fetchVBase = vbase
		c.fetchVEnd = vbase + 1<<21
		c.fetchPBase = phys - (ip - vbase)
	}
}

// runCached is the default engine: it dispatches each instruction to one
// of the two engines — a compiled trace when one is headed here and the
// remaining budget covers it, otherwise Step — so the tricky architectural
// transitions, and the budget fault, exist exactly once.
func (c *CPU) runCached(maxSteps uint64) *Exit {
	var pending uint64 // batched fixed costs not yet on the clock
	for steps := uint64(0); steps < maxSteps; {
		if c.Halted {
			c.Clock.Advance(pending)
			return &Exit{Reason: ExitHalt}
		}
		blk, page, pg, ex := c.traceAt(c.IP)
		if ex != nil {
			c.Clock.Advance(pending)
			return ex
		}
		if blk != nil && uint64(blk.nret) <= maxSteps-steps {
			// execChain runs the trace and keeps chaining into cached
			// successors; it returns only when the dispatch loop must
			// re-examine state from scratch.
			nr, ex := c.execChain(blk, c.IP, page, pg, &pending, maxSteps-steps)
			steps += nr
			if ex != nil {
				c.Clock.Advance(pending)
				return ex
			}
			continue
		}
		// No trace applies, or the budget does not cover it: Step
		// re-translates (a cycle-free hit — traceAt populated the map)
		// and re-decodes, then performs the full architectural sequence.
		// It may have switched modes or flushed translations, so the
		// fetch window is dropped.
		c.Clock.Advance(pending)
		pending = 0
		ex = c.Step()
		c.fetchOK = false
		if ex != nil {
			return ex
		}
		steps++
	}
	c.Clock.Advance(pending)
	return c.fault("instruction budget (%d) exhausted at ip=%#x", maxSteps, c.IP)
}

// traceAt returns the compiled trace headed at guest-virtual ip with the
// physical page it lives on, or a nil trace when Step must execute the
// instruction there: a special, the first visit to an offset (predecode
// marks it seen, so code that runs once never pays compilation), a head
// no trace can start at, or a trace anchored at a different virtual
// address. A failed fetch translation is returned as the fault exit — it
// charged its walk, so Step must not repeat it.
func (c *CPU) traceAt(ip uint64) (*cblock, uint64, *codePage, *Exit) {
	if c.pendFirst || (c.NoTLB && c.Mode == isa.Mode64) {
		// Step charges FirstInstr64 at the exact legacy clock position;
		// under the TLB-off ablation every fetch must pay its own walk,
		// which is per-step execution exactly.
		return nil, 0, nil, nil
	}
	var phys uint64
	if c.fetchOK && ip >= c.fetchVBase && ip < c.fetchVEnd {
		phys = c.fetchPBase + (ip - c.fetchVBase)
	} else {
		p, err := c.Translate(ip, false)
		if err != nil {
			return nil, 0, nil, c.fault("instruction fetch at %#x: %v", ip, err)
		}
		phys = p
		c.setFetchWindow(ip, p)
	}
	page := phys / codePageSize
	off := uint32(phys - page*codePageSize)
	pg := c.codeAt(page)
	var e centry
	if pg != nil {
		e = pg.ents[off]
	}
	if e.n == 0 || e.mode != c.Mode {
		c.predecode(phys)
		return nil, 0, nil, nil
	}
	if e.special || (e.op == isa.STORE && !c.sawStore32 && c.Mode == isa.Mode32) {
		// The pre-latch Mode32 STORE records EvIdentMapStart in Step; a
		// trace deopts on it, so compiling here would re-enter forever.
		return nil, 0, nil, nil
	}
	return c.blockAt(pg, page, off, ip), page, pg, nil
}

// jccTaken evaluates a conditional branch against the flags.
func jccTaken(op isa.Op, f *Flags) bool {
	switch op {
	case isa.JZ:
		return f.ZF
	case isa.JNZ:
		return !f.ZF
	case isa.JL:
		return f.SF != f.OF
	case isa.JG:
		return !f.ZF && f.SF == f.OF
	case isa.JLE:
		return f.ZF || f.SF != f.OF
	case isa.JGE:
		return f.SF == f.OF
	case isa.JB:
		return f.CF
	case isa.JAE:
		return !f.CF
	}
	return false
}

// codeAt returns the decoded page at index page, or nil.
func (c *CPU) codeAt(page uint64) *codePage {
	if page < uint64(len(c.code)) {
		return c.code[page]
	}
	return nil
}

// Fault is a convenience for VMM-side code to construct a fault exit.
func Fault(format string, args ...any) *Exit {
	return &Exit{Reason: ExitFault, Err: fmt.Errorf(format, args...)}
}
