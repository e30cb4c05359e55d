package cpu

// One step per instruction. Every instruction but the specials executes
// as a step: the operands it reads and the package-level function that
// executes it, built from the decoded instruction by newStep. Step builds
// one into the CPU's own slot and runs it; compileBlock builds a trace's
// worth into one array and switches the control transfers it follows (a
// followed JMP or CALL, a loop's back-edge Jcc, a speculated RET) to their
// trace-relative forms. So each data and control op has one
// implementation, whichever engine runs it.
//
// A step's function charges only what depends on run-time state (memory
// accesses, translations); the fixed cost (baseCost) is Step's to charge
// per instruction and a trace's to batch. A step that sets IP itself
// returns errSide, or nil when it ends its trace (cblock.term); Step sets
// IP to the next instruction before it runs a step.

import (
	"encoding/binary"

	"repro/internal/cycles"
	"repro/internal/isa"
)

// stepFn executes one instruction from its step. nil means continue;
// errDeopt, errSide, errDiv0 and errSMC are sentinels the caller rewrites;
// any other *Exit is an architectural fault with the final message already
// formatted.
type stepFn func(c *CPU, s *step) *Exit

var (
	errDeopt = new(Exit) // step did not execute: re-dispatch it
	errSide  = new(Exit) // step completed and set IP: leave the trace
	errDiv0  = new(Exit) // divide by zero: the caller formats it with the IP
	errSMC   = new(Exit) // store completed and unhooked a decoded page
)

// step is one instruction's record, 24 bytes: the function that executes
// it, the operands it reads and, in a trace, where it sits and what the
// trace costs through it. Offsets are signed and relative to the trace's
// entry IP (followed call targets can precede the head); in Step the
// instruction is the entry and both offsets are 0. A step runs only in
// the mode it was decoded in, so it reads the mode from the CPU.
type step struct {
	fn       stepFn
	imm      uint64  // the immediate; a branch target or MOVI value at the mode's width, a shift count & 63
	off      int16   // offset of the step's instruction
	offEnd   int16   // offset of its successor in trace order
	cum      uint16  // the trace's fixed cost (base + mul/div extra) through this step
	dst, src isa.Reg // a Jcc's dst holds its opcode, the condition
}

// newStep returns the step that executes in, decoded in mode md, or false
// for a special. A JMP, Jcc, CALL or RET gets the form that sets IP to the
// target it finds.
func newStep(in isa.Inst, md isa.Mode) (step, bool) {
	s := step{imm: in.Imm, dst: in.Dst, src: in.Src}
	either := func(f64, fw stepFn) stepFn {
		if md == isa.Mode64 {
			return f64
		}
		return fw
	}
	switch in.Op {
	case isa.NOP, isa.CLI, isa.STI:
		// CLI/STI cost one cycle; the virtine model takes no interrupts.
		s.fn = opNop
	case isa.MOVI:
		s.fn, s.imm = opMovi, in.Imm&widthMask(md)
	case isa.MOV:
		s.fn = either(opMov64, opMovW)
	case isa.LOAD:
		s.fn = either(opLoad64, opLoadW)
	case isa.STORE:
		s.fn = either(opStore64, opStoreW)
	case isa.LOADB:
		s.fn = opLoadB
	case isa.STOREB:
		s.fn = opStoreB
	case isa.ADD:
		s.fn = either(opAdd64, opAddW)
	case isa.ADDI:
		s.fn = either(opAddi64, opAddiW)
	case isa.INC:
		s.fn, s.imm = either(opAddi64, opAddiW), 1
	case isa.SUB:
		s.fn = either(opSub64, opSubW)
	case isa.SUBI:
		s.fn = either(opSubi64, opSubiW)
	case isa.DEC:
		s.fn, s.imm = either(opSubi64, opSubiW), 1
	case isa.CMP:
		s.fn = either(opCmp64, opCmpW)
	case isa.CMPI:
		s.fn = either(opCmpi64, opCmpiW)
	case isa.NEG:
		s.fn = opNeg
	case isa.MUL:
		s.fn = opMul
	case isa.DIV:
		s.fn = opDiv
	case isa.MOD:
		s.fn = opMod
	case isa.AND:
		s.fn = opAnd
	case isa.ANDI:
		s.fn = opAndi
	case isa.OR:
		s.fn = opOr
	case isa.ORI:
		s.fn = opOri
	case isa.XOR:
		s.fn = opXor
	case isa.NOT:
		s.fn = opNot
	case isa.SHLV:
		s.fn = opShlv
	case isa.SHRV:
		s.fn = opShrv
	case isa.SARV:
		s.fn = opSarv
	case isa.SHL:
		s.fn, s.imm = opShl, in.Imm&63
	case isa.SHR:
		s.fn, s.imm = opShr, in.Imm&63
	case isa.SAR:
		s.fn, s.imm = opSar, in.Imm&63
	case isa.JMP:
		s.fn, s.imm = opJmp, in.Imm&widthMask(md)
	case isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE, isa.JB, isa.JAE:
		s.fn, s.imm, s.dst = opJcc, in.Imm&widthMask(md), isa.Reg(in.Op)
	case isa.CALL:
		s.fn, s.imm = either(opCall64, opCallW), in.Imm&widthMask(md)
	case isa.RET:
		s.fn = either(opRet64, opRetW)
	case isa.PUSH:
		s.fn = either(opPush64, opPushW)
	case isa.POP:
		s.fn = either(opPop64, opPopW)
	default:
		return step{}, false
	}
	return s, true
}

// after is the address of the instruction after s, a CALL or a Jcc (an
// opcode and a word immediate) in mode md, in the trace entered at
// blockEntry.
func (c *CPU) after(s *step, md isa.Mode) uint64 {
	return c.blockEntry + uint64(int64(s.off)) + 1 + uint64(md.Width())
}

// The step functions. A "64" function runs in long mode, where registers
// need no masking; a "W" function, or one without a suffix, masks to the
// width of the CPU's mode. A function that writes its destination
// register reads it from the step first: the compiler cannot tell the
// CPU's flags, clock or stack pointer from the step's fields, and would
// load and bounds-check it again after writing them.

func opNop(*CPU, *step) *Exit { return nil }

func opMovi(c *CPU, s *step) *Exit { c.Regs[s.dst] = s.imm; return nil }

func opMov64(c *CPU, s *step) *Exit { c.Regs[s.dst] = c.Regs[s.src]; return nil }

func opMovW(c *CPU, s *step) *Exit { c.Regs[s.dst] = c.Regs[s.src] & widthMask(c.Mode); return nil }

func opLoad64(c *CPU, s *step) *Exit {
	d, va := s.dst, c.Regs[s.src]+s.imm
	if v, ok := c.fastLoad64(va); ok {
		c.Regs[d] = v
		return nil
	}
	v, ex := c.loadSlow(va, isa.Mode64, "")
	if ex != nil {
		return ex
	}
	c.Regs[d] = v
	return nil
}

func opLoadW(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	va := (c.Regs[s.src]&mask + s.imm) & mask
	v, ok := c.fastLoadFlat(va, md)
	if !ok {
		var ex *Exit
		if v, ex = c.loadSlow(va, md, ""); ex != nil {
			return ex
		}
	}
	c.Regs[d] = v & mask
	return nil
}

func opStore64(c *CPU, s *step) *Exit {
	va := c.Regs[s.dst] + s.imm
	if c.fastStore64(va, c.Regs[s.src]) {
		return nil
	}
	return c.storeSlow(va, c.Regs[s.src], isa.Mode64, "")
}

// opStoreW deopts on a Mode32 store while the ident-map latch is unset,
// as it may be on a CPU that adopted the trace: Step sets the latch and
// records the milestone before it runs the step.
func opStoreW(c *CPU, s *step) *Exit {
	md := c.Mode
	mask := widthMask(md)
	va, v := (c.Regs[s.dst]+s.imm)&mask, c.Regs[s.src]&mask
	var fast bool
	if md == isa.Mode32 {
		if !c.sawStore32 {
			return errDeopt
		}
		fast = c.fastStore32(va, uint32(v))
	} else {
		fast = c.fastStore16(va, uint16(v))
	}
	if fast {
		return nil
	}
	return c.storeSlow(va, v, md, "")
}

func opLoadB(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	va := (c.Regs[s.src]&mask + s.imm) & mask
	p, ok := c.fastAddr(va, md)
	if !ok {
		var err error
		if p, err = c.Translate(va, false); err != nil {
			return c.fault("%v", err)
		}
	}
	if p >= uint64(len(c.Mem)) {
		return c.fault("byte load beyond memory at %#x", p)
	}
	c.Clock.Advance(cycles.MemAccess)
	c.Regs[d] = uint64(c.Mem[p])
	return nil
}

func opStoreB(c *CPU, s *step) *Exit {
	md := c.Mode
	mask := widthMask(md)
	va := (c.Regs[s.dst]&mask + s.imm) & mask
	p, ok := c.fastAddr(va, md)
	if !ok {
		var err error
		if p, err = c.Translate(va, true); err != nil {
			return c.fault("%v", err)
		}
	}
	if p >= uint64(len(c.Mem)) {
		return c.fault("byte store beyond memory at %#x", p)
	}
	c.Clock.Advance(cycles.MemStore)
	c.Mem[p] = byte(c.Regs[s.src] & mask)
	if !c.armed(p, 1) {
		c.StoreBarrier(p, 1)
		if c.codeClobbered {
			return errSMC
		}
	}
	return nil
}

func opAdd64(c *CPU, s *step) *Exit {
	d := s.dst
	a, b := c.Regs[d], c.Regs[s.src]
	c.Regs[d] = c.arith64(a+b, a, b, false)
	return nil
}

func opAddW(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a, b := c.Regs[d]&mask, c.Regs[s.src]&mask
	c.Regs[d] = c.arithW(mask, a+b, a, b, false)
	return nil
}

// opAddi64 and opAddiW also run INC, with an immediate of 1.
func opAddi64(c *CPU, s *step) *Exit {
	d := s.dst
	a := c.Regs[d]
	c.Regs[d] = c.arith64(a+s.imm, a, s.imm, false)
	return nil
}

func opAddiW(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a := c.Regs[d] & mask
	c.Regs[d] = c.arithW(mask, a+s.imm, a, s.imm, false)
	return nil
}

func opSub64(c *CPU, s *step) *Exit {
	d := s.dst
	a, b := c.Regs[d], c.Regs[s.src]
	c.Regs[d] = c.arith64(a-b, a, b, true)
	return nil
}

func opSubW(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a, b := c.Regs[d]&mask, c.Regs[s.src]&mask
	c.Regs[d] = c.arithW(mask, a-b, a, b, true)
	return nil
}

// opSubi64 and opSubiW also run DEC, with an immediate of 1.
func opSubi64(c *CPU, s *step) *Exit {
	d := s.dst
	a := c.Regs[d]
	c.Regs[d] = c.arith64(a-s.imm, a, s.imm, true)
	return nil
}

func opSubiW(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a := c.Regs[d] & mask
	c.Regs[d] = c.arithW(mask, a-s.imm, a, s.imm, true)
	return nil
}

func opCmp64(c *CPU, s *step) *Exit {
	a, b := c.Regs[s.dst], c.Regs[s.src]
	c.arith64(a-b, a, b, true)
	return nil
}

func opCmpW(c *CPU, s *step) *Exit {
	md := c.Mode
	mask := widthMask(md)
	a, b := c.Regs[s.dst]&mask, c.Regs[s.src]&mask
	c.arithW(mask, a-b, a, b, true)
	return nil
}

func opCmpi64(c *CPU, s *step) *Exit {
	a := c.Regs[s.dst]
	c.arith64(a-s.imm, a, s.imm, true)
	return nil
}

func opCmpiW(c *CPU, s *step) *Exit {
	md := c.Mode
	mask := widthMask(md)
	a := c.Regs[s.dst] & mask
	c.arithW(mask, a-s.imm, a, s.imm, true)
	return nil
}

func opNeg(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a := c.Regs[d] & mask
	c.Regs[d] = c.arithW(mask, -a, 0, a, true)
	return nil
}

func opMul(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, (c.Regs[d]&mask)*(c.Regs[s.src]&mask))
	return nil
}

func opDiv(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a, b := signedAt(c.Regs[d]&mask, md), signedAt(c.Regs[s.src]&mask, md)
	if b == 0 {
		return errDiv0
	}
	c.Regs[d] = c.logic(md, uint64(a/b))
	return nil
}

func opMod(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	a, b := signedAt(c.Regs[d]&mask, md), signedAt(c.Regs[s.src]&mask, md)
	if b == 0 {
		return errDiv0
	}
	c.Regs[d] = c.logic(md, uint64(a%b))
	return nil
}

func opAnd(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, c.Regs[d]&mask&(c.Regs[s.src]&mask))
	return nil
}

func opAndi(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	c.Regs[d] = c.logic(md, c.Regs[d]&widthMask(md)&s.imm)
	return nil
}

func opOr(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, (c.Regs[d]&mask)|(c.Regs[s.src]&mask))
	return nil
}

func opOri(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	c.Regs[d] = c.logic(md, (c.Regs[d]&widthMask(md))|s.imm)
	return nil
}

func opXor(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, (c.Regs[d]&mask)^(c.Regs[s.src]&mask))
	return nil
}

func opNot(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = ^(c.Regs[d] & mask) & mask
	return nil
}

func opShlv(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, (c.Regs[d]&mask)<<(c.Regs[s.src]&mask&63))
	return nil
}

func opShrv(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, (c.Regs[d]&mask)>>(c.Regs[s.src]&mask&63))
	return nil
}

func opSarv(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	mask := widthMask(md)
	c.Regs[d] = c.logic(md, uint64(signedAt(c.Regs[d]&mask, md)>>(c.Regs[s.src]&mask&63)))
	return nil
}

func opShl(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	c.Regs[d] = c.logic(md, (c.Regs[d]&widthMask(md))<<s.imm)
	return nil
}

func opShr(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	c.Regs[d] = c.logic(md, (c.Regs[d]&widthMask(md))>>s.imm)
	return nil
}

func opSar(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	c.Regs[d] = c.logic(md, uint64(signedAt(c.Regs[d]&widthMask(md), md)>>s.imm))
	return nil
}

// opJmp ends its trace; a followed JMP is opNop.
func opJmp(c *CPU, s *step) *Exit { c.IP = s.imm; return nil }

func opJcc(c *CPU, s *step) *Exit {
	if jccTaken(isa.Op(s.dst), &c.Flags) {
		c.IP = s.imm
		return errSide
	}
	return nil
}

// opCall64 and opCallW push the return site and end their trace at the
// target; a followed call is opCallIn64 or opCallInW, the push alone.
func opCall64(c *CPU, s *step) *Exit { return c.callTo(s, opCallIn64(c, s)) }

func opCallW(c *CPU, s *step) *Exit { return c.callTo(s, opCallInW(c, s)) }

// callTo moves IP to a CALL's target once its push, which returned ex,
// has completed.
func (c *CPU) callTo(s *step, ex *Exit) *Exit {
	if ex == nil || ex == errSMC {
		c.IP = s.imm
	}
	return ex
}

func opCallIn64(c *CPU, s *step) *Exit {
	sp, ret := c.Regs[isa.RSP]-8, c.after(s, isa.Mode64)
	c.Regs[isa.RSP] = sp
	if c.fastStore64(sp, ret) {
		return nil
	}
	return c.storeSlow(sp, ret, isa.Mode64, "call push: ")
}

func opCallInW(c *CPU, s *step) *Exit {
	md := c.Mode
	c.Regs[isa.RSP] -= uint64(md.Width())
	return c.storeSlow(c.Regs[isa.RSP], c.after(s, md), md, "call push: ")
}

// opRet64 and opRetW end their trace at the popped address; a speculated
// return is opRetSpec64 or opRetSpecW.
func opRet64(c *CPU, s *step) *Exit {
	sp := c.Regs[isa.RSP]
	v, ok := c.fastLoad64(sp)
	if !ok {
		var ex *Exit
		if v, ex = c.loadSlow(sp, isa.Mode64, "ret pop: "); ex != nil {
			return ex
		}
	}
	c.Regs[isa.RSP] = sp + 8
	c.IP = v
	return nil
}

func opRetW(c *CPU, s *step) *Exit {
	md := c.Mode
	v, ex := c.loadSlow(c.Regs[isa.RSP], md, "ret pop: ")
	if ex != nil {
		return ex
	}
	c.Regs[isa.RSP] += uint64(md.Width())
	c.IP = v & widthMask(md)
	return nil
}

func opPush64(c *CPU, s *step) *Exit {
	sp := c.Regs[isa.RSP] - 8
	c.Regs[isa.RSP] = sp
	if c.fastStore64(sp, c.Regs[s.dst]) {
		return nil
	}
	return c.storeSlow(sp, c.Regs[s.dst], isa.Mode64, "push: ")
}

func opPushW(c *CPU, s *step) *Exit {
	md := c.Mode
	c.Regs[isa.RSP] -= uint64(md.Width())
	return c.storeSlow(c.Regs[isa.RSP], c.Regs[s.dst]&widthMask(md), md, "push: ")
}

func opPop64(c *CPU, s *step) *Exit {
	d := s.dst
	sp := c.Regs[isa.RSP]
	v, ok := c.fastLoad64(sp)
	if !ok {
		var ex *Exit
		if v, ex = c.loadSlow(sp, isa.Mode64, "pop: "); ex != nil {
			return ex
		}
	}
	c.Regs[isa.RSP] = sp + 8
	c.Regs[d] = v
	return nil
}

func opPopW(c *CPU, s *step) *Exit {
	d, md := s.dst, c.Mode
	v, ex := c.loadSlow(c.Regs[isa.RSP], md, "pop: ")
	if ex != nil {
		return ex
	}
	c.Regs[isa.RSP] += uint64(md.Width())
	c.Regs[d] = v & widthMask(md)
	return nil
}

// arith64 sets the flags of res = a ± b (sub: minus) at 64-bit width and
// returns res: no masking and a constant sign bit.
func (c *CPU) arith64(res, a, b uint64, sub bool) uint64 {
	c.Flags.ZF = res == 0
	c.Flags.SF = int64(res) < 0
	if sub {
		c.Flags.CF = a < b
		c.Flags.OF = int64((a^b)&(a^res)) < 0
	} else {
		c.Flags.CF = res < a
		c.Flags.OF = int64(^(a^b)&(a^res)) < 0
	}
	return res
}

// arithW is arith64 at the width of mask, the mode's: it returns res
// masked to it.
func (c *CPU) arithW(mask, res, a, b uint64, sub bool) uint64 {
	r, sign := res&mask, mask&^(mask>>1)
	c.Flags.ZF = r == 0
	c.Flags.SF = r&sign != 0
	if sub {
		c.Flags.CF = a&mask < b&mask
	} else {
		c.Flags.CF = r < a&mask
		b = ^b
	}
	c.Flags.OF = (a^b)&(a^res)&sign != 0
	return r
}

// logic sets the flags of a logic, shift, MUL or DIV result at md's width
// and returns the result masked to it.
func (c *CPU) logic(md isa.Mode, res uint64) uint64 {
	r := res & widthMask(md)
	c.Flags.ZF = r == 0
	c.Flags.SF = r&signBit(md) != 0
	c.Flags.CF = false
	c.Flags.OF = false
	return r
}

// fastLoad64/fastStore64 are the long-mode word-access fast paths — a
// data-TLB hit, in bounds and, for a store, onto armed pages (barrier.go)
// — and fastLoadFlat/fastStore32/fastStore16 their flat-mode counterparts,
// where translating an address already masked to the mode's width is the
// identity once protected mode has its GDT. All are small enough that the
// compiler inlines them into each step function, so the common case pays
// no call at all; on a miss the caller falls back to loadSlow or
// storeSlow, which recompute the (uncharged) translation and produce
// identical cycle charges and fault messages.
func (c *CPU) fastLoad64(va uint64) (uint64, bool) {
	if c.dtlbOK && c.dtlbPage == va>>21 {
		if p := c.dtlbBase | (va & 0x1F_FFFF); p+8 <= uint64(len(c.Mem)) {
			c.Clock.Advance(cycles.MemAccess)
			return binary.LittleEndian.Uint64(c.Mem[p : p+8]), true
		}
	}
	return 0, false
}

func (c *CPU) fastStore64(va, v uint64) bool {
	if c.dtlbOK && c.dtlbPage == va>>21 {
		if p := c.dtlbBase | (va & 0x1F_FFFF); p+8 <= uint64(len(c.Mem)) && c.armed(p, 8) {
			binary.LittleEndian.PutUint64(c.Mem[p:p+8], v)
			c.Clock.Advance(cycles.MemStore)
			return true
		}
	}
	return false
}

func (c *CPU) fastLoadFlat(p uint64, md isa.Mode) (uint64, bool) {
	w := uint64(md.Width())
	if (md == isa.Mode32 && c.GDTLimit == 0) || p+w > uint64(len(c.Mem)) {
		return 0, false
	}
	c.Clock.Advance(cycles.MemAccess)
	return isa.Word(c.Mem[p:p+w], md), true
}

func (c *CPU) fastStore32(p uint64, v uint32) bool {
	if c.GDTLimit != 0 && p+4 <= uint64(len(c.Mem)) && c.armed(p, 4) {
		binary.LittleEndian.PutUint32(c.Mem[p:p+4], v)
		c.Clock.Advance(cycles.MemStore)
		return true
	}
	return false
}

func (c *CPU) fastStore16(p uint64, v uint16) bool {
	if p+2 <= uint64(len(c.Mem)) && c.armed(p, 2) {
		binary.LittleEndian.PutUint16(c.Mem[p:p+2], v)
		c.Clock.Advance(cycles.MemStore)
		return true
	}
	return false
}

// fastAddr is Translate's uncharged, fault-free case in mode md (the CPU's
// mode whenever a step runs) for an address already masked to that mode's
// width.
func (c *CPU) fastAddr(va uint64, md isa.Mode) (uint64, bool) {
	if md == isa.Mode64 {
		return c.dtlbBase | (va & 0x1F_FFFF), c.dtlbOK && c.dtlbPage == va>>21
	}
	return va, md == isa.Mode16 || c.GDTLimit != 0
}

// loadSlow is every word load's miss path: the full loadWord, with its
// translation charges; what prefixes a fault's message.
func (c *CPU) loadSlow(va uint64, md isa.Mode, what string) (uint64, *Exit) {
	v, err := c.loadWord(va, md)
	if err != nil {
		return 0, c.fault("%s%v", what, err)
	}
	return v, nil
}

// storeSlow is every word store's miss path: the full storeWord, with its
// translation charges and fault messages, then the self-modification
// hint — only the barrier's slow path can have unhooked a decoded page.
func (c *CPU) storeSlow(va, v uint64, md isa.Mode, what string) *Exit {
	if err := c.storeWord(va, v, md); err != nil {
		return c.fault("%s%v", what, err)
	}
	if c.codeClobbered {
		return errSMC
	}
	return nil
}
