package cpu

// Counted store loops (README, "Counted store loops"). A trace whose head is
//
//	head:  STORE [r+disp], r | ADD r, r | ADDI | SUB | SUBI   (1..16 of them)
//	       DEC rc
//	       JNZ head
//
// where only the DEC writes rc and no register ADD/SUB reads a register the
// loop writes, is affine — every register, store address and store value
// at iteration i is start + i·step — and runs as one kernel instead of a
// closure per instruction: write the words, add k·step to each register.
// The boot stub's table loops (internal/guest/boot.go) are this shape.
//
// The kernel does only what the closures' fast paths would have done, bit
// for bit. It takes whole iterations while it can prove they stay there:
// counter − 1 at most (the loop exit stays with the closures); what the
// budget covers with the trace's nret to spare (the entry gate still holds
// afterwards, so the budget fault lands where Step puts it); every store
// inside guest memory, inside the data TLB's 2 MiB page in long mode, and
// on a page without decode state; none in Mode32 without a GDT or before
// the ident-map latch. Otherwise it returns 0 and the trace runs as before.
// It hangs off the shared cblock: immutable, every per-run value a local.

import (
	"repro/internal/cycles"
	"repro/internal/isa"
)

const (
	maxLoopBody   = 16 // instructions before the closing DEC/JNZ
	maxLoopStores = 4
)

type loopKernel struct {
	body    []isa.Inst // one iteration, minus DEC rc / JNZ head
	rc      isa.Reg
	mode    isa.Mode
	written uint16 // registers an iteration writes, rc included
	n       uint64 // instructions per iteration
	cost    uint64 // cycles per iteration: fixed costs plus MemStore per store
}

// compileLoop recognises a counted store loop headed at virtual ip /
// physical phys, or returns nil.
func compileLoop(mem []byte, ip, phys uint64, mode isa.Mode) *loopKernel {
	pageEnd := phys&^(codePageSize-1) + codePageSize
	l := &loopKernel{mode: mode}
	var stepped, srcs uint16 // ALU destinations; register ALU sources
	stores := 0
	for p := phys; ; {
		in, err := isa.Decode(mem, p, mode)
		if err != nil || p+uint64(in.Len) > pageEnd {
			return nil
		}
		p += uint64(in.Len)
		l.cost += uint64(baseCost(in.Op))
		switch in.Op {
		case isa.STORE:
			stores++
			l.cost += cycles.MemStore
		case isa.ADD, isa.SUB:
			srcs |= 1 << in.Src
			stepped |= 1 << in.Dst
		case isa.ADDI, isa.SUBI:
			stepped |= 1 << in.Dst
		case isa.DEC:
			jn, err := isa.Decode(mem, p, mode)
			l.written = stepped | 1<<in.Dst
			if err != nil || jn.Op != isa.JNZ || jn.Imm&widthMask(mode) != ip || p+uint64(jn.Len) > pageEnd ||
				stores == 0 || stores > maxLoopStores || stepped&(1<<in.Dst) != 0 || srcs&l.written != 0 {
				return nil
			}
			l.rc = in.Dst
			l.n = uint64(len(l.body)) + 2
			l.cost += uint64(baseCost(isa.JNZ))
			return l
		default:
			return nil
		}
		if len(l.body) == maxLoopBody {
			return nil
		}
		l.body = append(l.body, in)
	}
}

// loopStore is one of an iteration's stores over the current chunk.
type loopStore struct {
	base, src isa.Reg
	a         uint64 // linear address, this iteration
	p, dp     uint64 // physical address and its per-iteration step
	v, dv     uint64 // value and its step
}

// writeChunk performs k iterations' stores in program order. It is its own
// function so the two loop counters and the memory base stay in registers,
// and it computes each word from i rather than stepping the loopStore in
// place, which would chain every word through a store-to-load forward.
//
//go:noinline
func writeChunk(mem []byte, st []loopStore, k uint64, mode isa.Mode) {
	for i := uint64(0); i < k; i++ {
		for j := range st {
			s := &st[j]
			isa.PutWord(mem[s.p+i*s.dp:], mode, s.v+i*s.dv)
		}
	}
}

// runLoop retires whole iterations of l at its head and returns the
// instructions retired; room is the instruction budget left over once the
// enclosing trace's nret is set aside. Registers, flags, memory, page
// state, the batched clock and Retired end exactly where the closures
// would have left them after the same iterations; IP stays at the head.
func (c *CPU) runLoop(l *loopKernel, room uint64, pending *uint64) uint64 {
	mask, w := widthMask(l.mode), uint64(l.mode.Width())
	// Stores whose first byte lies in [first, last] need no charged
	// translation and stay in bounds; physical = linear − first + pbase.
	var first, pbase uint64
	span := mask
	switch l.mode {
	case isa.Mode64:
		if !c.dtlbOK {
			return 0
		}
		first, pbase, span = c.dtlbPage<<21, c.dtlbBase, 0x1F_FFFF
	case isa.Mode32:
		if c.GDTLimit == 0 || !c.sawStore32 {
			return 0
		}
	}
	if uint64(len(c.Mem)) < pbase+w {
		return 0
	}
	last := first + min(uint64(len(c.Mem))-w-pbase, span)

	var done uint64
	for iters := room / l.n; done < iters; {
		k := min(iters-done, (c.Regs[l.rc]-1)&mask)
		// Iteration 0 on a copy of the registers gives each store's
		// address and value and, as after − before, every register's step.
		r := c.Regs
		var st [maxLoopStores]loopStore
		ns := 0
		for _, in := range l.body {
			d := &r[in.Dst]
			switch in.Op {
			case isa.STORE:
				st[ns] = loopStore{base: in.Dst, src: in.Src, a: (*d + in.Imm) & mask, v: r[in.Src]}
				ns++
			case isa.ADD:
				*d = (*d + r[in.Src]) & mask
			case isa.ADDI:
				*d = (*d + in.Imm) & mask
			case isa.SUB:
				*d = (*d - r[in.Src]) & mask
			case isa.SUBI:
				*d = (*d - in.Imm) & mask
			}
		}
		r[l.rc] = (r[l.rc] - 1) & mask
		// Clamp the chunk so each store's first and last byte stay on the
		// page they start on (and inside the window).
		for i := range st[:ns] {
			s := &st[i]
			if s.a < first || s.a > last {
				k = 0
				break
			}
			s.p = s.a - first + pbase
			if (c.pstate[s.p/codePageSize]|c.pstate[(s.p+w-1)/codePageSize])&pageCode != 0 {
				k = 0
				break
			}
			o0, o1 := s.p%codePageSize, (s.p+w-1)%codePageSize
			step := signedAt(r[s.base]-c.Regs[s.base], l.mode)
			if step > 0 {
				k = min(k, min(last-s.a, codePageSize-1-max(o0, o1))/uint64(step)+1)
			} else if step < 0 {
				k = min(k, min(s.a-first, o0, o1)/uint64(-step)+1)
			}
			s.dp, s.dv = uint64(step), r[s.src]-c.Regs[s.src]
		}
		if k == 0 {
			break
		}
		for i := range st[:ns] {
			p := st[i].p
			c.pstate[p/codePageSize], c.pstate[(p+w-1)/codePageSize] = pageDirty, pageDirty
		}
		writeChunk(c.Mem, st[:ns], k, l.mode)
		for x := range r {
			if l.written>>x&1 != 0 {
				c.Regs[x] = (c.Regs[x] + k*(r[x]-c.Regs[x])) & mask
			}
		}
		done += k
	}
	if done == 0 {
		return 0
	}
	// Flags are what the last DEC left (JNZ reads them, writes none).
	a := (c.Regs[l.rc] + 1) & mask
	c.setArithW(a-1, a, 1, true, mask, signBit(l.mode))
	*pending += done * l.cost
	done *= l.n
	c.Retired += done
	c.Stats.LoopRetired += done
	return done
}
