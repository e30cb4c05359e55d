package cpu

// Trace JIT: hot code is compiled into chains of Go closures ("traces"),
// one closure per instruction, each specialized at compile time on
// operand registers, immediates and the mode's width/mask — the
// per-instruction decode-switch disappears from the hot loop, and
// straight-line dispatch overhead is paid once per trace instead of once
// per instruction.
//
// Traces follow control flow, not just fall-through:
//
//   - direct JMP and CALL targets inside the same 4 KiB code page are
//     followed at compile time, so a call's callee body is compiled
//     inline (the architectural push of the return address still
//     happens — only the dispatch is elided);
//   - a RET whose matching CALL was followed is speculated: the closure
//     pops the return address and, when it equals the traced return
//     site, execution continues inline; a mismatch (the guest rewrote
//     its stack) is a side exit with the popped address as the new IP;
//   - conditional branches become side exits: the not-taken path is
//     compiled inline and a taken branch leaves the trace with the
//     target in IP, except that a backward taken arm inside the page (a
//     loop) is followed and falling through leaves the trace — both
//     directions architecturally exact.
//
// Dispatch. The loop in exec.go runs a compiled trace wherever one is
// headed at the current IP and Step everywhere else: specials and
// architectural transitions always, and any offset reached for the first
// time — a trace is compiled only when an offset is dispatched again from
// an already-marked entry, so code that runs once (boot stubs, error
// paths) never pays compilation.
//
// Sharing. Traces hang off the codePage that owns their bytes,
// published copy-on-write under the page's mutex and read with one
// atomic load. Because ShareCode/AdoptCode move whole pages, compiled
// traces travel through Wasp's per-content codeRegistry exactly like
// decoded entries: every tenant clone of an image executes one compiled
// form, and a trace compiled during one tenant's run is immediately
// visible to the others. A per-CPU direct-mapped cache (bcache) fronts
// the page's sorted lookup, and a trace records the virtual address it
// was anchored at so a page mapped at a different virtual address falls
// back to Step instead of following stale targets.
//
// Deoptimization contract. A trace's validity is anchored to its page
// pointer: any write into the page (guest store, host write, reset)
// unhooks the page and the traces with it. On top of that, four paths
// leave a partially-executed trace with bit-exact architectural state:
//
//   - fault: closures return an *Exit; the executor rolls the
//     unexecuted steps' batched cycles back, retires only completed
//     instructions and points IP at the faulting instruction — exactly
//     the legacy fault state;
//   - deopt (errDeopt): the step did not execute at all (Mode32 STORE
//     before the ident-map latch); its own cost is rolled back too and
//     the dispatch loop re-executes it via Step;
//   - self-modification: a store step that invalidated the trace's own
//     page stops the trace after the completed store; the dispatch loop
//     re-decodes the rewritten bytes (detected by the page-pointer
//     check);
//   - budget: a trace is only entered when the remaining instruction
//     budget covers it; otherwise Step runs, keeping the
//     budget-exhaustion fault on the same instruction as a Step-only run.
//
// Traces never leave their 4 KiB physical page (invalidation is
// page-granular), never contain specials (mode switches, I/O), and end
// at the first unfollowable control transfer.

import (
	"encoding/binary"

	"repro/internal/cycles"
	"repro/internal/isa"
)

const (
	bcacheSize    = 512 // direct-mapped per-CPU block cache (power of two)
	maxBlockSteps = 96
)

// step executes one compiled instruction. nil means continue; errDeopt,
// errSide and errDiv0 are sentinels the executor rewrites; any other
// *Exit is an architectural fault with the final message already
// formatted.
type step func(c *CPU) *Exit

var (
	errDeopt = new(Exit) // step did not execute: re-dispatch it
	errSide  = new(Exit) // step completed and set IP: leave the trace
	errDiv0  = new(Exit) // divide by zero: executor formats with the IP
	errSMC   = new(Exit) // store completed and unhooked a decoded page
)

// bcent is one direct-mapped block-cache entry. A hit requires the
// recorded page to still be the one installed for the physical address,
// so invalidation needs no cache maintenance. anchor and nret (its step
// count) duplicate the block's so the chain-probe hot path decides
// hit/miss and budget without touching the cblock's cache line.
type bcent struct {
	phys   uint64
	anchor uint64
	mode   isa.Mode
	nret   uint32
	pg     *codePage
	blk    *cblock
}

// cblock is one compiled trace: its closures and, parallel to them, one
// packed stepMeta per step — what the executor needs to reconstruct exact
// architectural state mid-trace. Every step retires one instruction, so
// the steps through step i retire i+1 and the whole trace len(ops). Both
// slices are exact-size copies of the compiler's scratch arrays, and the
// steps of a repeated loop period share their closures with the period's
// first compile.
type cblock struct {
	ops    []step
	meta   []stepMeta
	anchor uint64 // virtual IP the trace was compiled at
	end    int32  // successor offset when the trace falls off its end
	term   bool   // last step always sets IP itself
	total  uint32 // fixed cost of the whole trace
}

// stepMeta is one step's record. Offsets are signed and relative to the
// entry IP (followed call targets can precede the head); cum runs from
// the first step through this one, so a step's own cost is the
// difference from its predecessor's.
type stepMeta struct {
	off    int16  // offset of the step's instruction
	offEnd int16  // offset of its successor in trace order
	cum    uint16 // cumulative fixed cost (base + mul/div extra)
}

// The packed ranges: a trace never leaves its 4 KiB page, so an offset
// lies within ±codePageSize of the head, and a step costs at most one
// instruction of the dearest kind.
const (
	_ = int16(codePageSize)
	_ = uint16(maxBlockSteps * (cycles.InstrBase + cycles.InstrDiv))
)

// blockAt returns the compiled trace headed at phys (compiling and
// publishing it on first need), or nil when no trace applies — the head
// cannot start one, or an existing trace is anchored at a different
// virtual address than ip.
func (c *CPU) blockAt(pg *codePage, page uint64, off uint32, ip uint64) *cblock {
	phys := page*codePageSize + uint64(off)
	slot := &c.bcache[(phys>>2^phys>>12)&(bcacheSize-1)]
	if slot.phys == phys && slot.mode == c.Mode && slot.pg == pg {
		if slot.anchor != ip {
			return nil
		}
		c.Stats.BlockHits++
		return slot.blk
	}
	key := off | uint32(c.Mode)<<12
	if blk := pg.block(key); blk != nil {
		if blk.anchor != ip {
			return nil
		}
		c.Stats.BlockHits++
		*slot = bcent{phys: phys, anchor: ip, mode: c.Mode, nret: uint32(len(blk.ops)), pg: pg, blk: blk}
		return blk
	}
	blk := c.compileBlock(ip, phys)
	if blk == nil {
		return nil
	}
	pg.addBlock(key, blk)
	c.Stats.BlocksCompiled++
	c.tier(false, ip)
	*slot = bcent{phys: phys, anchor: ip, mode: c.Mode, nret: uint32(len(blk.ops)), pg: pg, blk: blk}
	return blk
}

// execChain runs the compiled trace headed at guest-virtual entryIP and
// keeps going: whenever a trace completes or side-exits onto the head of
// another cached trace, the next one is entered directly — full dispatch
// (entry load, flag checks, page lookup) is skipped between hot traces.
// It returns the instructions retired and a non-nil exit on fault; on a
// nil exit the dispatch loop re-examines state from scratch (the chain
// only breaks on deopt, self-modification, budget, or a cache miss, all
// of which require that). Each trace's whole fixed cost is batched up
// front and rolled back pro rata on any early return, so the clock
// observed at every exit equals the legacy engine's bit for bit.
//
// Anything that invalidates a trace also breaks the chain: invalidation
// unhooks the page, and the probe's page-identity check fails.
func (c *CPU) execChain(blk *cblock, entryIP, page uint64, pg *codePage, pending *uint64, budget uint64) (uint64, *Exit) {
	steps := uint64(0)
	for {
		c.blockEntry = entryIP
		*pending += uint64(blk.total)
		i, ex := c.runSteps(blk.ops, 0)
		for ex == errSMC {
			// The store completed and unhooked some decoded page; the hint
			// is consumed either way. After the final step nothing needs
			// stopping (the probe below re-validates the page), and a hit
			// on another page is re-validated by the dispatch loop when
			// reached: carry on.
			c.codeClobbered = false
			if i == len(blk.ops)-1 {
				ex = nil
			} else if c.codeAt(page) == pg {
				i, ex = c.runSteps(blk.ops, i+1)
			} else {
				// Self-modification: everything through step i executed
				// architecturally; stop before the next step so the
				// modified bytes are re-decoded.
				done := c.retireThrough(blk, i, pending)
				c.IP = entryIP + uint64(int64(blk.meta[i].offEnd))
				c.Stats.BlockDeopts++
				c.tier(true, entryIP)
				return steps + done, nil
			}
		}
		switch ex {
		case nil:
			if !blk.term {
				c.IP = entryIP + uint64(int64(blk.end))
			}
			c.Retired += uint64(len(blk.ops))
			steps += uint64(len(blk.ops))
		case errSide:
			// Side exit (taken branch, return-speculation miss): the step
			// completed and set IP itself.
			steps += c.retireThrough(blk, i, pending)
		default:
			done, fault := c.blockStop(blk, i, entryIP, pending, ex)
			return steps + done, fault
		}
		entryIP = c.IP
		if entryIP == blk.anchor && uint64(len(blk.ops)) <= budget-steps {
			// Side exit straight back to this trace's own head (a loop
			// back-edge or recursion spine). Mid-trace invariants make
			// the full probe redundant: no special can have changed the
			// mode or translations, and any store that unhooked the
			// trace's page would have stopped it via errSMC.
			c.Stats.BlockHits++
			continue
		}
		if !c.fetchOK || entryIP < c.fetchVBase || entryIP >= c.fetchVEnd {
			return steps, nil
		}
		phys := c.fetchPBase + (entryIP - c.fetchVBase)
		slot := &c.bcache[(phys>>2^phys>>12)&(bcacheSize-1)]
		if slot.phys != phys || slot.mode != c.Mode || slot.anchor != entryIP ||
			uint64(slot.nret) > budget-steps {
			return steps, nil
		}
		page = phys / codePageSize
		// A never-filled slot is all zeroes and would match a real-mode
		// jump to address 0 on an undecoded page: no page, no hit.
		if pg = c.codeAt(page); pg == nil || pg != slot.pg {
			return steps, nil
		}
		blk = slot.blk
		c.Stats.BlockHits++
	}
}

// retireThrough retires a trace's steps up to and including step i, all
// of which completed, and rolls back the batched cost of the rest.
func (c *CPU) retireThrough(blk *cblock, i int, pending *uint64) uint64 {
	done := uint64(i + 1)
	*pending -= uint64(blk.total) - uint64(blk.meta[i].cum)
	c.Retired += done
	return done
}

// runSteps runs ops from i until a step returns non-nil, and returns that
// step's index and exit, or len(ops) and nil. It is the whole
// per-instruction path, kept out of line so that only c, ops and i are live
// across each closure call — every register is clobbered there, and
// execChain's dozen live values would be reloaded per instruction.
//
//go:noinline
func (c *CPU) runSteps(ops []step, i int) (int, *Exit) {
	for ; i < len(ops); i++ {
		if ex := ops[i](c); ex != nil {
			return i, ex
		}
	}
	return i, nil
}

// blockStop reconstructs exact architectural state when step i of a
// trace stopped it short: a deopt request, or a fault (including the
// errDiv0 sentinel, formatted here with the faulting IP). It returns the
// instructions retired and the fault, nil for a deopt.
func (c *CPU) blockStop(blk *cblock, i int, entryIP uint64, pending *uint64, ex *Exit) (uint64, *Exit) {
	var before stepMeta // cum through step i-1
	if i > 0 {
		before = blk.meta[i-1]
	}
	done := uint64(i)
	c.Retired += done
	c.IP = entryIP + uint64(int64(blk.meta[i].off))
	if ex == errDeopt {
		// The step did not execute: roll back its cost too and let the
		// dispatch loop re-execute it via Step.
		*pending -= uint64(blk.total) - uint64(before.cum)
		c.Stats.BlockDeopts++
		c.tier(true, entryIP)
		return done, nil
	}
	if ex == errDiv0 {
		ex = c.fault("divide by zero at %#x", c.IP)
	}
	*pending -= uint64(blk.total) - uint64(blk.meta[i].cum)
	return done, ex
}

// fastLoad64/fastStore64 are the long-mode word-access fast paths — a
// data-TLB hit, in bounds and, for a store, onto armed pages (barrier.go)
// — and fastLoadFlat/fastStore32/fastStore16 their flat-mode counterparts,
// where translating an address already masked to the mode's width is the
// identity once protected mode has its GDT. All are small enough that the
// compiler inlines them into each compiled closure, so the common case
// pays no call at all; on a miss the caller falls back to loadWord or
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

// fastAddr is Translate's uncharged, fault-free case for a closure
// compiled in mode md (the CPU's mode whenever the closure runs) and an
// address already masked to that mode's width.
func (c *CPU) fastAddr(va uint64, md isa.Mode) (uint64, bool) {
	if md == isa.Mode64 {
		return c.dtlbBase | (va & 0x1F_FFFF), c.dtlbOK && c.dtlbPage == va>>21
	}
	return va, md == isa.Mode16 || c.GDTLimit != 0
}

// storeSlow is every store closure's miss path: the full storeWord, with
// its translation charges and fault messages, then the self-modification
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

// setArithW/setLogicW are setArith/setLogic with the mode's mask and sign
// bit supplied by the (compile-time-specialized) caller.
func (c *CPU) setArithW(res, a, b uint64, sub bool, mask, sign uint64) {
	r := res & mask
	c.Flags.ZF = r == 0
	c.Flags.SF = r&sign != 0
	if sub {
		c.Flags.CF = (a & mask) < (b & mask)
		c.Flags.OF = (a^b)&(a^res)&sign != 0
	} else {
		c.Flags.CF = r < (a & mask)
		c.Flags.OF = ^(a^b)&(a^res)&sign != 0
	}
}

// setArith64 is setArithW specialized to 64-bit width: no masking and a
// constant sign bit, so a Mode64 arithmetic closure carries two fewer
// captured variables and no masking ALU ops.
func (c *CPU) setArith64(res, a, b uint64, sub bool) {
	c.Flags.ZF = res == 0
	c.Flags.SF = int64(res) < 0
	if sub {
		c.Flags.CF = a < b
		c.Flags.OF = int64((a^b)&(a^res)) < 0
	} else {
		c.Flags.CF = res < a
		c.Flags.OF = int64(^(a^b)&(a^res)) < 0
	}
}

func (c *CPU) setLogicW(res uint64, mask, sign uint64) {
	r := res & mask
	c.Flags.ZF = r == 0
	c.Flags.SF = r&sign != 0
	c.Flags.CF = false
	c.Flags.OF = false
}

var stepNop = func(c *CPU) *Exit { return nil }

// compileBlock builds the trace anchored at virtual ip / physical phys:
// it decodes forward, emitting one closure per instruction, following
// direct JMP and CALL targets that stay inside the head's 4 KiB page, and
// speculating the RETs that match followed CALLs. A loop body is
// compiled once: when a back-edge closes a period that would compile
// again to the same steps, the period repeats (repeat, below).
// Compilation stops at a special, a decode stop, the page boundary, an
// unfollowable control transfer, or the step cap. The closures capture
// operands and the mode's width/mask — never the CPU, its memory, or
// absolute step addresses (only branch-target immediates, which are
// architectural) — so a trace is shareable across every CPU whose page
// bytes match (which AdoptCode guarantees).
func (c *CPU) compileBlock(ip, phys uint64) *cblock {
	mode := c.Mode
	w := uint64(mode.Width())
	mask := widthMask(mode)
	sign := signBit(mode)
	pBase := phys &^ (codePageSize - 1)
	head := int32(phys - pBase) // the head's page offset

	// The trace is built in scratch arrays and copied out once. Beside
	// each step they record what its compile read besides its bytes: the
	// return-stack depth before it, and the page offset + 1 of a backward
	// branch target it found not compiled yet (0: none). repeat reads
	// them to tell when compiling on would only repeat earlier steps.
	var (
		ops         [maxBlockSteps]step
		meta        [maxBlockSteps]stepMeta
		depth       [maxBlockSteps]uint8
		miss        [maxBlockSteps]uint16
		rets        [maxBlockSteps]int32      // return sites of followed CALLs, innermost last
		seen        [codePageSize / 64]uint64 // page offsets of compiled steps
		nops, nrets int
		total       uint16
		term        bool
		rel         int32
	)
	add := func(fn step, rel, next int32, cost uint8) {
		total += uint16(cost)
		ops[nops] = fn
		meta[nops] = stepMeta{off: int16(rel), offEnd: int16(next), cum: total}
		nops++
	}
	marked := func(o int32) bool { return seen[o>>6]&(1<<(o&63)) != 0 }
	// backEdge reports whether a branch at rel to the in-page offset r2
	// is a loop or recursion spine: backward, onto a compiled step. A
	// backward target not compiled yet is the current step's miss.
	backEdge := func(rel, r2 int32) bool {
		if r2 >= rel {
			return false
		}
		if marked(head + r2) {
			return true
		}
		miss[nops] = uint16(head + r2 + 1)
		return false
	}
	// repeat runs when a followed back-edge has just set rel to an offset
	// compiled before. Compiling on would emit again the steps since the
	// last one there (the period) if their compile sees what it saw: the
	// return stack is closed over the period — as deep at its end as at
	// its start and never shallower between — and no backward target the
	// period found not compiled has been compiled since. Then the period
	// repeats up to the step cap, sharing its closures and offsets while
	// cum runs on, and repeat reports that the trace is complete.
	repeat := func() bool {
		p := nops - 1 // a marked offset always holds a step
		for meta[p].off != int16(rel) {
			p--
		}
		if int(depth[p]) != nrets {
			return false
		}
		for j := p; j < nops; j++ {
			if depth[j] < depth[p] || miss[j] != 0 && marked(int32(miss[j])-1) {
				return false
			}
		}
		var before stepMeta
		if p > 0 {
			before = meta[p-1]
		}
		period, pc := nops-p, total-before.cum
		for ; nops < maxBlockSteps; nops++ {
			m := meta[nops-period]
			m.cum += pc
			ops[nops], meta[nops] = ops[nops-period], m
		}
		total = meta[nops-1].cum
		rel = int32(meta[nops-1].offEnd)
		return true
	}
	// follow resolves a direct branch target to a trace-relative offset,
	// or reports that the trace cannot continue there: the target's
	// physical location must sit in the head's page and be reachable
	// through the same linear translation window the head was fetched
	// from (in long mode, the same 2 MB virtual page).
	follow := func(t uint64) (int32, bool) {
		if mode == isa.Mode64 && t>>21 != ip>>21 {
			return 0, false
		}
		d := int64(t) - int64(ip)
		np := int64(phys) + d
		if np < int64(pBase) || np >= int64(pBase)+codePageSize {
			return 0, false
		}
		return int32(d), true
	}
compile:
	for nops < maxBlockSteps {
		pp := int64(phys) + int64(rel)
		if pp < int64(pBase) || pp >= int64(pBase)+codePageSize {
			break
		}
		o := head + rel
		seen[o>>6] |= 1 << (o & 63)
		depth[nops] = uint8(nrets)
		in, err := isa.Decode(c.Mem, uint64(pp), mode)
		if err != nil {
			break
		}
		n := int32(in.Len)
		if pp+int64(n) > int64(pBase)+codePageSize || specialOp[in.Op] {
			break
		}
		var fn step
		cost := baseCost(in.Op)
		dst, src, imm := in.Dst, in.Src, in.Imm
		addrImm := in.Imm & mask

		switch in.Op {
		case isa.NOP, isa.CLI, isa.STI:
			fn = stepNop

		case isa.MOVI:
			v := imm & mask
			fn = func(c *CPU) *Exit { c.Regs[dst] = v; return nil }
		case isa.MOV:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit { c.Regs[dst] = c.Regs[src]; return nil }
				break
			}
			fn = func(c *CPU) *Exit { c.Regs[dst] = c.Regs[src] & mask; return nil }

		case isa.LOAD:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					va := c.Regs[src] + imm
					if v, ok := c.fastLoad64(va); ok {
						c.Regs[dst] = v
						return nil
					}
					v, err := c.loadWord(va, isa.Mode64)
					if err != nil {
						return c.fault("%v", err)
					}
					c.Regs[dst] = v
					return nil
				}
				break
			}
			md := mode
			fn = func(c *CPU) *Exit {
				va := (c.Regs[src]&mask + imm) & mask
				v, ok := c.fastLoadFlat(va, md)
				if !ok {
					var err error
					if v, err = c.loadWord(va, md); err != nil {
						return c.fault("%v", err)
					}
				}
				c.Regs[dst] = v & mask
				return nil
			}
		case isa.STORE:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					va := c.Regs[dst] + imm
					if c.fastStore64(va, c.Regs[src]) {
						return nil
					}
					return c.storeSlow(va, c.Regs[src], isa.Mode64, "")
				}
				break
			}
			if mode == isa.Mode32 {
				fn = func(c *CPU) *Exit {
					// The ident-map latch may be unset on a CPU that
					// adopted this trace: deopt to Step, which records
					// the milestone.
					if !c.sawStore32 {
						return errDeopt
					}
					va := (c.Regs[dst] + imm) & mask
					if c.fastStore32(va, uint32(c.Regs[src])) {
						return nil
					}
					return c.storeSlow(va, c.Regs[src]&mask, isa.Mode32, "")
				}
				break
			}
			fn = func(c *CPU) *Exit {
				va := (c.Regs[dst] + imm) & mask
				if c.fastStore16(va, uint16(c.Regs[src])) {
					return nil
				}
				return c.storeSlow(va, c.Regs[src]&mask, isa.Mode16, "")
			}
		case isa.LOADB:
			md := mode
			fn = func(c *CPU) *Exit {
				va := (c.Regs[src]&mask + imm) & mask
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
				c.Regs[dst] = uint64(c.Mem[p])
				return nil
			}
		case isa.STOREB:
			md := mode
			fn = func(c *CPU) *Exit {
				va := (c.Regs[dst]&mask + imm) & mask
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
				c.Mem[p] = byte(c.Regs[src] & mask)
				if !c.armed(p, 1) {
					c.StoreBarrier(p, 1)
					if c.codeClobbered {
						return errSMC
					}
				}
				return nil
			}

		case isa.ADD:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a, b := c.Regs[dst], c.Regs[src]
					r := a + b
					c.setArith64(r, a, b, false)
					c.Regs[dst] = r
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a, b := c.Regs[dst]&mask, c.Regs[src]&mask
				r := a + b
				c.setArithW(r, a, b, false, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.ADDI:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a := c.Regs[dst]
					r := a + imm
					c.setArith64(r, a, imm, false)
					c.Regs[dst] = r
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := a + imm
				c.setArithW(r, a, imm, false, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SUB:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a, b := c.Regs[dst], c.Regs[src]
					r := a - b
					c.setArith64(r, a, b, true)
					c.Regs[dst] = r
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a, b := c.Regs[dst]&mask, c.Regs[src]&mask
				r := a - b
				c.setArithW(r, a, b, true, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SUBI:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a := c.Regs[dst]
					r := a - imm
					c.setArith64(r, a, imm, true)
					c.Regs[dst] = r
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := a - imm
				c.setArithW(r, a, imm, true, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.MUL:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) * (c.Regs[src] & mask)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.DIV, isa.MOD:
			div := in.Op == isa.DIV
			md := mode
			fn = func(c *CPU) *Exit {
				a := signedAt(c.Regs[dst]&mask, md)
				b := signedAt(c.Regs[src]&mask, md)
				if b == 0 {
					return errDiv0
				}
				var r int64
				if div {
					r = a / b
				} else {
					r = a % b
				}
				c.setLogicW(uint64(r), mask, sign)
				c.Regs[dst] = uint64(r) & mask
				return nil
			}
		case isa.AND:
			fn = func(c *CPU) *Exit {
				r := c.Regs[dst] & mask & (c.Regs[src] & mask)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.ANDI:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) & imm
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.OR:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) | (c.Regs[src] & mask)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.ORI:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) | imm
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.XOR:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) ^ (c.Regs[src] & mask)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SHLV:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) << (c.Regs[src] & mask & 63)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SHRV:
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) >> (c.Regs[src] & mask & 63)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SARV:
			md := mode
			fn = func(c *CPU) *Exit {
				r := uint64(signedAt(c.Regs[dst]&mask, md) >> (c.Regs[src] & mask & 63))
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SHL:
			sh := imm & 63
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) << sh
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SHR:
			sh := imm & 63
			fn = func(c *CPU) *Exit {
				r := (c.Regs[dst] & mask) >> sh
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.SAR:
			sh := imm & 63
			md := mode
			fn = func(c *CPU) *Exit {
				r := uint64(signedAt(c.Regs[dst]&mask, md) >> sh)
				c.setLogicW(r, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.NEG:
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := -a
				c.setArithW(r, 0, a, true, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.NOT:
			fn = func(c *CPU) *Exit {
				c.Regs[dst] = ^(c.Regs[dst] & mask) & mask
				return nil
			}
		case isa.INC:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a := c.Regs[dst]
					r := a + 1
					c.setArith64(r, a, 1, false)
					c.Regs[dst] = r
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := a + 1
				c.setArithW(r, a, 1, false, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.DEC:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a := c.Regs[dst]
					r := a - 1
					c.setArith64(r, a, 1, true)
					c.Regs[dst] = r
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := a - 1
				c.setArithW(r, a, 1, true, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.CMP:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a, b := c.Regs[dst], c.Regs[src]
					c.setArith64(a-b, a, b, true)
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a, b := c.Regs[dst]&mask, c.Regs[src]&mask
				c.setArithW(a-b, a, b, true, mask, sign)
				return nil
			}
		case isa.CMPI:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					a := c.Regs[dst]
					c.setArith64(a-imm, a, imm, true)
					return nil
				}
				break
			}
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				c.setArithW(a-imm, a, imm, true, mask, sign)
				return nil
			}

		case isa.JMP:
			if r2, ok := follow(addrImm); ok {
				add(stepNop, rel, r2, cost)
				rel = r2
				if marked(head+r2) && repeat() {
					break compile
				}
				continue
			}
			t := addrImm
			fn = func(c *CPU) *Exit { c.IP = t; return nil }
			term = true
			add(fn, rel, rel+n, cost)
			break compile
		case isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE, isa.JB, isa.JAE:
			// Conditional branches never terminate a trace: one arm is
			// compiled inline, the other is a side exit. A backward
			// in-page taken arm (loop, recursion spine) is the one
			// followed; otherwise the fall-through is.
			jop := in.Op
			t := addrImm
			if r2, ok := follow(t); ok && backEdge(rel, r2) {
				fall := uint64(int64(rel + n))
				fn = func(c *CPU) *Exit {
					if !jccTaken(jop, &c.Flags) {
						c.IP = c.blockEntry + fall
						return errSide
					}
					return nil
				}
				add(fn, rel, r2, cost)
				rel = r2
				if repeat() {
					break compile
				}
				continue
			}
			fn = func(c *CPU) *Exit {
				if jccTaken(jop, &c.Flags) {
					c.IP = t
					return errSide
				}
				return nil
			}
			add(fn, rel, rel+n, cost)
			rel += n
			continue
		case isa.CALL:
			t := addrImm
			retRel := rel + n
			exp := uint64(int64(retRel))
			if r2, ok := follow(t); ok {
				// Followed call: push the return address architecturally
				// and continue compiling at the callee.
				if mode == isa.Mode64 {
					fn = func(c *CPU) *Exit {
						sp := c.Regs[isa.RSP] - 8
						c.Regs[isa.RSP] = sp
						if c.fastStore64(sp, c.blockEntry+exp) {
							return nil
						}
						return c.storeSlow(sp, c.blockEntry+exp, isa.Mode64, "call push: ")
					}
				} else {
					md := mode
					fn = func(c *CPU) *Exit {
						c.Regs[isa.RSP] -= w
						return c.storeSlow(c.Regs[isa.RSP], c.blockEntry+exp, md, "call push: ")
					}
				}
				add(fn, rel, r2, cost)
				rets[nrets] = retRel
				nrets++
				rel = r2
				continue
			}
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					sp := c.Regs[isa.RSP] - 8
					c.Regs[isa.RSP] = sp
					var ex *Exit
					if !c.fastStore64(sp, c.blockEntry+exp) {
						ex = c.storeSlow(sp, c.blockEntry+exp, isa.Mode64, "call push: ")
					}
					if ex == nil || ex == errSMC {
						c.IP = t
					}
					return ex
				}
			} else {
				md := mode
				fn = func(c *CPU) *Exit {
					c.Regs[isa.RSP] -= w
					ex := c.storeSlow(c.Regs[isa.RSP], c.blockEntry+exp, md, "call push: ")
					if ex == nil || ex == errSMC {
						c.IP = t
					}
					return ex
				}
			}
			term = true
			add(fn, rel, retRel, cost)
			break compile
		case isa.RET:
			if nrets > 0 {
				// Speculated return: the matching CALL is in this trace,
				// so the popped address should be its return site. A
				// mismatch (the guest rewrote its stack) side-exits with
				// the popped address — exactly the architectural result.
				nrets--
				retRel := rets[nrets]
				exp := uint64(int64(retRel))
				if mode == isa.Mode64 {
					fn = func(c *CPU) *Exit {
						sp := c.Regs[isa.RSP]
						v, ok := c.fastLoad64(sp)
						if !ok {
							var err error
							if v, err = c.loadWord(sp, isa.Mode64); err != nil {
								return c.fault("ret pop: %v", err)
							}
						}
						c.Regs[isa.RSP] = sp + 8
						if v != c.blockEntry+exp {
							c.IP = v
							return errSide
						}
						return nil
					}
				} else {
					md := mode
					fn = func(c *CPU) *Exit {
						v, err := c.loadWord(c.Regs[isa.RSP], md)
						if err != nil {
							return c.fault("ret pop: %v", err)
						}
						c.Regs[isa.RSP] += w
						if v&mask != c.blockEntry+exp {
							c.IP = v & mask
							return errSide
						}
						return nil
					}
				}
				add(fn, rel, retRel, cost)
				rel = retRel
				continue
			}
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					sp := c.Regs[isa.RSP]
					v, ok := c.fastLoad64(sp)
					if !ok {
						var err error
						if v, err = c.loadWord(sp, isa.Mode64); err != nil {
							return c.fault("ret pop: %v", err)
						}
					}
					c.Regs[isa.RSP] = sp + 8
					c.IP = v
					return nil
				}
			} else {
				md := mode
				fn = func(c *CPU) *Exit {
					v, err := c.loadWord(c.Regs[isa.RSP], md)
					if err != nil {
						return c.fault("ret pop: %v", err)
					}
					c.Regs[isa.RSP] += w
					c.IP = v & mask
					return nil
				}
			}
			term = true
			add(fn, rel, rel+n, cost)
			break compile
		case isa.PUSH:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					sp := c.Regs[isa.RSP] - 8
					c.Regs[isa.RSP] = sp
					if c.fastStore64(sp, c.Regs[dst]) {
						return nil
					}
					return c.storeSlow(sp, c.Regs[dst], isa.Mode64, "push: ")
				}
			} else {
				md := mode
				fn = func(c *CPU) *Exit {
					c.Regs[isa.RSP] -= w
					return c.storeSlow(c.Regs[isa.RSP], c.Regs[dst]&mask, md, "push: ")
				}
			}
		case isa.POP:
			if mode == isa.Mode64 {
				fn = func(c *CPU) *Exit {
					sp := c.Regs[isa.RSP]
					v, ok := c.fastLoad64(sp)
					if !ok {
						var err error
						if v, err = c.loadWord(sp, isa.Mode64); err != nil {
							return c.fault("pop: %v", err)
						}
					}
					c.Regs[isa.RSP] = sp + 8
					c.Regs[dst] = v
					return nil
				}
			} else {
				md := mode
				fn = func(c *CPU) *Exit {
					v, err := c.loadWord(c.Regs[isa.RSP], md)
					if err != nil {
						return c.fault("pop: %v", err)
					}
					c.Regs[isa.RSP] += w
					c.Regs[dst] = v & mask
					return nil
				}
			}

		default:
			// Unknown op: stop the trace; the dispatch loop faults on it
			// with the legacy message.
			break compile
		}
		add(fn, rel, rel+n, cost)
		rel += n
	}
	if nops == 0 {
		return nil
	}
	// rel is the offset of the next instruction to execute whenever the
	// loop stopped without a terminator (step cap, decode stop, page
	// boundary, special): that is where a completed trace resumes.
	blk := &cblock{
		ops: make([]step, nops), meta: make([]stepMeta, nops),
		anchor: ip, end: rel, term: term, total: uint32(total),
	}
	copy(blk.ops, ops[:nops])
	copy(blk.meta, meta[:nops])
	return blk
}
