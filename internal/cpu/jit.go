package cpu

// Trace JIT: hot code is compiled into chains of Go closures ("traces"),
// one closure per instruction (or per fused flag-setter/branch pair),
// each specialized at compile time on operand registers, immediates and
// the mode's width/mask — the per-instruction decode-switch disappears
// from the hot loop, and straight-line dispatch overhead is paid once
// per trace instead of once per instruction.
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
//     target in IP — both directions architecturally exact.
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
// the map lookup, and a trace records the virtual address it was
// anchored at so a page mapped at a different virtual address falls
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
// so invalidation needs no cache maintenance. anchor and nret duplicate
// the block's fields so the chain-probe hot path decides hit/miss and
// budget without touching the cblock's cache line.
type bcent struct {
	phys   uint64
	anchor uint64
	mode   isa.Mode
	nret   uint32
	pg     *codePage
	blk    *cblock
}

// cblock is one compiled trace. The parallel arrays carry the metadata
// the executor needs to reconstruct exact architectural state mid-trace:
// per-step instruction offsets (signed, relative to the entry IP —
// followed call targets can precede the head), fixed cycle costs and
// retire counts, all cumulative-summed.
type cblock struct {
	ops    []step
	off    []int32     // offset of the step's instruction
	offEnd []int32     // offset of its successor in trace order
	cost   []uint8     // fixed cost (base + mul/div extra; both halves if fused)
	cum    []uint32    // cumulative cost through this step
	ret    []uint8     // instructions this step retires (1, or 2 for fused)
	cumRet []uint32    // cumulative retires through this step
	anchor uint64      // virtual IP the trace was compiled at
	end    int32       // successor offset when the trace falls off its end
	term   bool        // last step always sets IP itself
	total  uint32      // sum of cost
	nret   uint32      // sum of ret
	loop   *loopKernel // the head is a counted store loop (loop.go), or nil
}

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
	if m := pg.blocks.Load(); m != nil {
		if blk := (*m)[key]; blk != nil {
			if blk.anchor != ip {
				return nil
			}
			c.Stats.BlockHits++
			*slot = bcent{phys: phys, anchor: ip, mode: c.Mode, nret: blk.nret, pg: pg, blk: blk}
			return blk
		}
	}
	blk := c.compileBlock(ip, phys)
	if blk == nil {
		return nil
	}
	pg.addBlock(key, blk)
	c.Stats.BlocksCompiled++
	c.tier(false, ip)
	*slot = bcent{phys: phys, anchor: ip, mode: c.Mode, nret: blk.nret, pg: pg, blk: blk}
	return blk
}

// execChain runs the compiled trace headed at guest-virtual entryIP and
// keeps going: whenever a trace completes or side-exits onto the head of
// another cached trace, the next one is entered directly — full dispatch
// (entry load, flag checks, map probe) is skipped between hot traces.
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
		if blk.loop != nil {
			steps += c.runLoop(blk.loop, budget-steps-uint64(blk.nret), pending)
		}
		c.blockEntry = entryIP
		*pending += uint64(blk.total)
		ops := blk.ops
		last := len(ops) - 1
		for i := 0; i < last; i++ {
			if ex := ops[i](c); ex != nil {
				if ex == errSide {
					// Side exit (taken branch, return-speculation
					// miss): the step completed and set IP itself.
					done := uint64(blk.cumRet[i])
					*pending -= uint64(blk.total) - uint64(blk.cum[i])
					c.Retired += done
					steps += done
					goto next
				}
				if ex == errSMC {
					// The store completed and unhooked some decoded
					// page. Only a hit on the trace's own page matters
					// here (other pages are re-validated by the
					// dispatch loop when reached); the hint is
					// consumed either way.
					c.codeClobbered = false
					if c.codeAt(page) == pg {
						continue
					}
					// Self-modification: everything through step i
					// executed architecturally; stop before the next
					// step so the modified bytes are re-decoded.
					done := uint64(blk.cumRet[i])
					*pending -= uint64(blk.total) - uint64(blk.cum[i])
					c.Retired += done
					c.IP = entryIP + uint64(int64(blk.offEnd[i]))
					c.Stats.BlockDeopts++
					c.tier(true, entryIP)
					return steps + done, nil
				}
				done, cont, ex2 := c.blockStop(blk, i, entryIP, pending, ex)
				steps += done
				if ex2 != nil || !cont {
					return steps, ex2
				}
				goto next
			}
		}
		// A store in the final step needs no stop: the probe below
		// re-validates the page before dispatching anything after it.
		if ex := ops[last](c); ex != nil && ex != errSMC {
			done, cont, ex2 := c.blockStop(blk, last, entryIP, pending, ex)
			steps += done
			if ex2 != nil || !cont {
				return steps, ex2
			}
		} else {
			if ex == errSMC {
				c.codeClobbered = false
			}
			if !blk.term {
				c.IP = entryIP + uint64(int64(blk.end))
			}
			c.Retired += uint64(blk.nret)
			steps += uint64(blk.nret)
		}
	next:
		entryIP = c.IP
		if entryIP == blk.anchor && uint64(blk.nret) <= budget-steps {
			// Side exit straight back to this trace's own head (a loop
			// back-edge or recursion spine). Mid-trace invariants make
			// the full probe redundant: no special can have changed the
			// mode or translations, and any store that unhooked the
			// trace's page would have stopped it via errSMC.
			c.Stats.BlockHits++
			continue
		}
		{
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
			// A never-filled slot is all zeroes and would match a real-
			// mode jump to address 0 on an undecoded page: no page, no hit.
			if pg = c.codeAt(page); pg == nil || pg != slot.pg {
				return steps, nil
			}
			blk = slot.blk
			c.Stats.BlockHits++
		}
	}
}

// blockStop reconstructs exact architectural state when step i of a
// trace returned non-nil: a side exit, a deopt request, or a fault
// (including the errDiv0 sentinel, formatted here with the faulting IP).
func (c *CPU) blockStop(blk *cblock, i int, entryIP uint64, pending *uint64, ex *Exit) (uint64, bool, *Exit) {
	if ex == errSide {
		// The step completed — taken branch or return-speculation miss —
		// and already set IP. (The executor inlines this case for all
		// but the final step.)
		done := uint64(blk.cumRet[i])
		*pending -= uint64(blk.total) - uint64(blk.cum[i])
		c.Retired += done
		return done, true, nil
	}
	done := uint64(blk.cumRet[i]) - uint64(blk.ret[i])
	if ex == errDeopt {
		// The step did not execute: roll back its cost too and let the
		// dispatch loop re-execute it via Step.
		*pending -= uint64(blk.total) - uint64(blk.cum[i]) + uint64(blk.cost[i])
		c.Retired += done
		c.IP = entryIP + uint64(int64(blk.off[i]))
		c.Stats.BlockDeopts++
		c.tier(true, entryIP)
		return done, false, nil
	}
	if ex == errDiv0 {
		ex = c.fault("divide by zero at %#x", entryIP+uint64(int64(blk.off[i])))
	}
	*pending -= uint64(blk.total) - uint64(blk.cum[i])
	ipOff := blk.off[i]
	if c.lateSet {
		// A fused pair faulted half-way: restore exact attribution.
		*pending -= uint64(c.lateRoll)
		done += uint64(c.lateRet)
		if c.lateRet > 0 {
			ipOff = c.lateMid
		}
		c.lateSet, c.lateRoll, c.lateRet, c.lateMid = false, 0, 0, 0
	}
	c.Retired += done
	c.IP = entryIP + uint64(int64(ipOff))
	return done, false, ex
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
// it decodes forward, emitting one closure per instruction, fusing
// flag-setter/branch pairs into side-exit steps, following direct JMP
// and CALL targets that stay inside the head's 4 KiB page, and
// speculating the RETs that match followed CALLs. Compilation stops at
// a special, a decode stop, the page boundary, an unfollowable control
// transfer, or the step cap. The closures capture operands and the
// mode's width/mask — never the CPU, its memory, or absolute step
// addresses (only branch-target immediates, which are architectural) —
// so a trace is shareable across every CPU whose page bytes match
// (which AdoptCode guarantees).
func (c *CPU) compileBlock(ip, phys uint64) *cblock {
	mode := c.Mode
	w := uint64(mode.Width())
	mask := widthMask(mode)
	sign := signBit(mode)
	pBase := phys &^ (codePageSize - 1)
	blk := &cblock{anchor: ip}
	var retStack []int32 // return sites of followed CALLs, innermost last
	add := func(fn step, rel, next int32, cost, ret uint8) {
		blk.ops = append(blk.ops, fn)
		blk.off = append(blk.off, rel)
		blk.offEnd = append(blk.offEnd, next)
		blk.cost = append(blk.cost, cost)
		blk.total += uint32(cost)
		blk.cum = append(blk.cum, blk.total)
		blk.ret = append(blk.ret, ret)
		blk.nret += uint32(ret)
		blk.cumRet = append(blk.cumRet, blk.nret)
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
	rel := int32(0)
	emitted := map[int32]bool{} // trace-order back-edge detection
compile:
	for len(blk.ops) < maxBlockSteps {
		emitted[rel] = true
		pp := int64(phys) + int64(rel)
		if pp < int64(pBase) || pp >= int64(pBase)+codePageSize {
			break
		}
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

		// Peephole: flag-setter + conditional branch fuse into one
		// side-exit closure retiring two instructions (neither half can
		// fault); the trace continues on the not-taken path.
		if in.Op == isa.CMP || in.Op == isa.CMPI || in.Op == isa.DEC || in.Op == isa.INC {
			if jn, jerr := isa.Decode(c.Mem, uint64(pp)+uint64(n), mode); jerr == nil &&
				isJcc(jn.Op) && pp+int64(n)+int64(jn.Len) <= int64(pBase)+codePageSize {
				jop := jn.Op
				target := jn.Imm & mask
				pair := n + int32(jn.Len)
				pcost := cost + baseCost(jn.Op)
				// A backward taken arm that stays in the page is a loop
				// or recursion spine: follow it, so iterations unroll
				// into the trace, and side-exit on fall-through (the
				// loop exit). Forward branches keep the fall-through in
				// the trace and side-exit when taken.
				r2, bk := follow(target)
				bk = bk && emitted[r2] && r2 < rel
				fall := uint64(int64(rel + pair))
				switch in.Op {
				case isa.CMP:
					switch {
					case mode == isa.Mode64 && bk:
						fn = func(c *CPU) *Exit {
							a, b := c.Regs[dst], c.Regs[src]
							c.setArith64(a-b, a, b, true)
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					case mode == isa.Mode64:
						fn = func(c *CPU) *Exit {
							a, b := c.Regs[dst], c.Regs[src]
							c.setArith64(a-b, a, b, true)
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					case bk:
						fn = func(c *CPU) *Exit {
							a, b := c.Regs[dst]&mask, c.Regs[src]&mask
							c.setArithW(a-b, a, b, true, mask, sign)
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					default:
						fn = func(c *CPU) *Exit {
							a, b := c.Regs[dst]&mask, c.Regs[src]&mask
							c.setArithW(a-b, a, b, true, mask, sign)
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					}
				case isa.CMPI:
					switch {
					case mode == isa.Mode64 && bk:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst]
							c.setArith64(a-imm, a, imm, true)
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					case mode == isa.Mode64:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst]
							c.setArith64(a-imm, a, imm, true)
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					case bk:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst] & mask
							c.setArithW(a-imm, a, imm, true, mask, sign)
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					default:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst] & mask
							c.setArithW(a-imm, a, imm, true, mask, sign)
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					}
				case isa.DEC:
					switch {
					case mode == isa.Mode64 && bk:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst]
							r := a - 1
							c.setArith64(r, a, 1, true)
							c.Regs[dst] = r
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					case mode == isa.Mode64:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst]
							r := a - 1
							c.setArith64(r, a, 1, true)
							c.Regs[dst] = r
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					case bk:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst] & mask
							r := a - 1
							c.setArithW(r, a, 1, true, mask, sign)
							c.Regs[dst] = r & mask
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					default:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst] & mask
							r := a - 1
							c.setArithW(r, a, 1, true, mask, sign)
							c.Regs[dst] = r & mask
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					}
				case isa.INC:
					switch {
					case mode == isa.Mode64 && bk:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst]
							r := a + 1
							c.setArith64(r, a, 1, false)
							c.Regs[dst] = r
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					case mode == isa.Mode64:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst]
							r := a + 1
							c.setArith64(r, a, 1, false)
							c.Regs[dst] = r
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					case bk:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst] & mask
							r := a + 1
							c.setArithW(r, a, 1, false, mask, sign)
							c.Regs[dst] = r & mask
							if !jccTaken(jop, &c.Flags) {
								c.IP = c.blockEntry + fall
								return errSide
							}
							return nil
						}
					default:
						fn = func(c *CPU) *Exit {
							a := c.Regs[dst] & mask
							r := a + 1
							c.setArithW(r, a, 1, false, mask, sign)
							c.Regs[dst] = r & mask
							if jccTaken(jop, &c.Flags) {
								c.IP = target
								return errSide
							}
							return nil
						}
					}
				}
				if bk {
					add(fn, rel, r2, pcost, 2)
					rel = r2
				} else {
					add(fn, rel, rel+pair, pcost, 2)
					rel += pair
				}
				continue
			}
		}

		// Peephole: hot long-mode stack/ALU pairs fuse into one closure
		// retiring two instructions — each fusion removes a dispatch from
		// the trace's inner loop. Unlike the branch pairs above, a half
		// of these pairs can fault; the closure then records which half
		// completed in the lateFault fields so blockStop can attribute
		// retirement, batched cost and the faulting IP exactly as the
		// Step-only engine would.
		if mode == isa.Mode64 &&
			(in.Op == isa.PUSH || in.Op == isa.POP || in.Op == isa.MOV || in.Op == isa.SUBI) {
			if jn, jerr := isa.Decode(c.Mem, uint64(pp)+uint64(n), mode); jerr == nil &&
				pp+int64(n)+int64(jn.Len) <= int64(pBase)+codePageSize && !specialOp[jn.Op] {
				pair := n + int32(jn.Len)
				pcost := cost + baseCost(jn.Op)
				relMid := rel + n
				roll := baseCost(jn.Op) // unexecuted 2nd half on a 1st-half fault
				switch {
				case in.Op == isa.PUSH && (jn.Op == isa.SUBI || jn.Op == isa.ADDI):
					// push r1; subi/addi d2, imm — the ALU half cannot
					// fault, so only the store needs late attribution.
					r1, d2, i2 := dst, jn.Dst, jn.Imm
					sub := jn.Op == isa.SUBI
					fn = func(c *CPU) *Exit {
						sp := c.Regs[isa.RSP] - 8
						c.Regs[isa.RSP] = sp
						var smc *Exit
						if !c.fastStore64(sp, c.Regs[r1]) {
							if smc = c.storeSlow(sp, c.Regs[r1], isa.Mode64, "push: "); smc != nil && smc != errSMC {
								c.lateSet, c.lateRoll = true, roll
								return smc
							}
						}
						a := c.Regs[d2]
						var r uint64
						if sub {
							r = a - i2
						} else {
							r = a + i2
						}
						c.setArith64(r, a, i2, sub)
						c.Regs[d2] = r
						return smc
					}
					add(fn, rel, rel+pair, pcost, 2)
					rel += pair
					continue
				case in.Op == isa.POP && (jn.Op == isa.ADD || jn.Op == isa.SUB):
					// pop r1; add/sub d2, s2 — the load faults before any
					// state changes, the ALU half cannot fault.
					r1, d2, s2 := dst, jn.Dst, jn.Src
					sub := jn.Op == isa.SUB
					fn = func(c *CPU) *Exit {
						sp := c.Regs[isa.RSP]
						v, ok := c.fastLoad64(sp)
						if !ok {
							var err error
							if v, err = c.loadWord(sp, isa.Mode64); err != nil {
								c.lateSet, c.lateRoll = true, roll
								return c.fault("pop: %v", err)
							}
						}
						c.Regs[isa.RSP] = sp + 8
						c.Regs[r1] = v
						a, b := c.Regs[d2], c.Regs[s2]
						var r uint64
						if sub {
							r = a - b
						} else {
							r = a + b
						}
						c.setArith64(r, a, b, sub)
						c.Regs[d2] = r
						return nil
					}
					add(fn, rel, rel+pair, pcost, 2)
					rel += pair
					continue
				case in.Op == isa.POP && jn.Op == isa.PUSH &&
					dst != isa.RSP && jn.Dst != isa.RSP:
					// pop r1; push r2 — the push reuses the slot the pop
					// just vacated, so RSP is never written: its value is
					// identical before, between (pop's +8 then push's -8)
					// and after the pair.
					r1, r2 := dst, jn.Dst
					fn = func(c *CPU) *Exit {
						sp := c.Regs[isa.RSP]
						v, ok := c.fastLoad64(sp)
						if !ok {
							var err error
							if v, err = c.loadWord(sp, isa.Mode64); err != nil {
								c.lateSet, c.lateRoll = true, roll
								return c.fault("pop: %v", err)
							}
						}
						c.Regs[r1] = v
						if c.fastStore64(sp, c.Regs[r2]) {
							return nil
						}
						ex := c.storeSlow(sp, c.Regs[r2], isa.Mode64, "push: ")
						if ex != nil && ex != errSMC {
							c.lateSet, c.lateRet, c.lateMid = true, 1, relMid
						}
						return ex
					}
					add(fn, rel, rel+pair, pcost, 2)
					rel += pair
					continue
				case in.Op == isa.SUBI && jn.Op == isa.CALL:
					// subi d, imm; call t (followed) — the decrement
					// commits before the return-address push can fault,
					// matching the legacy state at the fault.
					if r2, ok := follow(jn.Imm & mask); ok {
						d1, i1 := dst, imm
						retRel := rel + pair
						exp := uint64(int64(retRel))
						fn = func(c *CPU) *Exit {
							a := c.Regs[d1]
							r := a - i1
							c.setArith64(r, a, i1, true)
							c.Regs[d1] = r
							sp := c.Regs[isa.RSP] - 8
							c.Regs[isa.RSP] = sp
							if c.fastStore64(sp, c.blockEntry+exp) {
								return nil
							}
							ex := c.storeSlow(sp, c.blockEntry+exp, isa.Mode64, "call push: ")
							if ex != nil && ex != errSMC {
								c.lateSet, c.lateRet, c.lateMid = true, 1, relMid
							}
							return ex
						}
						add(fn, rel, r2, pcost, 2)
						retStack = append(retStack, retRel)
						rel = r2
						continue
					}
				case in.Op == isa.MOV && jn.Op == isa.RET && len(retStack) > 0:
					// mov d, s; ret (speculated) — the move commits before
					// the pop can fault, which matches the legacy state at
					// the fault (mov retired, fault on the ret).
					retRel := retStack[len(retStack)-1]
					retStack = retStack[:len(retStack)-1]
					exp := uint64(int64(retRel))
					d1, s1 := dst, src
					fn = func(c *CPU) *Exit {
						c.Regs[d1] = c.Regs[s1]
						sp := c.Regs[isa.RSP]
						v, ok := c.fastLoad64(sp)
						if !ok {
							var err error
							if v, err = c.loadWord(sp, isa.Mode64); err != nil {
								c.lateSet, c.lateRet, c.lateMid = true, 1, relMid
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
					add(fn, rel, retRel, pcost, 2)
					rel = retRel
					continue
				}
			}
		}

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
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := a + 1
				c.setArithW(r, a, 1, false, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.DEC:
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				r := a - 1
				c.setArithW(r, a, 1, true, mask, sign)
				c.Regs[dst] = r & mask
				return nil
			}
		case isa.CMP:
			fn = func(c *CPU) *Exit {
				a, b := c.Regs[dst]&mask, c.Regs[src]&mask
				c.setArithW(a-b, a, b, true, mask, sign)
				return nil
			}
		case isa.CMPI:
			fn = func(c *CPU) *Exit {
				a := c.Regs[dst] & mask
				c.setArithW(a-imm, a, imm, true, mask, sign)
				return nil
			}

		case isa.JMP:
			if r2, ok := follow(addrImm); ok {
				add(stepNop, rel, r2, cost, 1)
				rel = r2
				continue
			}
			t := addrImm
			fn = func(c *CPU) *Exit { c.IP = t; return nil }
			blk.term = true
			add(fn, rel, rel+n, cost, 1)
			break compile
		case isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE, isa.JB, isa.JAE:
			// Conditional branches never terminate a trace: one arm is
			// compiled inline, the other is a side exit. A backward
			// in-page taken arm (loop, recursion spine) is the one
			// followed; otherwise the fall-through is.
			jop := in.Op
			t := addrImm
			if r2, ok := follow(t); ok && emitted[r2] && r2 < rel {
				fall := uint64(int64(rel + n))
				fn = func(c *CPU) *Exit {
					if !jccTaken(jop, &c.Flags) {
						c.IP = c.blockEntry + fall
						return errSide
					}
					return nil
				}
				add(fn, rel, r2, cost, 1)
				rel = r2
				continue
			}
			fn = func(c *CPU) *Exit {
				if jccTaken(jop, &c.Flags) {
					c.IP = t
					return errSide
				}
				return nil
			}
			add(fn, rel, rel+n, cost, 1)
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
				add(fn, rel, r2, cost, 1)
				retStack = append(retStack, retRel)
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
			blk.term = true
			add(fn, rel, retRel, cost, 1)
			break compile
		case isa.RET:
			if k := len(retStack); k > 0 {
				// Speculated return: the matching CALL is in this trace,
				// so the popped address should be its return site. A
				// mismatch (the guest rewrote its stack) side-exits with
				// the popped address — exactly the architectural result.
				retRel := retStack[k-1]
				retStack = retStack[:k-1]
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
				add(fn, rel, retRel, cost, 1)
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
			blk.term = true
			add(fn, rel, rel+n, cost, 1)
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
		add(fn, rel, rel+n, cost, 1)
		rel += n
	}
	if len(blk.ops) == 0 {
		return nil
	}
	// rel is the offset of the next instruction to execute whenever the
	// loop stopped without a terminator (step cap, decode stop, page
	// boundary, special): that is where a completed trace resumes.
	blk.end = rel
	blk.loop = compileLoop(c.Mem, ip, phys, mode)
	return blk
}
