package cpu

// Trace JIT: hot code is compiled into arrays of steps ("traces"), one
// step per instruction (step.go: the function that executes it and the
// operands it reads, the same record Step builds and runs) — the
// per-instruction decode disappears from the hot loop, and straight-line
// dispatch overhead is paid once per trace instead of once per
// instruction.
//
// Traces follow control flow, not just fall-through:
//
//   - direct JMP and CALL targets inside the same 4 KiB code page are
//     followed at compile time, so a call's callee body is compiled
//     inline (the architectural push of the return address still
//     happens — only the dispatch is elided);
//   - a RET whose matching CALL was followed is speculated: the step
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
//   - fault: steps return an *Exit; the executor rolls the
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
	"repro/internal/cycles"
	"repro/internal/isa"
)

const (
	bcacheSize    = 512 // direct-mapped per-CPU block cache (power of two)
	maxBlockSteps = 96
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

// cblock is one compiled trace: its steps, each also recording what the
// executor needs to reconstruct exact architectural state mid-trace (its
// offset, its successor's and the cost through it). Every step retires one
// instruction, so the steps through step i retire i+1 and the whole trace
// len(ops). ops is an exact-size copy of the compiler's scratch array, and
// a repeated loop period's steps are whole copies of the period's first
// compile with the cost running on, so a loop trace ends at its loop head
// (end); a step's own cost is the difference from its predecessor's cum.
type cblock struct {
	ops    []step
	anchor uint64 // virtual IP the trace was compiled at
	end    int32  // successor offset when the trace falls off its end
	term   bool   // last step always sets IP itself
	total  uint32 // fixed cost of the whole trace
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
				c.IP = entryIP + uint64(int64(blk.ops[i].offEnd))
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
	*pending -= uint64(blk.total) - uint64(blk.ops[i].cum)
	c.Retired += done
	return done
}

// runSteps runs ops from i until a step returns non-nil, and returns that
// step's index and exit, or len(ops) and nil. It is the whole
// per-instruction path, kept out of line so that only c, ops and i are live
// across each step's call — every register is clobbered there, and
// execChain's dozen live values would be reloaded per instruction.
//
//go:noinline
func (c *CPU) runSteps(ops []step, i int) (int, *Exit) {
	for ; i < len(ops); i++ {
		s := &ops[i]
		if ex := s.fn(c, s); ex != nil {
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
	var before uint16 // cum through step i-1
	if i > 0 {
		before = blk.ops[i-1].cum
	}
	done := uint64(i)
	c.Retired += done
	c.IP = entryIP + uint64(int64(blk.ops[i].off))
	if ex == errDeopt {
		// The step did not execute: roll back its cost too and let the
		// dispatch loop re-execute it via Step.
		*pending -= uint64(blk.total) - uint64(before)
		c.Stats.BlockDeopts++
		c.tier(true, entryIP)
		return done, nil
	}
	if ex == errDiv0 {
		ex = c.fault("divide by zero at %#x", c.IP)
	}
	*pending -= uint64(blk.total) - uint64(blk.ops[i].cum)
	return done, ex
}

// compileBlock builds the trace anchored at virtual ip / physical phys:
// it decodes forward, emitting one step per instruction, following direct
// JMP and CALL targets that stay inside the head's 4 KiB page, and
// speculating the RETs that match followed CALLs. A loop body is compiled
// once: when a back-edge closes a period that would compile again to the
// same steps, the period repeats whole and the trace ends at the loop
// head (repeat, below). Otherwise compilation stops at a
// special, a decode stop, the page boundary, an unfollowable control
// transfer, or the step cap. A step holds operands and offsets from the
// trace's entry — never the CPU, its memory, or absolute step addresses
// (only branch-target immediates, which are architectural) — so a trace
// is shareable across every CPU whose page bytes match (which AdoptCode
// guarantees).
func (c *CPU) compileBlock(ip, phys uint64) *cblock {
	mode := c.Mode
	pBase := phys &^ (codePageSize - 1)
	head := int32(phys - pBase) // the head's page offset

	// The trace is built in scratch arrays and copied out once. Beside
	// each step they record what its compile read besides its bytes: the
	// return-stack depth before it, and the page offset + 1 of a backward
	// branch target it found not compiled yet (0: none). repeat reads
	// them to tell when compiling on would only repeat earlier steps.
	var (
		ops         [maxBlockSteps]step
		depth       [maxBlockSteps]uint8
		miss        [maxBlockSteps]uint16
		rets        [maxBlockSteps]int32      // return sites of followed CALLs, innermost last
		seen        [codePageSize / 64]uint64 // page offsets of compiled steps
		nops, nrets int
		total       uint16
		term        bool
		rel         int32
	)
	add := func(s step, rel, next int32, cost uint8) {
		total += uint16(cost)
		s.off, s.offEnd, s.cum = int16(rel), int16(next), total
		ops[nops] = s
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
	// repeats as many whole times as fit under the step cap, copying its
	// steps and offsets while cum runs on, and repeat reports that the
	// trace is complete: it ends at the period's head, rel, where the
	// next iteration re-enters it.
	repeat := func() bool {
		p := nops - 1 // a marked offset always holds a step
		for ops[p].off != int16(rel) {
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
		var before uint16
		if p > 0 {
			before = ops[p-1].cum
		}
		period, pc := nops-p, total-before
		for end := p + (maxBlockSteps-p)/period*period; nops < end; nops++ {
			ops[nops] = ops[nops-period]
			ops[nops].cum += pc
		}
		total = ops[nops-1].cum
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
		if pp+int64(n) > int64(pBase)+codePageSize {
			break
		}
		s, ok := newStep(in, mode)
		if !ok {
			break // a special: Step executes it
		}
		cost := baseCost(in.Op)

		// The trace-relative forms. Anything else, an unfollowed
		// conditional branch included, is newStep's step as it is.
		switch in.Op {
		case isa.JMP:
			if r2, ok := follow(s.imm); ok {
				add(step{fn: opNop}, rel, r2, cost)
				rel = r2
				if marked(head+r2) && repeat() {
					break compile
				}
				continue
			}
			term = true
			add(s, rel, rel+n, cost)
			break compile
		case isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE, isa.JB, isa.JAE:
			// Conditional branches never terminate a trace: one arm is
			// compiled inline, the other is a side exit. A backward
			// in-page taken arm (loop, recursion spine) is the one
			// followed; otherwise the fall-through is.
			if r2, ok := follow(s.imm); ok && backEdge(rel, r2) {
				s.fn = opJccLoop
				add(s, rel, r2, cost)
				rel = r2
				if repeat() {
					break compile
				}
				continue
			}
		case isa.CALL:
			if r2, ok := follow(s.imm); ok {
				// Followed call: push the return address architecturally
				// and continue compiling at the callee.
				s.fn = opCallInW
				if mode == isa.Mode64 {
					s.fn = opCallIn64
				}
				add(s, rel, r2, cost)
				rets[nrets] = rel + n
				nrets++
				rel = r2
				continue
			}
			term = true
			add(s, rel, rel+n, cost)
			break compile
		case isa.RET:
			if nrets > 0 {
				// Speculated return: the matching CALL is in this trace,
				// so the popped address should be its return site. A
				// mismatch (the guest rewrote its stack) side-exits with
				// the popped address — exactly the architectural result.
				nrets--
				s.fn = opRetSpecW
				if mode == isa.Mode64 {
					s.fn = opRetSpec64
				}
				add(s, rel, rets[nrets], cost)
				rel = rets[nrets]
				continue
			}
			term = true
			add(s, rel, rel+n, cost)
			break compile
		}
		add(s, rel, rel+n, cost)
		rel += n
	}
	if nops == 0 {
		return nil
	}
	// rel is the offset of the next instruction to execute whenever the
	// loop stopped without a terminator (step cap, decode stop, page
	// boundary, special): that is where a completed trace resumes.
	blk := &cblock{
		ops:    make([]step, nops),
		anchor: ip, end: rel, term: term, total: uint32(total),
	}
	copy(blk.ops, ops[:nops])
	return blk
}

// The trace-relative step forms: each reads the offset of an address in
// its trace from the trace's entry, blockEntry.

// opJccLoop is a loop's back-edge: the taken arm is the trace's next step,
// and falling through leaves the trace.
func opJccLoop(c *CPU, s *step) *Exit {
	if !jccTaken(isa.Op(s.dst), &c.Flags) {
		c.IP = c.after(s, c.Mode)
		return errSide
	}
	return nil
}

// opRetSpec64 and opRetSpecW are a speculated return: the popped address
// should be the return site, the step's successor in trace order.
func opRetSpec64(c *CPU, s *step) *Exit {
	sp := c.Regs[isa.RSP]
	v, ok := c.fastLoad64(sp)
	if !ok {
		var ex *Exit
		if v, ex = c.loadSlow(sp, isa.Mode64, "ret pop: "); ex != nil {
			return ex
		}
	}
	c.Regs[isa.RSP] = sp + 8
	if v != c.blockEntry+uint64(int64(s.offEnd)) {
		c.IP = v
		return errSide
	}
	return nil
}

func opRetSpecW(c *CPU, s *step) *Exit {
	md := c.Mode
	v, ex := c.loadSlow(c.Regs[isa.RSP], md, "ret pop: ")
	if ex != nil {
		return ex
	}
	c.Regs[isa.RSP] += uint64(md.Width())
	if v &= widthMask(md); v != c.blockEntry+uint64(int64(s.offEnd)) {
		c.IP = v
		return errSide
	}
	return nil
}
