package vcc

import (
	"repro/internal/asm"
	"repro/internal/isa"
)

// The optimizer is the compiler's middle end (§5.3: the paper's pass
// "runs middle-end analysis at the IR level"). Two stages:
//
//  1. AST-level constant folding (applied during codegen): expressions
//     whose operands are compile-time constants collapse to one movi.
//  2. A peephole pass over the generated instructions (typed assembler
//     statements, before they are encoded), shrinking the stack-machine
//     boilerplate the simple codegen emits. Smaller images boot and
//     snapshot faster (Fig 12's cost is proportional to image bytes),
//     and fewer instructions mean fewer guest cycles.
//
// Peephole patterns (tried in this order at each statement, iterated to
// a fixed point):
//
//	mov X, X                                  → (removed)
//	jmp L  directly followed by  L:           → (removed)
//	push R; movi R, C; mov S, R; pop R        → movi S, C
//	mov rax, rbp; sub/add rax, N;
//	  mov rbx, rax; load rax, [rbx]           → load rax, [rbp∓N]
//	push rax; (5-op local load into rbx);
//	  pop rax                                 → load rbx, [rbp∓N]
//
// Flag safety: the removed add/sub/mov instructions set condition codes,
// but the code generator never consumes flags except immediately after an
// explicit cmp, so eliding them cannot change behaviour.

// optimize runs peephole passes over generated statements until no
// pattern fires (bounded). It rewrites stmts in place.
func optimize(stmts []asm.Stmt) []asm.Stmt {
	for pass := 0; pass < 10; pass++ {
		var changed bool
		stmts, changed = peephole(stmts)
		if !changed {
			break
		}
	}
	return stmts
}

// is reports whether s is a bare instruction (no label) with opcode op.
func is(s *asm.Stmt, op isa.Op) bool {
	return s.Kind == asm.Instr && s.Label == "" && s.Op == op
}

// isReg reports whether a is the register operand r.
func isReg(a asm.Arg, r isa.Reg) bool { return a.Kind == asm.RegArg && a.Reg == r }

// peephole makes one pass, compacting in place: every rewrite replaces
// statements with at most as many, so the write index never passes the
// read index.
func peephole(in []asm.Stmt) ([]asm.Stmt, bool) {
	out := in[:0]
	changed := false
	for i := 0; i < len(in); {
		s := &in[i]

		// Pattern: mov X, X
		if is(s, isa.MOV) && s.Args[0] == s.Args[1] {
			i++
			changed = true
			continue
		}

		// Pattern: jmp L / L:
		if is(s, isa.JMP) && i+1 < len(in) && in[i+1].Kind == asm.Label &&
			s.Args[0].Kind == asm.ImmArg && s.Args[0].Sym != "" && in[i+1].Label == s.Args[0].Sym {
			i++ // drop the jmp, keep the label
			changed = true
			continue
		}

		if i+3 < len(in) {
			s1, s2, s3 := &in[i+1], &in[i+2], &in[i+3]

			// Pattern: push R / movi R, C / mov S, R / pop R  →  movi S, C
			if is(s, isa.PUSH) && s.Args[0].Kind == asm.RegArg {
				r := s.Args[0].Reg
				if is(s1, isa.MOVI) && isReg(s1.Args[0], r) &&
					is(s2, isa.MOV) && isReg(s2.Args[1], r) && s2.Args[0].Kind == asm.RegArg && s2.Args[0].Reg != r &&
					is(s3, isa.POP) && isReg(s3.Args[0], r) {
					out = append(out, asm.Ins(isa.MOVI, s2.Args[0], s1.Args[1]))
					i += 4
					changed = true
					continue
				}
			}

			// Pattern: local-variable load boilerplate →  load rax, [rbp±N]
			//   mov rax, rbp / sub|add rax, N / mov rbx, rax / load rax, [rbx]
			if is(s, isa.MOV) && isReg(s.Args[0], isa.RAX) && isReg(s.Args[1], isa.RBP) &&
				(is(s1, isa.SUBI) || is(s1, isa.ADDI)) && isReg(s1.Args[0], isa.RAX) &&
				is(s2, isa.MOV) && isReg(s2.Args[0], isa.RBX) && isReg(s2.Args[1], isa.RAX) &&
				(is(s3, isa.LOAD) || is(s3, isa.LOADB)) && isReg(s3.Args[0], isa.RAX) && s3.Args[1] == asm.Mem(isa.RBX) {
				n := s1.Args[1]
				sign := byte('+')
				if s1.Op == isa.SUBI {
					sign = '-'
				}
				mem := asm.Arg{Kind: asm.MemArg, Reg: isa.RBP, Sign: sign, Imm: n.Imm, Sym: n.Sym}
				out = append(out, asm.Ins(s3.Op, asm.R(isa.RAX), mem))
				i += 4
				changed = true
				continue
			}

			// Pattern: push rax / load rax, [rbp±N] / mov rbx, rax / pop rax
			//   →  load rbx, [rbp±N]
			// (arises after the previous pattern collapses the RHS of a
			// binary operator)
			if is(s, isa.PUSH) && isReg(s.Args[0], isa.RAX) &&
				(is(s1, isa.LOAD) || is(s1, isa.LOADB)) && isReg(s1.Args[0], isa.RAX) &&
				s1.Args[1].Kind == asm.MemArg && s1.Args[1].Reg == isa.RBP &&
				is(s2, isa.MOV) && isReg(s2.Args[0], isa.RBX) && isReg(s2.Args[1], isa.RAX) &&
				is(s3, isa.POP) && isReg(s3.Args[0], isa.RAX) {
				out = append(out, asm.Ins(s1.Op, asm.R(isa.RBX), s1.Args[1]))
				i += 4
				changed = true
				continue
			}
		}

		if len(out) < i {
			out = append(out, *s)
		} else {
			out = out[:i+1] // nothing removed yet: s is already in place
		}
		i++
	}
	return out, changed
}

// foldConst attempts AST-level constant folding for an expression,
// returning (value, true) when the whole expression is a compile-time
// constant.
func foldConst(e Expr) (int64, bool) {
	v, bad := fold(e)
	return v, bad == nil
}
