// Package opt implements the "full-scale classical" optimizations of the
// paper's prototype compiler (§5.1): constant folding and propagation, copy
// propagation, local common-subexpression elimination, dead-code
// elimination, loop-invariant code motion, strength reduction, and CFG
// cleanup. These run before the ILP transformations (package ilp) and
// before register allocation.
package opt

import (
	"regconn/internal/ir"
	"regconn/internal/isa"
)

// Simplify performs one forward pass of local constant folding, constant
// and copy propagation, algebraic simplification and strength reduction
// over every block. It reports whether anything changed.
func Simplify(f *ir.Func) bool {
	changed := false
	for _, b := range f.Blocks {
		if simplifyBlock(f, b) {
			changed = true
		}
	}
	return changed
}

type lattice struct {
	consts  map[isa.Reg]int64
	fconsts map[isa.Reg]float64
	copies  map[isa.Reg]isa.Reg // dst -> original source
}

func (l *lattice) kill(r isa.Reg) {
	delete(l.consts, r)
	delete(l.fconsts, r)
	delete(l.copies, r)
	// Any copy whose source is r is now stale.
	for d, s := range l.copies {
		if s == r {
			delete(l.copies, d)
		}
	}
}

// resolve follows copy chains to the oldest still-valid source.
func (l *lattice) resolve(r isa.Reg) isa.Reg {
	for {
		s, ok := l.copies[r]
		if !ok {
			return r
		}
		r = s
	}
}

func simplifyBlock(f *ir.Func, b *ir.Block) bool {
	lat := &lattice{
		consts:  map[isa.Reg]int64{},
		fconsts: map[isa.Reg]float64{},
		copies:  map[isa.Reg]isa.Reg{},
	}
	changed := false
	out := b.Instrs[:0]
	for i := range b.Instrs {
		in := b.Instrs[i]

		// Copy-propagate sources.
		prop := func(r *isa.Reg) {
			if !r.Valid() {
				return
			}
			if s := lat.resolve(*r); s != *r {
				*r = s
				changed = true
			}
		}
		prop(&in.A)
		if !in.UseImm {
			prop(&in.B)
		}
		for k := range in.Args {
			prop(&in.Args[k])
		}

		// Immediate-ize integer second operands.
		if !in.UseImm && in.B.Valid() && in.B.Class == isa.ClassInt && in.Op.Meta().BImm {
			if c, ok := lat.consts[in.B]; ok {
				in.B = isa.Reg{}
				in.Imm = c
				in.UseImm = true
				changed = true
			}
		}

		// Fold / simplify.
		if rep, ok := foldInstr(&in, lat); ok {
			in = rep
			changed = true
		}

		// Conditional branch on constants: fold to BR or drop.
		if in.Op.IsCondBranch() && in.Op.Kind() == isa.KindBranch {
			if in.UseImm {
				if c, ok := lat.consts[in.A]; ok {
					if takenConst(in.Op, c, in.Imm) {
						in = isa.Instr{Op: isa.BR, Target: in.Target}
					} else {
						changed = true
						continue // branch never taken: delete
					}
					changed = true
				}
			}
		}

		// Update lattice with this instruction's effect.
		if d := in.Def(); d.Valid() {
			lat.kill(d)
			switch in.Op {
			case isa.MOVI:
				lat.consts[d] = in.Imm
			case isa.FMOVI:
				lat.fconsts[d] = in.FImm()
			case isa.MOV, isa.FMOV:
				if in.A != d {
					lat.copies[d] = in.A
				}
			}
		}
		out = append(out, in)
	}
	b.Instrs = out
	return changed
}

// foldInstr applies constant folding, algebraic identity and strength
// reduction rules. It returns the replacement instruction and whether a
// rewrite happened.
func foldInstr(in *isa.Instr, lat *lattice) (isa.Instr, bool) {
	movi := func(v int64) (isa.Instr, bool) {
		return isa.Instr{Op: isa.MOVI, Dst: in.Dst, Imm: v}, true
	}
	mov := func(src isa.Reg) (isa.Instr, bool) {
		if src == in.Dst {
			return isa.Instr{Op: isa.NOP}, true
		}
		op := isa.MOV
		if in.Dst.Class == isa.ClassFloat {
			op = isa.FMOV
		}
		return isa.Instr{Op: op, Dst: in.Dst, A: src}, true
	}

	switch in.Op {
	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.SRA, isa.SLT:
		ca, aConst := lat.consts[in.A]
		var cb int64
		bConst := in.UseImm
		if bConst {
			cb = in.Imm
		} else if c, ok := lat.consts[in.B]; ok {
			cb, bConst = c, true
		}
		if aConst && bConst {
			if v, ok := evalInt(in.Op, ca, cb); ok {
				return movi(v)
			}
		}
		if bConst {
			switch {
			case in.Op == isa.ADD && cb == 0,
				in.Op == isa.SUB && cb == 0,
				in.Op == isa.OR && cb == 0,
				in.Op == isa.XOR && cb == 0,
				in.Op == isa.SLL && cb == 0,
				in.Op == isa.SRL && cb == 0,
				in.Op == isa.SRA && cb == 0,
				in.Op == isa.MUL && cb == 1,
				in.Op == isa.DIV && cb == 1:
				return mov(in.A)
			case in.Op == isa.MUL && cb == 0, in.Op == isa.AND && cb == 0:
				return movi(0)
			case in.Op == isa.MUL && cb > 1 && cb&(cb-1) == 0:
				// Strength reduction: multiply by power of two.
				sh := 0
				for v := cb; v > 1; v >>= 1 {
					sh++
				}
				return isa.Instr{Op: isa.SLL, Dst: in.Dst, A: in.A, Imm: int64(sh), UseImm: true}, true
			}
		}
		if aConst && ca == 0 && in.Op == isa.ADD && !in.UseImm {
			return mov(in.B)
		}
	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		fa, aOK := lat.fconsts[in.A]
		fb, bOK := lat.fconsts[in.B]
		if aOK && bOK {
			var v float64
			switch in.Op {
			case isa.FADD:
				v = fa + fb
			case isa.FSUB:
				v = fa - fb
			case isa.FMUL:
				v = fa * fb
			case isa.FDIV:
				v = fa / fb
			}
			rep := isa.Instr{Op: isa.FMOVI, Dst: in.Dst}
			rep.SetFImm(v)
			return rep, true
		}
	case isa.CVTIF:
		if c, ok := lat.consts[in.A]; ok {
			rep := isa.Instr{Op: isa.FMOVI, Dst: in.Dst}
			rep.SetFImm(float64(c))
			return rep, true
		}
	}
	return *in, false
}

func evalInt(op isa.Op, a, b int64) (int64, bool) {
	switch op {
	case isa.ADD:
		return a + b, true
	case isa.SUB:
		return a - b, true
	case isa.MUL:
		return a * b, true
	case isa.DIV:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case isa.REM:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case isa.AND:
		return a & b, true
	case isa.OR:
		return a | b, true
	case isa.XOR:
		return a ^ b, true
	case isa.SLL:
		return a << uint64(b&63), true
	case isa.SRL:
		return int64(uint64(a) >> uint64(b&63)), true
	case isa.SRA:
		return a >> uint64(b&63), true
	case isa.SLT:
		if a < b {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func takenConst(op isa.Op, a, b int64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return a < b
	case isa.BLE:
		return a <= b
	case isa.BGT:
		return a > b
	case isa.BGE:
		return a >= b
	}
	return false
}
