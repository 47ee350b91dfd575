package codegen

import "regconn/internal/isa"

// MarkChains runs the chain backend's post-schedule marking pass over one
// machine function: it finds producer→consumer pairs where a one-cycle
// integer result is consumed only by the immediately following instruction
// and marks them for forwarding (arXiv 2503.20609). The machine then
// elides the producer's register-file write and the consumer's read of
// that operand.
//
// The rule is purely local and syntactic so the static verifier
// (package mapcheck) can re-derive it independently:
//
//   - the producer at pc is a one-cycle integer ALU op (isa.KindIntALU)
//     with a valid integer destination whose physical register is neither
//     absent nor the zero register;
//   - pc+1 is in the same basic block (not a leader: not the entry, not a
//     branch target, not the fall-through of a terminator);
//   - the consumer at pc+1 reads that physical register through A and/or
//     B (connects never consume a chain);
//   - the value is dead after the consumer: either the consumer itself
//     overwrites the register, or a following instruction in the block
//     overwrites it before any further read, CALL, terminator, block
//     boundary, or the end of the function.
//
// The dead-after requirement is what licenses eliding the write: no later
// instruction may observe the register's architectural value. A CALL or a
// block boundary ends the proof conservatively (liveness across them is
// not tracked here), so e.g. a return-value move immediately before RET is
// never marked.
func MarkChains(mf *MFunc) {
	n := len(mf.Code)
	if n == 0 {
		return
	}
	leaders := make([]bool, n)
	leaders[0] = true
	for i := range mf.Code {
		in := &mf.Code[i]
		if in.Op.Meta().Branch && in.Target >= 0 && in.Target < n {
			leaders[in.Target] = true
		}
		if in.Op.Meta().Terminator && i+1 < n {
			leaders[i+1] = true
		}
	}
	for pc := 0; pc+1 < n; pc++ {
		prod, pann := &mf.Code[pc], &mf.Ann[pc]
		if prod.Op.Kind() != isa.KindIntALU {
			continue
		}
		if prod.Def().Class != isa.ClassInt {
			continue
		}
		p := pann.PDst
		if p == NoPhys || p == isa.RegZero {
			continue
		}
		if leaders[pc+1] {
			continue
		}
		cons, cann := &mf.Code[pc+1], &mf.Ann[pc+1]
		if cons.Op.Meta().Connect {
			continue
		}
		chainA := cons.ReadsA() && cons.A.Class == isa.ClassInt && cann.PA == p
		chainB := cons.ReadsB() && cons.B.Class == isa.ClassInt && cann.PB == p
		if !chainA && !chainB {
			continue
		}
		if !deadAfter(mf, leaders, pc+1, p) {
			continue
		}
		pann.ChainOut = true
		cann.ChainA = chainA
		cann.ChainB = chainB
	}
}

// defsPhys reports whether the instruction at i writes integer physical
// register p.
func defsPhys(mf *MFunc, i int, p int32) bool {
	in, ann := &mf.Code[i], &mf.Ann[i]
	return in.Def().Class == isa.ClassInt && ann.PDst == p
}

// readsPhys reports whether the instruction at i reads integer physical
// register p through A or B.
func readsPhys(mf *MFunc, i int, p int32) bool {
	in, ann := &mf.Code[i], &mf.Ann[i]
	if in.ReadsA() && in.A.Class == isa.ClassInt && ann.PA == p {
		return true
	}
	return in.ReadsB() && in.B.Class == isa.ClassInt && ann.PB == p
}

// deadAfter proves that integer physical register p is dead after the
// consumer at pc: some following instruction kills it before anything can
// observe it. Reads are checked before defs at each step so a
// read-and-redefine (p = p + 1) counts as a second use.
func deadAfter(mf *MFunc, leaders []bool, pc int, p int32) bool {
	if defsPhys(mf, pc, p) {
		return true // the consumer itself overwrites the value
	}
	if mf.Code[pc].Op.Meta().Terminator {
		return false
	}
	for j := pc + 1; j < len(mf.Code); j++ {
		if leaders[j] {
			return false // control may arrive here from elsewhere
		}
		in := &mf.Code[j]
		if in.Op == isa.CALL {
			return false // clobber/liveness across calls is not tracked
		}
		if readsPhys(mf, j, p) {
			return false // a second use
		}
		if defsPhys(mf, j, p) {
			return true // killed before any observation
		}
		if in.Op.Meta().Terminator {
			return false
		}
	}
	return false // fell off the function
}
