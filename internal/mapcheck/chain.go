package mapcheck

import (
	"regconn/internal/codegen"
	"regconn/internal/isa"
)

// Chain-forwarding verification (the chain backend). The marking rule is
// purely local and syntactic (see codegen.MarkChains), so the verifier
// re-derives the expected mark set from the machine code alone and
// compares it against the annotations elementwise. A missing mark would
// make the machine model a register-file access the scheme elides; a
// spurious or misplaced mark would forward a value that is not
// architecturally dead — both are rejected at the exact instruction.

// runChain checks every ChainOut/ChainA/ChainB annotation of the function
// against the independently re-derived expectation.
func (v *verifier) runChain() {
	mf := v.mf
	n := len(mf.Code)
	if n == 0 {
		return
	}
	leaders := make([]bool, n)
	leaders[0] = true
	for pc := range mf.Code {
		in := &mf.Code[pc]
		m := in.Op.Meta()
		if m.Branch && in.Target >= 0 && in.Target < n {
			leaders[in.Target] = true
		}
		if m.Terminator && pc+1 < n {
			leaders[pc+1] = true
		}
	}
	expOut := make([]bool, n)
	expA := make([]bool, n)
	expB := make([]bool, n)
	for pc := 0; pc+1 < n; pc++ {
		prod, pann := &mf.Code[pc], &mf.Ann[pc]
		if prod.Op.Kind() != isa.KindIntALU {
			continue
		}
		if prod.Def().Class != isa.ClassInt {
			continue
		}
		p := pann.PDst
		if p == codegen.NoPhys || p == isa.RegZero {
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
		if !chainDead(mf, leaders, pc+1, p) {
			continue
		}
		expOut[pc] = true
		expA[pc+1] = chainA
		expB[pc+1] = chainB
	}
	for pc := range mf.Code {
		ann := &mf.Ann[pc]
		if ann.ChainOut != expOut[pc] {
			v.reportf(pc, RuleChain, "chain-out mark is %v but re-derivation expects %v",
				ann.ChainOut, expOut[pc])
		}
		if ann.ChainA != expA[pc] {
			v.reportf(pc, RuleChain, "chain-A mark is %v but re-derivation expects %v",
				ann.ChainA, expA[pc])
		}
		if ann.ChainB != expB[pc] {
			v.reportf(pc, RuleChain, "chain-B mark is %v but re-derivation expects %v",
				ann.ChainB, expB[pc])
		}
	}
}

// chainDefs reports whether the instruction at i writes integer physical
// register p (by annotation; under chain mode instructions carry physical
// numbers directly and runIdentity enforces the agreement).
func chainDefs(mf *codegen.MFunc, i int, p int32) bool {
	in, ann := &mf.Code[i], &mf.Ann[i]
	return in.Def().Class == isa.ClassInt && ann.PDst == p
}

// chainReads reports whether the instruction at i reads integer physical
// register p through A or B.
func chainReads(mf *codegen.MFunc, i int, p int32) bool {
	in, ann := &mf.Code[i], &mf.Ann[i]
	if in.ReadsA() && in.A.Class == isa.ClassInt && ann.PA == p {
		return true
	}
	return in.ReadsB() && in.B.Class == isa.ClassInt && ann.PB == p
}

// chainDead mirrors codegen's dead-after proof: after the consumer at pc,
// register p must be killed by a following def before any read, CALL,
// terminator, block boundary, or the end of the function. Reads are
// checked before defs so a read-and-redefine counts as a second use.
func chainDead(mf *codegen.MFunc, leaders []bool, pc int, p int32) bool {
	if chainDefs(mf, pc, p) {
		return true
	}
	if mf.Code[pc].Op.Meta().Terminator {
		return false
	}
	for j := pc + 1; j < len(mf.Code); j++ {
		if leaders[j] {
			return false
		}
		in := &mf.Code[j]
		if in.Op == isa.CALL {
			return false
		}
		if chainReads(mf, j, p) {
			return false
		}
		if chainDefs(mf, j, p) {
			return true
		}
		if in.Op.Meta().Terminator {
			return false
		}
	}
	return false
}
