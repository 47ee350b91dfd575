package isa

import (
	"testing"
)

// decodeCases builds at least one representative instruction per opcode,
// plus the operand-shape variants that change extraction: immediate second
// sources, invalid B slots, value-returning RET, and the FMOVI bit-pattern
// immediate.
func decodeCases() []Instr {
	var cases []Instr
	for op := Op(0); int(op) < NumOps; op++ {
		in := Instr{
			Op: op, Dst: IntReg(3), A: IntReg(4), B: IntReg(5),
			Imm: 16, Target: 7, Pred: true,
			CIdx: [2]uint16{2, 6}, CPhys: [2]uint16{90, 91}, CClass: ClassInt,
		}
		if op == FMOVI {
			in.SetFImm(2.5)
		}
		cases = append(cases, in)

		switch op {
		case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SLL, SRL, SRA, SLT,
			BEQ, BNE, BLT, BLE, BGT, BGE:
			imm := in
			imm.B = Reg{}
			imm.UseImm = true
			cases = append(cases, imm)
		case RET:
			void := in
			void.A = Reg{}
			cases = append(cases, void)
		case MOV, FMOV, FNEG, FABS, CVTIF, CVTFI, MOVI, FMOVI, LD, FLD:
			noB := in
			noB.B = Reg{}
			cases = append(cases, noB)
		}
	}
	return cases
}

// TestDecodeRoundTrip checks that the predecoded form agrees with the
// dynamic extraction helpers for every opcode: same use set, same def,
// same connect pairs, same classification and immediate/branch payload.
func TestDecodeRoundTrip(t *testing.T) {
	covered := map[Op]bool{}
	for _, in := range decodeCases() {
		in := in
		covered[in.Op] = true
		d := in.Decode()

		if d.Op != in.Op || d.Kind != in.Op.Kind() {
			t.Errorf("%v: op/kind mismatch: %+v", in.Op, d)
		}
		if d.Mem != in.Op.IsMem() {
			t.Errorf("%v: flag mismatch mem=%v", in.Op, d.Mem)
		}
		if d.Dst != in.Def() {
			t.Errorf("%v: def %v, want %v", in.Op, d.Dst, in.Def())
		}

		want := in.Uses(nil)
		got := d.Uses()
		if len(got) != len(want) {
			t.Errorf("%v: uses %v, want %v", in.Op, got, want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%v: use[%d] = %v, want %v", in.Op, i, got[i], want[i])
				}
			}
		}

		wantPairs := in.ConnectPairs()
		gotPairs := d.Pairs()
		if len(gotPairs) != len(wantPairs) {
			t.Errorf("%v: pairs %v, want %v", in.Op, gotPairs, wantPairs)
		} else {
			for i := range wantPairs {
				if gotPairs[i] != wantPairs[i] {
					t.Errorf("%v: pair[%d] = %v, want %v", in.Op, i, gotPairs[i], wantPairs[i])
				}
			}
		}

		if d.Imm != in.Imm || d.UseImm != in.UseImm || d.Target != in.Target || d.Pred != in.Pred {
			t.Errorf("%v: payload mismatch: %+v", in.Op, d)
		}
		if in.Op == FMOVI && d.FI != in.FImm() {
			t.Errorf("FMOVI: FI = %v, want %v", d.FI, in.FImm())
		}
		if d.CClass != in.CClass {
			t.Errorf("%v: cclass %v, want %v", in.Op, d.CClass, in.CClass)
		}
	}
	for op := Op(0); int(op) < NumOps; op++ {
		if !covered[op] {
			t.Errorf("no decode case for opcode %v", op)
		}
	}
}
