package isa

import (
	"strings"
	"testing"
)

// sampleInstr builds a plausible instruction for any opcode.
func sampleInstr(op Op) Instr {
	in := Instr{Op: op}
	switch op {
	case NOP, HALT, RET:
	case MOVI:
		in.Dst, in.Imm = IntReg(3), 42
	case FMOVI:
		in.Dst = FloatReg(3)
		in.SetFImm(1.5)
	case LGA:
		in.Dst, in.Sym, in.Imm = IntReg(3), "g", 8
	case MOV, SLT:
		in.Dst, in.A, in.B = IntReg(1), IntReg(2), IntReg(3)
	case FMOV, FNEG, FABS:
		in.Dst, in.A = FloatReg(1), FloatReg(2)
	case CVTIF:
		in.Dst, in.A = FloatReg(1), IntReg(2)
	case CVTFI:
		in.Dst, in.A = IntReg(1), FloatReg(2)
	case LD:
		in.Dst, in.A, in.Imm = IntReg(1), IntReg(2), 16
	case FLD:
		in.Dst, in.A, in.Imm = FloatReg(1), IntReg(2), 16
	case ST:
		in.A, in.B, in.Imm = IntReg(2), IntReg(3), 16
	case FST:
		in.A, in.B, in.Imm = IntReg(2), FloatReg(3), 16
	case FADD, FSUB, FMUL, FDIV:
		in.Dst, in.A, in.B = FloatReg(1), FloatReg(2), FloatReg(3)
	case BR:
		in.Target = 7
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		in.A, in.B, in.Target = IntReg(1), IntReg(2), 7
	case FBEQ, FBNE, FBLT, FBLE:
		in.A, in.B, in.Target = FloatReg(1), FloatReg(2), 7
	case CALL:
		in.Sym = "f"
		in.Dst = IntReg(4)
		in.Args = []Reg{IntReg(1), FloatReg(0)}
	case CONUSE, CONDEF:
		in.CIdx, in.CPhys, in.CClass = [2]uint16{3}, [2]uint16{99}, ClassInt
	case CONUU, CONDU, CONDD:
		in.CIdx, in.CPhys, in.CClass = [2]uint16{3, 4}, [2]uint16{99, 100}, ClassFloat
	default:
		in.Dst, in.A, in.B = IntReg(1), IntReg(2), IntReg(3)
	}
	return in
}

// TestEveryOpcode walks the whole opcode space: String is printable,
// Uses/Def are consistent with the register classes, CheckOperands accepts
// the sample and rejects it once any used slot holds the wrong class,
// latency is sane, and each classification predicate is total.
func TestEveryOpcode(t *testing.T) {
	lat := DefaultLatencies(2)
	count := 0
	for op := Op(0); ; op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			break
		}
		count++
		in := sampleInstr(op)
		s := in.String()
		if s == "" {
			t.Errorf("%v: empty String", op)
		}
		if !strings.HasPrefix(s, name) {
			t.Errorf("%v: String %q does not start with mnemonic", op, s)
		}
		uses := in.Uses(nil)
		for _, u := range uses {
			if !u.Valid() {
				t.Errorf("%v: invalid register in Uses", op)
			}
		}
		if d := in.Def(); d.Valid() {
			switch op.Kind() {
			case KindStore, KindBranch, KindConnect, KindHalt:
				t.Errorf("%v: unexpected Def %v", op, d)
			}
		}
		checkOperandsOf(t, in)
		if l := lat.Of(op); l < 0 || l > 10 {
			t.Errorf("%v: latency %d out of range", op, l)
		}
		// Predicates must not disagree with the kind table.
		if op.IsMem() != (op.Kind() == KindLoad || op.Kind() == KindStore) {
			t.Errorf("%v: IsMem inconsistent", op)
		}
		if op.IsConnect() != (op.Kind() == KindConnect) {
			t.Errorf("%v: IsConnect inconsistent", op)
		}
		// Immediate variants print with '#'.
		if op == ADD {
			imm := Instr{Op: ADD, Dst: IntReg(1), A: IntReg(2), Imm: 5, UseImm: true}
			if !strings.Contains(imm.String(), "#5") {
				t.Errorf("immediate form misprinted: %s", imm.String())
			}
		}
	}
	if count < 45 {
		t.Errorf("opcode walk covered only %d opcodes", count)
	}
	if err := (&Instr{Op: Op(NumOps)}).CheckOperands(); err == nil {
		t.Error("CheckOperands accepted an unknown opcode")
	}
}

// checkOperandsOf requires CheckOperands to accept the well-formed
// instruction in and to reject every single-slot corruption of it: a used
// slot holding the other class or no register, or an optional slot
// holding a class no register file has.
func checkOperandsOf(t *testing.T, in Instr) {
	t.Helper()
	if err := in.CheckOperands(); err != nil {
		t.Errorf("%v: CheckOperands rejects the sample: %v", in.Op, err)
	}
	m := in.Op.Meta()
	slots := []struct {
		name string
		reg  func(*Instr) *Reg
		want RegClass
	}{
		{"dst", func(i *Instr) *Reg { return &i.Dst }, m.Dst},
		{"srcA", func(i *Instr) *Reg { return &i.A }, m.A},
		{"srcB", func(i *Instr) *Reg { return &i.B }, m.B},
	}
	for _, s := range slots {
		var bad []RegClass
		switch s.want {
		case ClassInt:
			bad = []RegClass{ClassFloat, ClassNone}
		case ClassFloat:
			bad = []RegClass{ClassInt, ClassNone}
		case ClassEither:
			bad = []RegClass{ClassEither, 7}
		}
		for _, c := range bad {
			mut := in
			mut.UseImm = false
			*s.reg(&mut) = Reg{Class: c, N: 1}
			if err := mut.CheckOperands(); err == nil {
				t.Errorf("%v: CheckOperands accepts %s of class %v", in.Op, s.name, c)
			}
		}
	}
}

func TestRegClassStrings(t *testing.T) {
	if ClassInt.String() != "int" || ClassFloat.String() != "float" || ClassNone.String() != "none" {
		t.Error("RegClass strings wrong")
	}
	if (Reg{}).String() != "_" {
		t.Error("invalid register should print _")
	}
	if IntReg(5).String() != "r5" || FloatReg(7).String() != "f7" {
		t.Error("register printing wrong")
	}
	if (Reg{}).Valid() || !IntReg(0).Valid() {
		t.Error("Valid wrong")
	}
}
