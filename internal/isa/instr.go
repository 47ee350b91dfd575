package isa

import (
	"fmt"
	"math"
	"strings"
)

// Instr is one instruction. Which fields are meaningful depends on Op; see
// the opcode comments in op.go. The struct doubles as compiler IR (virtual
// registers, Target = block index, CALL carries Args) and machine code
// (physical map indices, Target = instruction address, CALL lowered to the
// stack convention).
type Instr struct {
	Op  Op
	Dst Reg // destination register (also the compare "fa" slot is A)
	A   Reg // first source
	B   Reg // second source (ignored when UseImm)

	// Imm is the second-source immediate (when UseImm), the load/store
	// displacement, the MOVI constant, the FMOVI bit pattern, or the LGA
	// offset.
	Imm    int64
	UseImm bool

	// Target is the branch destination: a block index in IR form, an
	// absolute instruction address in machine form.
	Target int

	// Sym is the callee name for CALL or the global symbol for LGA.
	Sym string

	// Args holds the argument registers of an IR-level CALL. Lowering
	// replaces them with explicit stack stores; machine-level CALLs have
	// no Args.
	Args []Reg

	// Connect operands: (map index, physical register) pairs. CONUSE and
	// CONDEF use pair 0 only. CClass tells which register file's mapping
	// table the connect addresses.
	CIdx   [2]uint16
	CPhys  [2]uint16
	CClass RegClass

	// Pred is the static branch prediction attached by the compiler from
	// profile data: true = predicted taken. Meaningful for conditional
	// branches only.
	Pred bool
}

// FImm returns the FMOVI immediate as a float64.
func (in *Instr) FImm() float64 { return math.Float64frombits(uint64(in.Imm)) }

// SetFImm stores a float64 immediate into Imm.
func (in *Instr) SetFImm(f float64) { in.Imm = int64(math.Float64bits(f)) }

// ReadsA reports whether the instruction reads a register through its A
// slot (RET only when it returns a value).
func (in *Instr) ReadsA() bool {
	return in.Op.Meta().A != ClassNone && in.A.Valid()
}

// ReadsB reports whether the instruction reads a register through its B
// slot; an immediate displaces B where the opcode allows one.
func (in *Instr) ReadsB() bool {
	m := in.Op.Meta()
	return m.B != ClassNone && !(m.BImm && in.UseImm) && in.B.Valid()
}

// Uses appends the registers read by the instruction to dst and returns it:
// A, then B, then an IR-level CALL's Args. Connect instructions read no
// data registers (their operands are immediates).
func (in *Instr) Uses(dst []Reg) []Reg {
	if in.ReadsA() {
		dst = append(dst, in.A)
	}
	if in.ReadsB() {
		dst = append(dst, in.B)
	}
	return append(dst, in.Args...)
}

// Def returns the register written by the instruction, or an invalid Reg
// (always for opcodes that write nothing; for a void CALL).
func (in *Instr) Def() Reg {
	if in.Op.Meta().Dst == ClassNone {
		return Reg{}
	}
	return in.Dst
}

// CheckOperands reports whether the instruction's register operands fit
// its opcode's schema: every slot the opcode writes or reads holds a
// register of the slot's class (an optional slot either class or none,
// and an immediate may stand in for B where the opcode allows one).
// Unused slots are ignored, and register numbers are not range-checked:
// their bounds depend on the form (virtual registers or map indices).
func (in *Instr) CheckOperands() error {
	if int(in.Op) >= NumOps {
		return fmt.Errorf("unknown opcode %v", in.Op)
	}
	m := &Meta[in.Op]
	if err := checkSlot("dst", in.Dst, m.Dst); err != nil {
		return err
	}
	if err := checkSlot("srcA", in.A, m.A); err != nil {
		return err
	}
	if m.BImm && in.UseImm {
		return nil
	}
	return checkSlot("srcB", in.B, m.B)
}

// checkSlot checks one operand against its schema class.
func checkSlot(slot string, r Reg, want RegClass) error {
	switch want {
	case ClassNone:
		return nil
	case ClassEither:
		if r.Class <= ClassFloat {
			return nil
		}
	default:
		if r.Class == want {
			return nil
		}
	}
	return fmt.Errorf("%s %v has class %v, want %v", slot, r, r.Class, want)
}

// ConnectPairs returns the (index, phys, isDef) triples of a connect
// instruction in operand order, driven by the Meta table's pair shape. It
// returns nil for non-connects. It allocates; the simulator copies the
// pairs into its micro-ops once per run instead.
func (in *Instr) ConnectPairs() []ConnectPair {
	m := in.Op.Meta()
	if m.NPairs == 0 {
		return nil
	}
	out := make([]ConnectPair, m.NPairs)
	for i := range out {
		out[i] = ConnectPair{in.CIdx[i], in.CPhys[i], m.PairDef[i]}
	}
	return out
}

// ConnectPair is one (map index, physical register) connect operand.
type ConnectPair struct {
	Idx  uint16
	Phys uint16
	Def  bool // true: updates the write map; false: the read map
}

// String renders the instruction in assembly-like form. Branch targets are
// rendered as ".T<n>" (block index or address, per form).
func (in *Instr) String() string {
	var b strings.Builder
	b.WriteString(in.Op.String())
	arg := func(s string) {
		if strings.HasSuffix(b.String(), in.Op.String()) {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		b.WriteString(s)
	}
	src2 := func() string {
		if in.UseImm {
			return fmt.Sprintf("#%d", in.Imm)
		}
		return in.B.String()
	}
	switch in.Op {
	case NOP, HALT:
	case MOVI:
		arg(in.Dst.String())
		arg(fmt.Sprintf("#%d", in.Imm))
	case FMOVI:
		arg(in.Dst.String())
		arg(fmt.Sprintf("#%g", in.FImm()))
	case LGA:
		arg(in.Dst.String())
		arg(fmt.Sprintf("%s+%d", in.Sym, in.Imm))
	case MOV, FMOV, FNEG, FABS, CVTIF, CVTFI:
		arg(in.Dst.String())
		arg(in.A.String())
	case LD, FLD:
		arg(in.Dst.String())
		arg(fmt.Sprintf("%d(%s)", in.Imm, in.A))
	case ST, FST:
		arg(in.B.String())
		arg(fmt.Sprintf("%d(%s)", in.Imm, in.A))
	case BR:
		arg(fmt.Sprintf(".T%d", in.Target))
	case BEQ, BNE, BLT, BLE, BGT, BGE:
		arg(in.A.String())
		arg(src2())
		arg(fmt.Sprintf(".T%d", in.Target))
	case FBEQ, FBNE, FBLT, FBLE:
		arg(in.A.String())
		arg(in.B.String())
		arg(fmt.Sprintf(".T%d", in.Target))
	case CALL:
		arg(in.Sym)
		if in.Dst.Valid() {
			arg("-> " + in.Dst.String())
		}
		for _, a := range in.Args {
			arg(a.String())
		}
	case RET:
		if in.A.Valid() {
			arg(in.A.String())
		}
	case CONUSE, CONDEF, CONUU, CONDU, CONDD:
		for _, p := range in.ConnectPairs() {
			cls := "r"
			if in.CClass == ClassFloat {
				cls = "f"
			}
			arg(fmt.Sprintf("%si%d:%sp%d", cls, p.Idx, cls, p.Phys))
		}
	default:
		arg(in.Dst.String())
		arg(in.A.String())
		arg(src2())
	}
	return b.String()
}
