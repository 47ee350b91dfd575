package isa

// Decoded is the predecoded micro-op form of an instruction: operand roles
// from the Meta table are resolved into fixed-size use/def sets, connect
// pairs are materialised, and the FMOVI bit pattern is pre-converted. The
// simulator decodes each instruction once per run and then issues from
// this form, so the per-cycle interlock and execute paths never allocate
// and never re-derive roles through per-op switches.
type Decoded struct {
	Op   Op
	Kind Kind

	// Mem is Meta's memory-channel flag, copied for single-load access.
	Mem bool

	// Operand slots, as in Instr.
	Dst  Reg // invalid when the op defines nothing
	A, B Reg

	// Use is the pre-extracted source-register set (Instr.Uses order).
	Use  [3]Reg
	NUse uint8

	// Pair holds the pre-materialised connect operands.
	Pair   [2]ConnectPair
	NPair  uint8
	CClass RegClass

	Imm    int64
	UseImm bool
	FI     float64 // FMOVI immediate, pre-converted

	Target int
	Pred   bool
}

// Decode extracts the micro-op form of the instruction. Machine-level
// CALLs carry no Args; decoding an IR-level CALL drops them (the simulator
// never sees one).
func (in *Instr) Decode() Decoded {
	m := in.Op.Meta()
	d := Decoded{
		Op:     in.Op,
		Kind:   m.Kind,
		Mem:    m.Mem,
		Dst:    in.Def(),
		A:      in.A,
		B:      in.B,
		CClass: in.CClass,
		Imm:    in.Imm,
		UseImm: in.UseImm,
		Target: in.Target,
		Pred:   in.Pred,
	}
	if in.Op == FMOVI {
		d.FI = in.FImm()
	}
	uses := in.Uses(d.Use[:0])
	if len(uses) > len(d.Use) {
		// Only IR-level CALLs can exceed three sources; the machine form
		// never does. Record what fits — Decode is machine-level only.
		uses = uses[:len(d.Use)]
	}
	d.NUse = uint8(len(uses))
	d.NPair = m.NPairs
	for i := 0; i < int(m.NPairs); i++ {
		d.Pair[i] = ConnectPair{in.CIdx[i], in.CPhys[i], m.PairDef[i]}
	}
	return d
}

// Uses returns the pre-extracted source registers without allocating.
func (d *Decoded) Uses() []Reg { return d.Use[:d.NUse] }

// Pairs returns the pre-materialised connect operands without allocating.
func (d *Decoded) Pairs() []ConnectPair { return d.Pair[:d.NPair] }
