package machine

import (
	"math"
	"slices"
	"testing"

	"regconn/internal/codegen"
	"regconn/internal/isa"
)

// TestPredecodeMirrorsImage: the micro-op stream is 1:1 with the image and
// each uop carries the configuration's latency for its opcode. (Field-level
// operand round-trip for every opcode is TestPredecodeRoundTrip.)
func TestPredecodeMirrorsImage(t *testing.T) {
	img := asm(
		movi(3, 7),
		addi(4, 3, 1),
		isa.Instr{Op: isa.MUL, Dst: isa.IntReg(5), A: isa.IntReg(3), B: isa.IntReg(4)},
		isa.Instr{Op: isa.LD, Dst: isa.IntReg(6), A: isa.IntReg(1), Imm: -8},
		isa.Instr{Op: isa.CONDEF, CIdx: [2]uint16{3}, CPhys: [2]uint16{40}, CClass: isa.ClassInt},
		isa.Instr{Op: isa.BLT, A: isa.IntReg(4), Imm: 8, UseImm: true, Target: 1, Pred: false},
		halt(),
	)
	lat := isa.DefaultLatencies(4)
	us := predecode(img.Code, nil, false, lat)
	if len(us) != len(img.Code) {
		t.Fatalf("predecoded %d uops from %d instructions", len(us), len(img.Code))
	}
	for i, u := range us {
		in := &img.Code[i]
		if u.Op != in.Op {
			t.Errorf("uop %d: op %v, want %v", i, u.Op, in.Op)
		}
		if want := int64(lat.Of(in.Op)); u.lat != want {
			t.Errorf("uop %d (%v): lat %d, want %d", i, in.Op, u.lat, want)
		}
		if u.Dst != slotOf(in.Def()) {
			t.Errorf("uop %d (%v): dst %v, want %v", i, in.Op, u.Dst, in.Def())
		}
	}
	// The predecoded run still executes correctly.
	res := run(t, img, cfg1())
	if res.Instrs == 0 || res.Cycles == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

// roundTripCases builds at least one representative instruction per
// opcode, plus the operand-shape variants that change extraction:
// immediate second sources, invalid B slots, value-returning RET, and the
// FMOVI bit-pattern immediate.
func roundTripCases() []isa.Instr {
	var cases []isa.Instr
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		in := isa.Instr{
			Op: op, Dst: isa.IntReg(3), A: isa.IntReg(4), B: isa.IntReg(5),
			Imm: 16, Target: 7, Pred: true,
			CIdx: [2]uint16{2, 6}, CPhys: [2]uint16{90, 91}, CClass: isa.ClassInt,
		}
		if op == isa.FMOVI {
			in.SetFImm(2.5)
		}
		cases = append(cases, in)

		switch op {
		case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT,
			isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
			imm := in
			imm.B = isa.Reg{}
			imm.UseImm = true
			cases = append(cases, imm)
		case isa.RET:
			void := in
			void.A = isa.Reg{}
			cases = append(cases, void)
		case isa.MOV, isa.FMOV, isa.FNEG, isa.FABS, isa.CVTIF, isa.CVTFI, isa.MOVI, isa.FMOVI, isa.LD, isa.FLD:
			noB := in
			noB.B = isa.Reg{}
			cases = append(cases, noB)
		}
	}
	return cases
}

// TestPredecodeRoundTrip checks that each micro-op agrees with the
// operand schema's extraction helpers for every opcode: its A and B slots
// are exactly the registers Instr.Uses reads, in order, its Dst is
// Instr.Def, and its connect pairs, classification, latency and
// immediate/branch payload are the instruction's.
func TestPredecodeRoundTrip(t *testing.T) {
	cases := roundTripCases()
	lat := isa.DefaultLatencies(2)
	us := predecode(cases, nil, false, lat)
	covered := map[isa.Op]bool{}
	for i := range cases {
		in, u := &cases[i], &us[i]
		covered[in.Op] = true
		if u.Op != in.Op || u.Kind != in.Op.Kind() || u.Mem != in.Op.IsMem() {
			t.Errorf("%v: op/kind/mem mismatch: %+v", in.Op, *u)
		}
		if u.lat != int64(lat.Of(in.Op)) {
			t.Errorf("%v: lat %d, want %d", in.Op, u.lat, lat.Of(in.Op))
		}
		if u.Dst != slotOf(in.Def()) {
			t.Errorf("%v: def %v, want %v", in.Op, u.Dst, in.Def())
		}
		var uses []slot
		for _, r := range in.Uses(nil) {
			uses = append(uses, slotOf(r))
		}
		var got []slot
		for _, r := range []slot{u.A, u.B} {
			if r.valid() {
				got = append(got, r)
			}
		}
		if !slices.Equal(got, uses) {
			t.Errorf("%v: uses %v, want %v", in.Op, got, uses)
		}
		if u.A.valid() != in.ReadsA() || u.B.valid() != in.ReadsB() {
			t.Errorf("%v: slots A %v B %v, reads A %v B %v", in.Op, u.A, u.B, in.ReadsA(), in.ReadsB())
		}
		if want := in.ConnectPairs(); !slices.Equal(u.pairs(), want) {
			t.Errorf("%v: pairs %v, want %v", in.Op, u.pairs(), want)
		}
		if u.Imm != in.Imm || u.UseImm != in.UseImm || int(u.Target) != in.Target || u.Pred != in.Pred {
			t.Errorf("%v: payload mismatch: %+v", in.Op, *u)
		}
		if in.Op == isa.FMOVI && math.Float64frombits(uint64(u.Imm)) != in.FImm() {
			t.Errorf("FMOVI: immediate %v, want %v", math.Float64frombits(uint64(u.Imm)), in.FImm())
		}
		if u.CClass != in.CClass {
			t.Errorf("%v: cclass %v, want %v", in.Op, u.CClass, in.CClass)
		}
	}
	for op := isa.Op(0); int(op) < isa.NumOps; op++ {
		if !covered[op] {
			t.Errorf("no round-trip case for opcode %v", op)
		}
	}
}

// TestPredecodeChainMarks: a chain annotation marks every slot naming the
// forwarded register, so a consumer reading it through both A and B skips
// both interlocks, and one overwriting it skips the WAW interlock.
func TestPredecodeChainMarks(t *testing.T) {
	code := []isa.Instr{
		{Op: isa.ADD, Dst: isa.IntReg(6), A: isa.IntReg(5), B: isa.IntReg(5)},
		{Op: isa.SUB, Dst: isa.IntReg(5), A: isa.IntReg(4), B: isa.IntReg(5)},
		{Op: isa.ADD, Dst: isa.IntReg(7), A: isa.IntReg(5), Imm: 1, UseImm: true},
	}
	ann := []codegen.Annot{{ChainA: true, ChainOut: true}, {ChainB: true}, {ChainB: true}}
	us := predecode(code, ann, true, isa.DefaultLatencies(2))
	type marks struct{ out, a, b, dst bool }
	want := []marks{{true, true, true, false}, {false, false, true, true}, {false, false, false, false}}
	for i, u := range us {
		if got := (marks{u.chainOut, u.chainA, u.chainB, u.chainDst}); got != want[i] {
			t.Errorf("uop %d: marks %+v, want %+v", i, got, want[i])
		}
	}
	if off := predecode(code, ann, false, isa.DefaultLatencies(2)); off[0].chainA || off[0].chainOut {
		t.Error("chain marks set with chain forwarding off")
	}
}

// TestRunMatchesSeedSemantics: a program touching ALU, memory, connects,
// and branches produces the same architectural result at every issue rate
// (the predecoded pipeline must not change semantics with width).
func TestRunMatchesSeedSemantics(t *testing.T) {
	img := asm(
		isa.Instr{Op: isa.CONDEF, CIdx: [2]uint16{3}, CPhys: [2]uint16{80}, CClass: isa.ClassInt},
		movi(3, 5),
		movi(4, 0),
		movi(5, 0),
		add(5, 5, 3), // pc 4, loop head
		addi(4, 4, 1),
		isa.Instr{Op: isa.BLT, A: isa.IntReg(4), Imm: 10, UseImm: true, Target: 4, Pred: true},
		add(2, 5, 0),
		halt(),
	)
	c := DefaultConfig()
	c.IntCore, c.IntTotal = 16, 128
	var want int64 = 50
	for _, issue := range []int{1, 2, 4, 8} {
		c.IssueRate = issue
		res := run(t, img, c)
		if res.RetInt != want {
			t.Errorf("issue=%d: ret %d, want %d", issue, res.RetInt, want)
		}
	}
}
