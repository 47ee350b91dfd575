// Package isa defines the instruction set architecture used throughout the
// repository: a MIPS-R2000-like three-address instruction set extended with
// general compare-and-branch opcodes (as in the paper's experimental setup,
// §5.2) and with the register-connection instructions of §2.2.
//
// The same Instr type is used at two levels:
//
//   - as compiler IR, where register operands are virtual registers
//     (unbounded numbering per class), and
//   - as machine code, where register operands are physical map indices
//     (after register allocation) and branch targets are instruction
//     addresses.
//
// Sharing the representation keeps lowering honest: the compiler can only
// emit what the machine can execute.
package isa

import "fmt"

// Op is an instruction opcode.
type Op uint8

// Opcodes. The comments give the assembly shape; "rd" is a destination
// register, "ra"/"rb" source registers, "imm" a 64-bit immediate.
const (
	NOP Op = iota

	// Integer ALU (latency: IntALU).
	ADD // rd = ra + rb|imm
	SUB // rd = ra - rb|imm
	AND // rd = ra & rb|imm
	OR  // rd = ra | rb|imm
	XOR // rd = ra ^ rb|imm
	SLL // rd = ra << rb|imm
	SRL // rd = uint(ra) >> rb|imm
	SRA // rd = ra >> rb|imm
	SLT // rd = 1 if ra < rb|imm else 0
	MOV // rd = ra

	// Integer multiply / divide.
	MUL // rd = ra * rb|imm        (latency: IntMul)
	DIV // rd = ra / rb|imm        (latency: IntDiv)
	REM // rd = ra % rb|imm        (latency: IntDiv)

	// Immediate / address formation (latency: IntALU).
	MOVI // rd = imm
	LGA  // rd = address of global Sym (+ imm)

	// Memory (latency: Load / Store). Addresses are byte addresses; all
	// accesses move one 8-byte word.
	LD  // rd = mem[ra + imm]      (integer)
	ST  // mem[ra + imm] = rb      (integer; rb in the B slot)
	FLD // fd = mem[ra + imm]      (float dest, integer base)
	FST // mem[ra + imm] = fb      (float source in B slot, integer base)

	// Floating point (latency: FPALU / FPMul / FPDiv / FPConv).
	FADD  // fd = fa + fb
	FSUB  // fd = fa - fb
	FMUL  // fd = fa * fb
	FDIV  // fd = fa / fb
	FMOV  // fd = fa
	FMOVI // fd = float64frombits(imm)
	FNEG  // fd = -fa
	FABS  // fd = |fa|
	CVTIF // fd = float64(ra)      (int source)
	CVTFI // rd = int64(fa)        (float source; truncates)

	// Control (latency: Branch). In IR form Target is a block index; in
	// machine form it is an absolute instruction address.
	BR   // goto Target
	BEQ  // if ra == rb|imm goto Target
	BNE  // if ra != rb|imm goto Target
	BLT  // if ra <  rb|imm goto Target
	BLE  // if ra <= rb|imm goto Target
	BGT  // if ra >  rb|imm goto Target
	BGE  // if ra >= rb|imm goto Target
	FBEQ // if fa == fb goto Target
	FBNE // if fa != fb goto Target
	FBLT // if fa <  fb goto Target
	FBLE // if fa <= fb goto Target

	// Procedure linkage. CALL pushes the return address on the stack and
	// jumps to Sym; RET pops and returns. Both reset the register mapping
	// table to home locations (paper §4.1). In IR form CALL carries
	// explicit Args and an optional result in Dst; lowering expands these
	// into the stack-based calling convention.
	CALL
	RET

	// Register connection (paper §2.2). Operands are (map index, physical
	// register) pairs carried as immediates in CIdx/CPhys; connects never
	// read or write data registers. The single-pair forms are CONUSE and
	// CONDEF; the combined two-pair forms are CONUU (use,use),
	// CONDU (def,use) and CONDD (def,def) — footnote 1 of the paper says
	// the combined forms are what the experiments use.
	CONUSE // read-map[CIdx0] = CPhys0
	CONDEF // write-map[CIdx0] = CPhys0
	CONUU  // read-map[CIdx0] = CPhys0;  read-map[CIdx1] = CPhys1
	CONDU  // write-map[CIdx0] = CPhys0; read-map[CIdx1] = CPhys1
	CONDD  // write-map[CIdx0] = CPhys0; write-map[CIdx1] = CPhys1

	// HALT stops simulation; the interpreter treats falling off main the
	// same way.
	HALT

	numOps
)

// NumOps is the number of defined opcodes, for building dispatch tables
// indexed by Op.
const NumOps = int(numOps)

// Kind classifies opcodes by the functional-unit/latency class they occupy.
type Kind uint8

// Functional-unit classes (paper Table 1).
const (
	KindNop Kind = iota
	KindIntALU
	KindIntMul
	KindIntDiv
	KindFPALU
	KindFPMul
	KindFPDiv
	KindFPConv
	KindLoad
	KindStore
	KindBranch
	KindCall
	KindConnect
	KindHalt
)

// kindNames labels the functional-unit classes for stats export.
var kindNames = [...]string{
	KindNop:     "nop",
	KindIntALU:  "int-alu",
	KindIntMul:  "int-mul",
	KindIntDiv:  "int-div",
	KindFPALU:   "fp-alu",
	KindFPMul:   "fp-mul",
	KindFPDiv:   "fp-div",
	KindFPConv:  "fp-conv",
	KindLoad:    "load",
	KindStore:   "store",
	KindBranch:  "branch",
	KindCall:    "call",
	KindConnect: "connect",
	KindHalt:    "halt",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// OpMeta is the static description of one opcode: its functional-unit
// (latency) class, classification flags, and operand schema. Register
// connection adds registers without changing instruction formats (paper
// §2), so each opcode has exactly one operand shape, and this table is its
// only statement: Instr.Uses, Def, ReadsA, ReadsB and CheckOperands derive
// from it. The simulator consults the table once per instruction, when it
// predecodes the code into micro-ops, and its hot path reads those.
type OpMeta struct {
	Name string
	Kind Kind

	// Classification flags (mirrored by the Op predicate methods).
	Mem        bool // load or store: occupies a memory channel
	Connect    bool // register-connection opcode
	Branch     bool // conditional or unconditional branch (not CALL/RET)
	CondBranch bool
	Terminator bool // ends a basic block

	// Operand schema: the register class each slot holds. ClassNone marks
	// an unused slot, ClassEither an optional one of either class (CALL's
	// result, RET's value). Dst is written; A and B are read.
	Dst, A, B RegClass
	BImm      bool // the B slot may be replaced by an immediate (UseImm)

	// Connect operand shape: number of (index, phys) pairs and whether
	// each pair addresses the write map (def) or the read map (use).
	NPairs  uint8
	PairDef [2]bool
}

// Shape bundles for the Meta literal below.
func alu3(name string, k Kind) OpMeta { // rd = ra op rb|imm
	return OpMeta{Name: name, Kind: k, Dst: ClassInt, A: ClassInt, B: ClassInt, BImm: true}
}
func fp3(name string, k Kind) OpMeta { // fd = fa op fb
	return OpMeta{Name: name, Kind: k, Dst: ClassFloat, A: ClassFloat, B: ClassFloat}
}
func unary(name string, k Kind, dst, a RegClass) OpMeta { // d = op a
	return OpMeta{Name: name, Kind: k, Dst: dst, A: a}
}
func brCond(name string, c RegClass) OpMeta { // if a cmp b goto Target
	return OpMeta{Name: name, Kind: KindBranch, A: c, B: c, BImm: c == ClassInt,
		Branch: true, CondBranch: true, Terminator: true}
}
func connect(name string, pairs uint8, d0, d1 bool) OpMeta {
	return OpMeta{Name: name, Kind: KindConnect, Connect: true,
		NPairs: pairs, PairDef: [2]bool{d0, d1}}
}

// Meta is the static per-op metadata table.
var Meta = [NumOps]OpMeta{
	NOP:    {Name: "nop", Kind: KindNop},
	ADD:    alu3("add", KindIntALU),
	SUB:    alu3("sub", KindIntALU),
	AND:    alu3("and", KindIntALU),
	OR:     alu3("or", KindIntALU),
	XOR:    alu3("xor", KindIntALU),
	SLL:    alu3("sll", KindIntALU),
	SRL:    alu3("srl", KindIntALU),
	SRA:    alu3("sra", KindIntALU),
	SLT:    alu3("slt", KindIntALU),
	MOV:    unary("mov", KindIntALU, ClassInt, ClassInt),
	MUL:    alu3("mul", KindIntMul),
	DIV:    alu3("div", KindIntDiv),
	REM:    alu3("rem", KindIntDiv),
	MOVI:   {Name: "movi", Kind: KindIntALU, Dst: ClassInt},
	LGA:    {Name: "lga", Kind: KindIntALU, Dst: ClassInt},
	LD:     {Name: "ld", Kind: KindLoad, Mem: true, Dst: ClassInt, A: ClassInt},
	ST:     {Name: "st", Kind: KindStore, Mem: true, A: ClassInt, B: ClassInt},
	FLD:    {Name: "fld", Kind: KindLoad, Mem: true, Dst: ClassFloat, A: ClassInt},
	FST:    {Name: "fst", Kind: KindStore, Mem: true, A: ClassInt, B: ClassFloat},
	FADD:   fp3("fadd", KindFPALU),
	FSUB:   fp3("fsub", KindFPALU),
	FMUL:   fp3("fmul", KindFPMul),
	FDIV:   fp3("fdiv", KindFPDiv),
	FMOV:   unary("fmov", KindFPALU, ClassFloat, ClassFloat),
	FMOVI:  {Name: "fmovi", Kind: KindFPALU, Dst: ClassFloat},
	FNEG:   unary("fneg", KindFPALU, ClassFloat, ClassFloat),
	FABS:   unary("fabs", KindFPALU, ClassFloat, ClassFloat),
	CVTIF:  unary("cvtif", KindFPConv, ClassFloat, ClassInt),
	CVTFI:  unary("cvtfi", KindFPConv, ClassInt, ClassFloat),
	BR:     {Name: "br", Kind: KindBranch, Branch: true, Terminator: true},
	BEQ:    brCond("beq", ClassInt),
	BNE:    brCond("bne", ClassInt),
	BLT:    brCond("blt", ClassInt),
	BLE:    brCond("ble", ClassInt),
	BGT:    brCond("bgt", ClassInt),
	BGE:    brCond("bge", ClassInt),
	FBEQ:   brCond("fbeq", ClassFloat),
	FBNE:   brCond("fbne", ClassFloat),
	FBLT:   brCond("fblt", ClassFloat),
	FBLE:   brCond("fble", ClassFloat),
	CALL:   {Name: "call", Kind: KindCall, Dst: ClassEither}, // IR CALL also reads Args
	RET:    {Name: "ret", Kind: KindCall, A: ClassEither, Terminator: true},
	CONUSE: connect("con_use", 1, false, false),
	CONDEF: connect("con_def", 1, true, false),
	CONUU:  connect("con_uu", 2, false, false),
	CONDU:  connect("con_du", 2, true, false),
	CONDD:  connect("con_dd", 2, true, true),
	HALT:   {Name: "halt", Kind: KindHalt, Terminator: true},
}

// Meta returns the static metadata for the opcode.
func (op Op) Meta() *OpMeta {
	if int(op) < NumOps {
		return &Meta[op]
	}
	return &Meta[NOP]
}

// String returns the assembly mnemonic for the opcode.
func (op Op) String() string {
	if int(op) < NumOps && Meta[op].Name != "" {
		return Meta[op].Name
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Kind reports the functional-unit class of the opcode.
func (op Op) Kind() Kind {
	if int(op) < NumOps {
		return Meta[op].Kind
	}
	return KindNop
}

// IsBranch reports whether op is a conditional or unconditional branch
// (excluding CALL/RET, which are classified as KindCall).
func (op Op) IsBranch() bool { return op.Meta().Branch }

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool { return op.Meta().CondBranch }

// IsMem reports whether op accesses memory (loads and stores only; CALL/RET
// touch the stack but are modeled on the branch path, not a memory channel).
func (op Op) IsMem() bool { return op.Meta().Mem }

// IsConnect reports whether op is one of the register-connection opcodes.
func (op Op) IsConnect() bool { return op.Meta().Connect }

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool { return op.Meta().Terminator }
