package ir

import (
	"fmt"

	"regconn/internal/isa"
)

// Builder provides a fluent API for constructing IR functions. All emit
// methods append to the current block and return the destination register
// (where there is one). The builder is how benchmark programs and tests are
// written; misuse (e.g. emitting into a terminated block) panics, since IR
// construction errors are programming errors.
type Builder struct {
	F   *Func
	cur *Block

	// fixes remembers every emitted branch with the *Block it targets so
	// Continue can insert blocks mid-construction and re-resolve indices.
	fixes []branchFix
}

type branchFix struct {
	blk *Block
	idx int
	tgt *Block
}

// NewFunc creates a function with nparams integer parameters followed by
// nfparams floating-point parameters, registers it in p, and returns a
// builder positioned at a fresh entry block.
func NewFunc(p *Program, name string, nparams, nfparams int) *Builder {
	f := &Func{Name: name}
	for i := 0; i < nparams; i++ {
		f.Params = append(f.Params, f.NewInt())
	}
	for i := 0; i < nfparams; i++ {
		f.Params = append(f.Params, f.NewFloat())
	}
	p.AddFunc(f)
	b := &Builder{F: f}
	b.cur = f.NewBlock()
	return b
}

// Param returns the i'th parameter register.
func (b *Builder) Param(i int) isa.Reg { return b.F.Params[i] }

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.cur }

// NewBlock creates a new block (without changing the insertion point).
func (b *Builder) NewBlock() *Block { return b.F.NewBlock() }

// SetBlock moves the insertion point to blk.
func (b *Builder) SetBlock(blk *Block) { b.cur = blk }

// Continue inserts a fresh block immediately after the current block — the
// fallthrough successor of the conditional branch just emitted — moves the
// insertion point there, and returns it. All previously emitted branch
// targets are re-resolved, so layout position never needs hand-managing.
func (b *Builder) Continue() *Block {
	nb := b.F.InsertBlock(b.cur.Index + 1)
	for _, fx := range b.fixes {
		fx.blk.Instrs[fx.idx].Target = fx.tgt.Index
	}
	b.cur = nb
	return nb
}

func (b *Builder) emit(in isa.Instr) {
	if t := b.cur.Term(); t != nil {
		panic(fmt.Sprintf("ir: emit %v into terminated block .T%d of %s", in.Op, b.cur.Index, b.F.Name))
	}
	b.cur.Append(in)
}

func (b *Builder) bin(op isa.Op, x, y isa.Reg) isa.Reg {
	d := b.destFor(op)
	b.emit(isa.Instr{Op: op, Dst: d, A: x, B: y})
	return d
}

func (b *Builder) binI(op isa.Op, x isa.Reg, imm int64) isa.Reg {
	d := b.destFor(op)
	b.emit(isa.Instr{Op: op, Dst: d, A: x, Imm: imm, UseImm: true})
	return d
}

// destFor allocates a fresh virtual register of op's destination class.
func (b *Builder) destFor(op isa.Op) isa.Reg {
	if op.Meta().Dst == isa.ClassFloat {
		return b.F.NewFloat()
	}
	return b.F.NewInt()
}

// Integer arithmetic.
func (b *Builder) Add(x, y isa.Reg) isa.Reg        { return b.bin(isa.ADD, x, y) }
func (b *Builder) AddI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.ADD, x, k) }
func (b *Builder) Sub(x, y isa.Reg) isa.Reg        { return b.bin(isa.SUB, x, y) }
func (b *Builder) SubI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.SUB, x, k) }
func (b *Builder) Mul(x, y isa.Reg) isa.Reg        { return b.bin(isa.MUL, x, y) }
func (b *Builder) MulI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.MUL, x, k) }
func (b *Builder) Div(x, y isa.Reg) isa.Reg        { return b.bin(isa.DIV, x, y) }
func (b *Builder) DivI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.DIV, x, k) }
func (b *Builder) Rem(x, y isa.Reg) isa.Reg        { return b.bin(isa.REM, x, y) }
func (b *Builder) RemI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.REM, x, k) }
func (b *Builder) And(x, y isa.Reg) isa.Reg        { return b.bin(isa.AND, x, y) }
func (b *Builder) AndI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.AND, x, k) }
func (b *Builder) Or(x, y isa.Reg) isa.Reg         { return b.bin(isa.OR, x, y) }
func (b *Builder) OrI(x isa.Reg, k int64) isa.Reg  { return b.binI(isa.OR, x, k) }
func (b *Builder) Xor(x, y isa.Reg) isa.Reg        { return b.bin(isa.XOR, x, y) }
func (b *Builder) XorI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.XOR, x, k) }
func (b *Builder) Sll(x, y isa.Reg) isa.Reg        { return b.bin(isa.SLL, x, y) }
func (b *Builder) SllI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.SLL, x, k) }
func (b *Builder) SrlI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.SRL, x, k) }
func (b *Builder) SraI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.SRA, x, k) }
func (b *Builder) Slt(x, y isa.Reg) isa.Reg        { return b.bin(isa.SLT, x, y) }
func (b *Builder) SltI(x isa.Reg, k int64) isa.Reg { return b.binI(isa.SLT, x, k) }

// Mov copies an integer register; FMov copies a float register.
func (b *Builder) Mov(x isa.Reg) isa.Reg {
	d := b.F.NewInt()
	b.emit(isa.Instr{Op: isa.MOV, Dst: d, A: x})
	return d
}
func (b *Builder) FMov(x isa.Reg) isa.Reg {
	d := b.F.NewFloat()
	b.emit(isa.Instr{Op: isa.FMOV, Dst: d, A: x})
	return d
}

// MovTo copies src into an existing register dst (the builder's only way
// to redefine a register, used for loop-carried variables).
func (b *Builder) MovTo(dst, src isa.Reg) {
	op := isa.MOV
	if dst.Class == isa.ClassFloat {
		op = isa.FMOV
	}
	b.emit(isa.Instr{Op: op, Dst: dst, A: src})
}

// Const materializes an integer constant; FConst a float constant.
func (b *Builder) Const(k int64) isa.Reg {
	d := b.F.NewInt()
	b.emit(isa.Instr{Op: isa.MOVI, Dst: d, Imm: k})
	return d
}
func (b *Builder) FConst(v float64) isa.Reg {
	d := b.F.NewFloat()
	in := isa.Instr{Op: isa.FMOVI, Dst: d}
	in.SetFImm(v)
	b.emit(in)
	return d
}

// Addr materializes the address of a global (+ byte offset).
func (b *Builder) Addr(g *Global, off int64) isa.Reg {
	d := b.F.NewInt()
	b.emit(isa.Instr{Op: isa.LGA, Dst: d, Sym: g.Name, Imm: off})
	return d
}

// Memory. Offsets are in bytes; accesses move one 8-byte word.
func (b *Builder) Ld(base isa.Reg, off int64) isa.Reg {
	d := b.F.NewInt()
	b.emit(isa.Instr{Op: isa.LD, Dst: d, A: base, Imm: off})
	return d
}
func (b *Builder) St(val, base isa.Reg, off int64) {
	b.emit(isa.Instr{Op: isa.ST, A: base, B: val, Imm: off})
}
func (b *Builder) FLd(base isa.Reg, off int64) isa.Reg {
	d := b.F.NewFloat()
	b.emit(isa.Instr{Op: isa.FLD, Dst: d, A: base, Imm: off})
	return d
}
func (b *Builder) FSt(val, base isa.Reg, off int64) {
	b.emit(isa.Instr{Op: isa.FST, A: base, B: val, Imm: off})
}

// Floating point arithmetic.
func (b *Builder) FAdd(x, y isa.Reg) isa.Reg { return b.bin(isa.FADD, x, y) }
func (b *Builder) FSub(x, y isa.Reg) isa.Reg { return b.bin(isa.FSUB, x, y) }
func (b *Builder) FMul(x, y isa.Reg) isa.Reg { return b.bin(isa.FMUL, x, y) }
func (b *Builder) FDiv(x, y isa.Reg) isa.Reg { return b.bin(isa.FDIV, x, y) }
func (b *Builder) FNeg(x isa.Reg) isa.Reg {
	d := b.F.NewFloat()
	b.emit(isa.Instr{Op: isa.FNEG, Dst: d, A: x})
	return d
}
func (b *Builder) FAbs(x isa.Reg) isa.Reg {
	d := b.F.NewFloat()
	b.emit(isa.Instr{Op: isa.FABS, Dst: d, A: x})
	return d
}
func (b *Builder) IToF(x isa.Reg) isa.Reg {
	d := b.F.NewFloat()
	b.emit(isa.Instr{Op: isa.CVTIF, Dst: d, A: x})
	return d
}
func (b *Builder) FToI(x isa.Reg) isa.Reg {
	d := b.F.NewInt()
	b.emit(isa.Instr{Op: isa.CVTFI, Dst: d, A: x})
	return d
}

// Control flow.
func (b *Builder) Br(t *Block) {
	b.emit(isa.Instr{Op: isa.BR, Target: t.Index})
	b.noteBranch(t)
}

func (b *Builder) CondBr(op isa.Op, x, y isa.Reg, t *Block) {
	b.emit(isa.Instr{Op: op, A: x, B: y, Target: t.Index})
	b.noteBranch(t)
}
func (b *Builder) CondBrI(op isa.Op, x isa.Reg, k int64, t *Block) {
	b.emit(isa.Instr{Op: op, A: x, Imm: k, UseImm: true, Target: t.Index})
	b.noteBranch(t)
}

func (b *Builder) noteBranch(t *Block) {
	b.fixes = append(b.fixes, branchFix{b.cur, len(b.cur.Instrs) - 1, t})
}
func (b *Builder) Beq(x, y isa.Reg, t *Block)        { b.CondBr(isa.BEQ, x, y, t) }
func (b *Builder) Bne(x, y isa.Reg, t *Block)        { b.CondBr(isa.BNE, x, y, t) }
func (b *Builder) Blt(x, y isa.Reg, t *Block)        { b.CondBr(isa.BLT, x, y, t) }
func (b *Builder) Ble(x, y isa.Reg, t *Block)        { b.CondBr(isa.BLE, x, y, t) }
func (b *Builder) Bgt(x, y isa.Reg, t *Block)        { b.CondBr(isa.BGT, x, y, t) }
func (b *Builder) Bge(x, y isa.Reg, t *Block)        { b.CondBr(isa.BGE, x, y, t) }
func (b *Builder) BeqI(x isa.Reg, k int64, t *Block) { b.CondBrI(isa.BEQ, x, k, t) }
func (b *Builder) BneI(x isa.Reg, k int64, t *Block) { b.CondBrI(isa.BNE, x, k, t) }
func (b *Builder) BltI(x isa.Reg, k int64, t *Block) { b.CondBrI(isa.BLT, x, k, t) }
func (b *Builder) BleI(x isa.Reg, k int64, t *Block) { b.CondBrI(isa.BLE, x, k, t) }
func (b *Builder) BgtI(x isa.Reg, k int64, t *Block) { b.CondBrI(isa.BGT, x, k, t) }
func (b *Builder) BgeI(x isa.Reg, k int64, t *Block) { b.CondBrI(isa.BGE, x, k, t) }
func (b *Builder) FBlt(x, y isa.Reg, t *Block)       { b.CondBr(isa.FBLT, x, y, t) }
func (b *Builder) FBle(x, y isa.Reg, t *Block)       { b.CondBr(isa.FBLE, x, y, t) }
func (b *Builder) FBeq(x, y isa.Reg, t *Block)       { b.CondBr(isa.FBEQ, x, y, t) }
func (b *Builder) FBne(x, y isa.Reg, t *Block)       { b.CondBr(isa.FBNE, x, y, t) }

// Call emits a call returning an integer result; FCall a float result;
// CallVoid no result. Callees are named (resolved at verify time).
func (b *Builder) Call(name string, args ...isa.Reg) isa.Reg {
	d := b.F.NewInt()
	b.emit(isa.Instr{Op: isa.CALL, Dst: d, Sym: name, Args: append([]isa.Reg(nil), args...)})
	return d
}
func (b *Builder) FCall(name string, args ...isa.Reg) isa.Reg {
	d := b.F.NewFloat()
	b.emit(isa.Instr{Op: isa.CALL, Dst: d, Sym: name, Args: append([]isa.Reg(nil), args...)})
	return d
}
func (b *Builder) CallVoid(name string, args ...isa.Reg) {
	b.emit(isa.Instr{Op: isa.CALL, Sym: name, Args: append([]isa.Reg(nil), args...)})
}

// Ret returns a value; RetVoid returns nothing.
func (b *Builder) Ret(v isa.Reg) { b.emit(isa.Instr{Op: isa.RET, A: v}) }
func (b *Builder) RetVoid()      { b.emit(isa.Instr{Op: isa.RET}) }
