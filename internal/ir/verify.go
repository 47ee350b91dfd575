package ir

import (
	"fmt"

	"regconn/internal/isa"
)

// Verify checks structural invariants of the program's IR form: register
// classes match opcodes, branch targets exist, virtual register numbers are
// in range, call targets resolve, terminators are sane. It returns the
// first violation found.
func Verify(p *Program) error {
	for _, f := range p.Funcs {
		if err := verifyFunc(p, f); err != nil {
			return fmt.Errorf("func %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(p *Program, f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	for i, b := range f.Blocks {
		if b.Index != i {
			return fmt.Errorf("block %d has stale index %d", i, b.Index)
		}
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if err := verifyInstr(p, f, in); err != nil {
				return fmt.Errorf(".T%d[%d] %v: %w", i, j, in, err)
			}
			if in.Op.IsTerminator() && j != len(b.Instrs)-1 {
				return fmt.Errorf(".T%d[%d]: terminator %v not at block end", i, j, in.Op)
			}
		}
	}
	// The last block must not fall off the end of the function.
	last := f.Blocks[len(f.Blocks)-1]
	if t := last.Term(); t == nil || t.Op.IsCondBranch() {
		return fmt.Errorf("last block .T%d falls through past function end", last.Index)
	}
	return nil
}

// verifyInstr checks one instruction: operand classes against the opcode's
// schema (isa.Instr.CheckOperands), virtual register numbers of every use
// and def, and the IR-only rules — no connects, LGA names a global, CALL
// names a function and passes arguments of its parameters' classes,
// branches target blocks.
func verifyInstr(p *Program, f *Func, in *isa.Instr) error {
	if in.Op.IsConnect() {
		return fmt.Errorf("connect instructions are not valid in IR form (inserted by codegen)")
	}
	if err := in.CheckOperands(); err != nil {
		return err
	}
	var regs [4]isa.Reg
	for _, r := range append(in.Uses(regs[:0]), in.Def()) {
		max := f.NextInt
		if r.Class == isa.ClassFloat {
			max = f.NextFloat
		}
		if r.Valid() && (r.N < 0 || r.N >= max) {
			return fmt.Errorf("register %v out of range [0,%d)", r, max)
		}
	}
	switch in.Op {
	case isa.LGA:
		if findGlobal(p, in.Sym) == nil {
			return fmt.Errorf("unknown global %q", in.Sym)
		}
	case isa.CALL:
		callee := p.Func(in.Sym)
		if callee == nil {
			return fmt.Errorf("unknown callee %q", in.Sym)
		}
		if len(in.Args) != len(callee.Params) {
			return fmt.Errorf("callee %q takes %d args, got %d", in.Sym, len(callee.Params), len(in.Args))
		}
		for i, a := range in.Args {
			if a.Class != callee.Params[i].Class {
				return fmt.Errorf("arg%d has class %v, want %v", i, a.Class, callee.Params[i].Class)
			}
		}
	}
	if in.Op.IsBranch() && (in.Target < 0 || in.Target >= len(f.Blocks)) {
		return fmt.Errorf("branch target %d out of range", in.Target)
	}
	return nil
}

func findGlobal(p *Program, name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
