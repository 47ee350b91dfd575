package codegen

import (
	"fmt"

	"regconn/internal/abi"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/regalloc"
)

// resolveSrc makes the value of virtual register r readable and returns
// the map index to encode in the instruction plus the physical register
// the data actually comes from.
func (lw *lowerer) resolveSrc(r isa.Reg) (idx int, phys int32, err error) {
	loc, ok := lw.a.Loc[r]
	if !ok {
		return 0, NoPhys, fmt.Errorf("use of unallocated register %v", r)
	}
	e := lw.e
	switch loc.Kind {
	case regalloc.LocReg:
		return e.useIdx(r.Class, loc.N, int32(r.N)), int32(loc.N), nil
	case regalloc.LocSpill:
		t := e.takeTemp(r.Class)
		off := lw.spillOff(loc.N) + e.spDelta
		op := isa.LD
		if r.Class == isa.ClassFloat {
			op = isa.FLD
		}
		ann := stackAnn(lw.spillOff(loc.N))
		ann.PDst = int32(t)
		e.emit(isa.Instr{Op: op, Dst: isa.Reg{Class: r.Class, N: t}, A: isa.IntReg(spReg), Imm: off}, ann)
		e.noteWrite(r.Class, t)
		lw.mf.SpillCount++
		return t, int32(t), nil
	}
	return 0, NoPhys, fmt.Errorf("register %v has no location", r)
}

// resolveDst prepares the destination of virtual register r: the returned
// index goes into the instruction; after() must run once the instruction
// is emitted (auto-reset side effect plus spill store if needed).
func (lw *lowerer) resolveDst(r isa.Reg) (idx int, phys int32, after func(), err error) {
	loc, ok := lw.a.Loc[r]
	if !ok {
		return 0, NoPhys, nil, fmt.Errorf("def of unallocated register %v", r)
	}
	e := lw.e
	switch loc.Kind {
	case regalloc.LocReg:
		idx = e.defIdx(r.Class, loc.N, int32(r.N))
		return idx, int32(loc.N), func() { e.noteWrite(r.Class, idx) }, nil
	case regalloc.LocSpill:
		t := e.takeTemp(r.Class)
		return t, int32(t), func() {
			e.noteWrite(r.Class, t)
			off := lw.spillOff(loc.N) + e.spDelta
			op := isa.ST
			if r.Class == isa.ClassFloat {
				op = isa.FST
			}
			ann := stackAnn(lw.spillOff(loc.N))
			ann.PB = int32(t)
			e.emit(isa.Instr{Op: op, A: isa.IntReg(spReg), B: isa.Reg{Class: r.Class, N: t}, Imm: off}, ann)
			lw.mf.SpillCount++
		}, nil
	}
	return 0, NoPhys, nil, fmt.Errorf("register %v has no location", r)
}

// memAnn computes the alias annotation for an access base+off (IR-level
// registers).
func (lw *lowerer) memAnn(base isa.Reg, off int64) Annot {
	kind, root, totalOff, known, rootVReg := lw.ch.addrProv(base, off, lw.gidx)
	ann := Annot{PDst: NoPhys, PA: NoPhys, PB: NoPhys,
		MemRootKind: kind, MemRoot: root, MemRootPhys: NoPhys, MemOff: totalOff, MemOffKnown: known}
	if kind == RootOpaque {
		if loc, ok := lw.a.Loc[rootVReg]; ok && loc.Kind == regalloc.LocReg {
			ann.MemRootPhys = int32(loc.N)
		} else {
			// Cannot verify the root value's stability: degrade.
			ann.MemRootKind = RootUnknown
			ann.MemOffKnown = false
		}
	}
	return ann
}

// lowerInstr lowers one IR instruction.
func (lw *lowerer) lowerInstr(b *ir.Block, in *isa.Instr) error {
	e := lw.e
	switch in.Op {
	case isa.NOP:
		return nil
	case isa.CALL:
		return lw.lowerCall(in)
	case isa.RET:
		return lw.lowerRet(in)
	case isa.BR:
		e.beginInstr()
		lw.fixups = append(lw.fixups, fixup{len(lw.mf.Code), in.Target})
		e.emit(isa.Instr{Op: isa.BR, Target: in.Target}, Annot{PDst: NoPhys, PA: NoPhys, PB: NoPhys})
		return nil
	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE, isa.FBEQ, isa.FBNE, isa.FBLT, isa.FBLE:
		e.beginInstr()
		aIdx, aPhys, err := lw.resolveSrc(in.A)
		if err != nil {
			return err
		}
		out := isa.Instr{Op: in.Op, A: isa.Reg{Class: in.A.Class, N: aIdx}, Imm: in.Imm, UseImm: in.UseImm, Target: in.Target}
		ann := Annot{PDst: NoPhys, PA: aPhys, PB: NoPhys}
		if !in.UseImm && in.B.Valid() {
			bIdx, bPhys, err := lw.resolveSrc(in.B)
			if err != nil {
				return err
			}
			out.B = isa.Reg{Class: in.B.Class, N: bIdx}
			ann.PB = bPhys
		}
		// Static prediction from the profile.
		if b.Weight > 0 {
			out.Pred = b.TakenWeight*2 >= b.Weight
		}
		e.flushConnects()
		lw.fixups = append(lw.fixups, fixup{len(lw.mf.Code), in.Target})
		e.emit(out, ann)
		return nil
	case isa.HALT:
		e.beginInstr()
		e.emit(isa.Instr{Op: isa.HALT}, Annot{PDst: NoPhys, PA: NoPhys, PB: NoPhys})
		return nil
	}

	// Generic data operation.
	e.beginInstr()
	out := *in
	ann := Annot{PDst: NoPhys, PA: NoPhys, PB: NoPhys}
	if in.Op.IsMem() {
		m := lw.memAnn(in.A, in.Imm)
		ann.MemRootKind, ann.MemRoot, ann.MemRootPhys = m.MemRootKind, m.MemRoot, m.MemRootPhys
		ann.MemOff, ann.MemOffKnown = m.MemOff, m.MemOffKnown
	}

	// Sources.
	if in.ReadsA() {
		idx, phys, err := lw.resolveSrc(in.A)
		if err != nil {
			return err
		}
		out.A = isa.Reg{Class: in.A.Class, N: idx}
		ann.PA = phys
	}
	if in.ReadsB() {
		idx, phys, err := lw.resolveSrc(in.B)
		if err != nil {
			return err
		}
		out.B = isa.Reg{Class: in.B.Class, N: idx}
		ann.PB = phys
	}
	// Destination.
	var after func()
	if d := in.Def(); d.Valid() {
		idx, phys, fn, err := lw.resolveDst(d)
		if err != nil {
			return err
		}
		out.Dst = isa.Reg{Class: d.Class, N: idx}
		ann.PDst = phys
		after = fn
	}
	// LGA keeps its symbol; the loader resolves it to an absolute MOVI.
	e.flushConnects()
	e.emit(out, ann)
	if after != nil {
		after()
	}
	return nil
}

// lowerCall expands an IR call: save extended registers live across the
// call, push arguments, CALL, pop arguments, fetch the result, restore
// extended registers (paper §4.1; the connect traffic and save/restore
// instructions are the Figure 9 black-bar cost).
func (lw *lowerer) lowerCall(in *isa.Instr) error {
	e := lw.e
	conv := lw.cfg.Conv

	// 1. Caller save of extended registers live across this call.
	saved := lw.extLiveAcross[in]
	for _, r := range saved {
		loc := lw.a.Loc[r]
		off := lw.extSlot[r]
		before := len(lw.mf.Code)
		lw.storeWord(r.Class, loc.N, spReg, off, stackAnn(off), int32(r.N))
		lw.mf.SaveRestoreCount += len(lw.mf.Code) - before
	}

	// 2. Push arguments.
	n := int64(len(in.Args))
	if n > 0 {
		e.beginInstr()
		e.emit(isa.Instr{Op: isa.SUB, Dst: isa.IntReg(spReg), A: isa.IntReg(spReg), Imm: n * abi.WordSize, UseImm: true},
			Annot{PDst: spReg, PA: spReg, PB: NoPhys})
		e.spDelta += n * abi.WordSize
		for i, arg := range in.Args {
			e.beginInstr()
			idx, phys, err := lw.resolveSrc(arg)
			if err != nil {
				return err
			}
			e.flushConnects()
			op := isa.ST
			if arg.Class == isa.ClassFloat {
				op = isa.FST
			}
			// Outgoing argument area: below the frame base.
			ann := stackAnn(int64(i)*abi.WordSize - e.spDelta)
			ann.PB = phys
			e.emit(isa.Instr{Op: op, A: isa.IntReg(spReg), B: isa.Reg{Class: arg.Class, N: idx}, Imm: int64(i) * abi.WordSize}, ann)
		}
	}

	// 3. The call itself. Hardware resets the mapping table (§4.1).
	e.beginInstr()
	e.emit(isa.Instr{Op: isa.CALL, Sym: in.Sym}, Annot{PDst: NoPhys, PA: NoPhys, PB: NoPhys})
	e.resetTables()

	// 4. Pop arguments.
	if n > 0 {
		e.beginInstr()
		e.emit(isa.Instr{Op: isa.ADD, Dst: isa.IntReg(spReg), A: isa.IntReg(spReg), Imm: n * abi.WordSize, UseImm: true},
			Annot{PDst: spReg, PA: spReg, PB: NoPhys})
		e.spDelta -= n * abi.WordSize
	}

	// 5. Result.
	if d := in.Def(); d.Valid() {
		if _, ok := lw.a.Loc[d]; ok {
			rv := conv.Of(d.Class).RetReg()
			e.beginInstr()
			idx, phys, after, err := lw.resolveDst(d)
			if err != nil {
				return err
			}
			if !(phys == int32(rv)) { // result already in place otherwise
				op := isa.MOV
				if d.Class == isa.ClassFloat {
					op = isa.FMOV
				}
				e.flushConnects()
				e.emit(isa.Instr{Op: op, Dst: isa.Reg{Class: d.Class, N: idx}, A: isa.Reg{Class: d.Class, N: rv}},
					Annot{PDst: phys, PA: int32(rv), PB: NoPhys})
				after()
			} else {
				// Drop any queued connect for a no-op move.
				e.pending = e.pending[:0]
			}
		}
	}

	// 6. Restore extended registers.
	for _, r := range saved {
		loc := lw.a.Loc[r]
		off := lw.extSlot[r]
		before := len(lw.mf.Code)
		lw.loadWord(r.Class, loc.N, spReg, off, stackAnn(off), int32(r.N))
		lw.mf.SaveRestoreCount += len(lw.mf.Code) - before
	}
	return nil
}

// lowerRet moves the return value into r2/f2, restores callee-save
// registers, releases the frame and returns.
func (lw *lowerer) lowerRet(in *isa.Instr) error {
	e := lw.e
	if in.A.Valid() {
		rv := lw.cfg.Conv.Of(in.A.Class).RetReg()
		e.beginInstr()
		idx, phys, err := lw.resolveSrc(in.A)
		if err != nil {
			return err
		}
		if phys != int32(rv) {
			op := isa.MOV
			if in.A.Class == isa.ClassFloat {
				op = isa.FMOV
			}
			e.flushConnects()
			e.emit(isa.Instr{Op: op, Dst: isa.Reg{Class: in.A.Class, N: rv}, A: isa.Reg{Class: in.A.Class, N: idx}},
				Annot{PDst: int32(rv), PA: phys, PB: NoPhys})
			e.noteWrite(in.A.Class, rv)
		} else {
			e.pending = e.pending[:0]
		}
	}
	for _, c := range lw.a.UsedCalleeSaveInt {
		e.beginInstr()
		ann := stackAnn(lw.calleeSlotInt[c])
		ann.PDst = int32(c)
		e.emit(isa.Instr{Op: isa.LD, Dst: isa.IntReg(c), A: isa.IntReg(spReg), Imm: lw.calleeSlotInt[c]}, ann)
		e.noteWrite(isa.ClassInt, c)
	}
	for _, c := range lw.a.UsedCalleeSaveFP {
		e.beginInstr()
		ann := stackAnn(lw.calleeSlotFP[c])
		ann.PDst = int32(c)
		e.emit(isa.Instr{Op: isa.FLD, Dst: isa.FloatReg(c), A: isa.IntReg(spReg), Imm: lw.calleeSlotFP[c]}, ann)
		e.noteWrite(isa.ClassFloat, c)
	}
	if lw.frameSize > 0 {
		e.beginInstr()
		e.emit(isa.Instr{Op: isa.ADD, Dst: isa.IntReg(spReg), A: isa.IntReg(spReg), Imm: lw.frameSize, UseImm: true},
			Annot{PDst: spReg, PA: spReg, PB: NoPhys})
	}
	e.beginInstr()
	e.emit(isa.Instr{Op: isa.RET}, Annot{PDst: NoPhys, PA: NoPhys, PB: NoPhys})
	e.resetTables()
	return nil
}
