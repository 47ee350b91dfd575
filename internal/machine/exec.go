package machine

import (
	"fmt"
	"math"

	"regconn/internal/isa"
)

// Execute stage: functional execution plus timing update, one switch on
// the opcode. The sources arrive resolved: canIssue looked the A and B
// slots up in the read maps, and execute reads the physical registers it
// was handed. Writes commit through MapTable.NoteWrite, which applies the
// automatic-reset side effect of the configured model (§2.3).

// execute performs the micro-op on its sources' physical registers pa and
// pb and returns the next pc and whether a branch mispredicted. The zero
// register's slot of the integer file is never written (setI drops such
// writes), so a source resolving to it reads 0.
func (s *simState) execute(u *uop, pa, pb int, cycle int64) (next int, mispredict bool, err error) {
	next = s.pc + 1
	ri, rf := s.ri, s.rf
	switch u.Op {
	case isa.NOP:
	case isa.ADD:
		s.setI(u, ri[pa]+s.src2(u, pb), cycle)
	case isa.SUB:
		s.setI(u, ri[pa]-s.src2(u, pb), cycle)
	case isa.MUL:
		s.setI(u, ri[pa]*s.src2(u, pb), cycle)
	case isa.AND:
		s.setI(u, ri[pa]&s.src2(u, pb), cycle)
	case isa.OR:
		s.setI(u, ri[pa]|s.src2(u, pb), cycle)
	case isa.XOR:
		s.setI(u, ri[pa]^s.src2(u, pb), cycle)
	case isa.SLL:
		s.setI(u, ri[pa]<<uint64(s.src2(u, pb)&63), cycle)
	case isa.SRL:
		s.setI(u, int64(uint64(ri[pa])>>uint64(s.src2(u, pb)&63)), cycle)
	case isa.SRA:
		s.setI(u, ri[pa]>>uint64(s.src2(u, pb)&63), cycle)
	case isa.SLT:
		var v int64
		if ri[pa] < s.src2(u, pb) {
			v = 1
		}
		s.setI(u, v, cycle)
	case isa.DIV:
		d := s.src2(u, pb)
		if d == 0 {
			return 0, false, fmt.Errorf("machine: divide by zero at pc=%d", s.pc)
		}
		s.setI(u, ri[pa]/d, cycle)
	case isa.REM:
		d := s.src2(u, pb)
		if d == 0 {
			return 0, false, fmt.Errorf("machine: rem by zero at pc=%d", s.pc)
		}
		s.setI(u, ri[pa]%d, cycle)
	case isa.MOV:
		s.setI(u, ri[pa], cycle)
	case isa.MOVI:
		s.setI(u, u.Imm, cycle)
	case isa.LD:
		s.setI(u, s.mem.LoadI(ri[pa]+u.Imm), cycle)
	case isa.ST:
		s.mem.StoreI(ri[pa]+u.Imm, ri[pb])
	case isa.FLD:
		s.setF(u, s.mem.LoadF(ri[pa]+u.Imm), cycle)
	case isa.FST:
		s.mem.StoreF(ri[pa]+u.Imm, rf[pb])
	case isa.FADD:
		s.setF(u, rf[pa]+rf[pb], cycle)
	case isa.FSUB:
		s.setF(u, rf[pa]-rf[pb], cycle)
	case isa.FMUL:
		s.setF(u, rf[pa]*rf[pb], cycle)
	case isa.FDIV:
		s.setF(u, rf[pa]/rf[pb], cycle)
	case isa.FMOV:
		s.setF(u, rf[pa], cycle)
	case isa.FMOVI:
		s.setF(u, math.Float64frombits(uint64(u.Imm)), cycle)
	case isa.FNEG:
		s.setF(u, -rf[pa], cycle)
	case isa.FABS:
		s.setF(u, math.Abs(rf[pa]), cycle)
	case isa.CVTIF:
		s.setF(u, float64(ri[pa]), cycle)
	case isa.CVTFI:
		s.setI(u, int64(rf[pa]), cycle)
	case isa.BR:
		next = int(u.Target)
	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
		return s.branch(u, intTaken(u.Op, ri[pa], s.src2(u, pb)))
	case isa.FBEQ, isa.FBNE, isa.FBLT, isa.FBLE:
		return s.branch(u, fpTaken(u.Op, rf[pa], rf[pb]))
	case isa.CALL:
		sp := ri[isa.RegSP] - 8
		s.mem.StoreI(sp, int64(next))
		ri[isa.RegSP] = sp
		s.resetMaps(cycle)
		next = int(u.Target)
	case isa.RET:
		sp := ri[isa.RegSP]
		next = int(s.mem.LoadI(sp))
		ri[isa.RegSP] = sp + 8
		s.resetMaps(cycle)
	case isa.CONUSE, isa.CONDEF, isa.CONUU, isa.CONDU, isa.CONDD:
		s.connect(u, cycle)
	default:
		return 0, false, fmt.Errorf("machine: cannot execute %v at pc=%d", u.Op, s.pc)
	}
	return next, false, nil
}

// src2 is the second integer source: the immediate or the B register.
func (s *simState) src2(u *uop, pb int) int64 {
	if u.UseImm {
		return u.Imm
	}
	return s.ri[pb]
}

// setI commits an integer write through the destination map entry,
// applying the model's automatic reset; writes landing on the zero
// register are dropped.
func (s *simState) setI(u *uop, v int64, cycle int64) {
	p := s.tabI.NoteWrite(int(u.Dst.n))
	if p == isa.RegZero {
		return
	}
	s.ri[p] = v
	s.rdyI[p] = cycle + u.lat
}

// setF commits a floating-point write through the destination map entry.
func (s *simState) setF(u *uop, v float64, cycle int64) {
	p := s.tabF.NoteWrite(int(u.Dst.n))
	s.rf[p] = v
	s.rdyF[p] = cycle + u.lat
}

// branch returns a conditional branch's next pc and whether its static
// prediction missed.
func (s *simState) branch(u *uop, taken bool) (int, bool, error) {
	if taken {
		return int(u.Target), !u.Pred, nil
	}
	return s.pc + 1, u.Pred, nil
}

// resetMaps returns both mapping tables to their home locations, as CALL
// and RET do (§4.1).
func (s *simState) resetMaps(cycle int64) {
	s.tabI.Reset()
	s.tabF.Reset()
	if s.probe != nil {
		s.probe.Event(Event{Kind: EvReset, Cycle: cycle, PC: int32(s.pc), Proc: s.proc})
	}
}

// connect rewrites the map entries a connect instruction names and stamps
// them for the connect-latency interlock.
func (s *simState) connect(u *uop, cycle int64) {
	tab, lc := s.tabI, s.lcI
	if u.CClass == isa.ClassFloat {
		tab, lc = s.tabF, s.lcF
	}
	for _, p := range u.pairs() {
		if p.Def {
			tab.ConnectDef(int(p.Idx), int(p.Phys))
		} else {
			tab.ConnectUse(int(p.Idx), int(p.Phys))
		}
		lc[p.Idx] = cycle
	}
	if s.probe != nil {
		s.probe.Event(Event{Kind: EvConnect, Cycle: cycle, PC: int32(s.pc), Proc: s.proc})
	}
}

func intTaken(op isa.Op, a, b int64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return a < b
	case isa.BLE:
		return a <= b
	case isa.BGT:
		return a > b
	case isa.BGE:
		return a >= b
	}
	return false
}

func fpTaken(op isa.Op, a, b float64) bool {
	switch op {
	case isa.FBEQ:
		return a == b
	case isa.FBNE:
		return a != b
	case isa.FBLT:
		return a < b
	case isa.FBLE:
		return a <= b
	}
	return false
}
