package machine

import "regconn/internal/isa"

// Issue stage: the in-order interlocks of the simulated pipeline. Each
// register operand is resolved through its class's mapping table
// (core.MapTable.ReadPhys for sources, WritePhys for the destination);
// execute (exec.go) resolves the same operands through the same tables.

// lastConnect returns the cycle of the last connect touching the register's
// map entry (-1 if never).
func (s *simState) lastConnect(r isa.Reg) int64 {
	if r.Class == isa.ClassFloat {
		return s.lcF[r.N]
	}
	return s.lcI[r.N]
}

// canIssue applies the in-order issue interlocks: source operands ready
// (CRAY-1 style), destination not pending (scoreboard WAW), a free memory
// channel for loads/stores, and — under 1-cycle connect latency — no
// same-cycle connect on a referenced map entry.
func (s *simState) canIssue(u *uop, cycle int64, memUsed int) (bool, stallReason) {
	if u.Mem && memUsed >= s.cfg.MemChannels {
		return false, stallMem
	}
	// Map-entry connect-latency interlock.
	if s.cfg.ConnectLatency > 0 {
		if d := u.Dst; d.Valid() && s.lastConnect(d) >= cycle {
			return false, stallConn
		}
		for _, r := range u.Uses() {
			if s.lastConnect(r) >= cycle {
				return false, stallConn
			}
		}
	}
	// Source readiness through the mapping table. A chain-forwarded slot
	// skips the interlock: the producer's value forwards within the cycle.
	for k, r := range u.Uses() {
		if u.chainIn && u.chainSkip[k] {
			continue
		}
		if r.Class == isa.ClassFloat {
			if s.rdyF[s.tabF.ReadPhys(r.N)] > cycle {
				return false, stallData
			}
		} else if p := s.tabI.ReadPhys(r.N); p != isa.RegZero && s.rdyI[p] > cycle {
			return false, stallData
		}
	}
	if d := u.Dst; d.Valid() && !u.chainDst {
		if d.Class == isa.ClassFloat {
			if s.rdyF[s.tabF.WritePhys(d.N)] > cycle {
				return false, stallData
			}
		} else if p := s.tabI.WritePhys(d.N); p != isa.RegZero && s.rdyI[p] > cycle {
			return false, stallData
		}
	}
	// Register-file read-port hazard (Config.ReadPorts): the instruction
	// issues only if its not-yet-read distinct source registers fit in
	// the remaining ports of each class. Commit is safe here — a canIssue
	// success always issues.
	if s.cfg.ReadPorts > 0 {
		var newI, newF [3]int
		needI, needF := 0, 0
	uses:
		for _, r := range u.Uses() {
			if r.Class == isa.ClassFloat {
				p := s.tabF.ReadPhys(r.N)
				if s.portStampF[p] == cycle {
					continue
				}
				for _, q := range newF[:needF] {
					if q == p {
						continue uses
					}
				}
				newF[needF] = p
				needF++
			} else {
				p := s.tabI.ReadPhys(r.N)
				if p == isa.RegZero || s.portStampI[p] == cycle {
					continue
				}
				for _, q := range newI[:needI] {
					if q == p {
						continue uses
					}
				}
				newI[needI] = p
				needI++
			}
		}
		if s.portCntI+needI > s.cfg.ReadPorts || s.portCntF+needF > s.cfg.ReadPorts {
			return false, stallPorts
		}
		for _, p := range newI[:needI] {
			s.portStampI[p] = cycle
		}
		s.portCntI += needI
		for _, p := range newF[:needF] {
			s.portStampF[p] = cycle
		}
		s.portCntF += needF
	}
	return true, stallNone
}
