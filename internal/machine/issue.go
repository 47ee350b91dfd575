package machine

import "regconn/internal/isa"

// Issue stage: the in-order interlocks of the simulated pipeline. Each
// source slot is resolved once, through its class's mapping table
// (core.MapTable.ReadPhys), and the physical registers go on to execute
// (exec.go); the destination's write map is consulted for the WAW
// interlock (WritePhys) and committed by execute (NoteWrite).

// lastConnect returns the cycle of the last connect touching the register's
// map entry (-1 if never).
func (s *simState) lastConnect(r slot) int64 {
	if r.class == isa.ClassFloat {
		return s.lcF[r.n]
	}
	return s.lcI[r.n]
}

// connectPending reports whether a valid register's map entry was
// connected in this cycle or later.
func (s *simState) connectPending(r slot, cycle int64) bool {
	return r.valid() && s.lastConnect(r) >= cycle
}

// resolve returns the physical register behind a source slot, through its
// class's read map, and the cycle its value is ready. An unused slot
// resolves to register 0, ready at cycle 0; the zero register itself is
// never written (setI), so its ready stamp never exceeds the cycle.
func (s *simState) resolve(r slot) (p int, ready int64) {
	switch r.class {
	case isa.ClassInt:
		p = s.tabI.ReadPhys(int(r.n))
		return p, s.rdyI[p]
	case isa.ClassFloat:
		p = s.tabF.ReadPhys(int(r.n))
		return p, s.rdyF[p]
	}
	return 0, 0
}

// canIssue applies the in-order issue interlocks: source operands ready
// (CRAY-1 style), destination not pending (scoreboard WAW), a free memory
// channel for loads/stores, under 1-cycle connect latency no same-cycle
// connect on a referenced map entry, and the read-port limit. It returns
// stallNone and the physical registers behind the A and B slots when the
// micro-op issues, else the first interlock that holds it.
func (s *simState) canIssue(u *uop, cycle int64, memUsed int) (pa, pb int, reason stallReason) {
	if u.Mem && memUsed >= s.cfg.MemChannels {
		return 0, 0, stallMem
	}
	// Map-entry connect-latency interlock.
	if s.cfg.ConnectLatency > 0 &&
		(s.connectPending(u.Dst, cycle) || s.connectPending(u.A, cycle) || s.connectPending(u.B, cycle)) {
		return 0, 0, stallConn
	}
	// Source readiness through the mapping table. A chain-forwarded slot
	// skips the interlock: the producer's value forwards within the cycle.
	pa, readyA := s.resolve(u.A)
	pb, readyB := s.resolve(u.B)
	if readyA > cycle && !u.chainA || readyB > cycle && !u.chainB {
		return 0, 0, stallData
	}
	if d := u.Dst; d.valid() && !u.chainDst {
		if d.class == isa.ClassFloat {
			if s.rdyF[s.tabF.WritePhys(int(d.n))] > cycle {
				return 0, 0, stallData
			}
		} else if p := s.tabI.WritePhys(int(d.n)); p != isa.RegZero && s.rdyI[p] > cycle {
			return 0, 0, stallData
		}
	}
	if s.cfg.ReadPorts > 0 && !s.takePorts(u, pa, pb, cycle) {
		return 0, 0, stallPorts
	}
	return pa, pb, stallNone
}

// takePorts is the register-file read-port hazard (Config.ReadPorts): the
// micro-op issues only if its not-yet-read distinct source registers fit
// in the remaining ports of each class (register 0 needs no port). It
// reports whether they fit and, if so, commits them — safe because a
// canIssue success always issues.
func (s *simState) takePorts(u *uop, pa, pb int, cycle int64) bool {
	newA := s.unread(u.A.class, pa, cycle)
	newB := s.unread(u.B.class, pb, cycle) && !(newA && u.A.class == u.B.class && pa == pb)
	var need [isa.ClassEither]int // by class
	if newA {
		need[u.A.class]++
	}
	if newB {
		need[u.B.class]++
	}
	if s.portCntI+need[isa.ClassInt] > s.cfg.ReadPorts || s.portCntF+need[isa.ClassFloat] > s.cfg.ReadPorts {
		return false
	}
	s.portCntI += need[isa.ClassInt]
	s.portCntF += need[isa.ClassFloat]
	if newA {
		s.stampPort(u.A.class, pa, cycle)
	}
	if newB {
		s.stampPort(u.B.class, pb, cycle)
	}
	return true
}

// unread reports whether physical register p of class c is a read that
// needs a port this cycle: a real register not yet read in it.
func (s *simState) unread(c isa.RegClass, p int, cycle int64) bool {
	switch c {
	case isa.ClassInt:
		return p != isa.RegZero && s.portStampI[p] != cycle
	case isa.ClassFloat:
		return s.portStampF[p] != cycle
	}
	return false
}

// stampPort marks physical register p of class c read in this cycle.
func (s *simState) stampPort(c isa.RegClass, p int, cycle int64) {
	if c == isa.ClassFloat {
		s.portStampF[p] = cycle
	} else {
		s.portStampI[p] = cycle
	}
}
