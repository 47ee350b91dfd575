package machine

// Trap/interrupt and context-switch modeling (paper §4.2–4.3). Traps are
// transparent to the interrupted program (architectural state is preserved)
// but cost cycles; how many depends on whether the operating system uses
// the RC-aware mechanisms the paper proposes:
//
//   - §4.3: a trap handler can set the register-map *enable* flag in the
//     processor status word and access core registers directly — no
//     connect traffic. A naive handler must save the map entry, connect,
//     access, and restore for every register it touches.
//   - §4.2: a context switch must save core registers, and — only for
//     processes marked RC-extended in their PSW — the extended registers
//     and the connection state. The PSW flag lets original-architecture
//     processes switch at the original cost.

// TrapConfig enables periodic interrupts.
type TrapConfig struct {
	// Interval is the number of cycles between interrupts (0 = disabled).
	Interval int64

	// HandlerCycles is the handler's own work (device-driver body).
	HandlerCycles int64

	// HandlerRegs is how many scratch registers the handler needs.
	HandlerRegs int64

	// UseEnableFlag selects the §4.3 mechanism: the handler disables the
	// register map and uses core registers directly. When false, the
	// handler pays per-register map bookkeeping (save entry, connect,
	// access, restore).
	UseEnableFlag bool

	// ContextSwitch models a full process switch at each interrupt
	// instead of a lightweight handler: core registers are saved and
	// restored, plus — depending on PSWFlag and whether this program uses
	// RC — the extended file and mapping table.
	ContextSwitch bool

	// PSWFlag is the §4.2 optimization: processes compiled for the
	// original architecture are marked in the processor status word and
	// only their core registers are switched. Without it the OS must
	// conservatively save the full extended state for every process.
	PSWFlag bool

	// ProgramUsesRC marks the simulated program as RC-extended (its PSW
	// bit). Set automatically by the regconn facade.
	ProgramUsesRC bool
}

// trapOverhead computes the cycle cost of one interrupt and exercises the
// architectural mechanisms involved (enable flag, context save/restore) so
// their transparency is continuously verified, not assumed.
func (s *simState) trapOverhead() int64 {
	t := &s.cfg.Trap
	mem := int64(s.cfg.MemChannels)
	memCost := func(words int64) int64 {
		// Save/restore traffic is store+load per word, through the
		// memory channels.
		return 2 * ((words + mem - 1) / mem)
	}

	overhead := t.HandlerCycles

	if t.ContextSwitch {
		// Both register files' core sections always switch.
		words := int64(s.cfg.IntCore + s.cfg.FPCore)
		if t.ProgramUsesRC || !t.PSWFlag {
			// Extended sections plus both mapping tables (read and
			// write map words per entry).
			words += int64(s.cfg.IntTotal - s.cfg.IntCore)
			words += int64(s.cfg.FPTotal - s.cfg.FPCore)
			words += int64(2*s.cfg.IntCore + 2*s.cfg.FPCore)
			// Exercise the save/restore path itself, through the
			// state's scratch contexts (an interrupt-heavy run would
			// otherwise allocate two contexts per trap).
			s.tabI.SaveContextInto(&s.trapCtxI)
			s.tabF.SaveContextInto(&s.trapCtxF)
			s.tabI.Reset()
			s.tabF.Reset()
			s.tabI.RestoreContext(s.trapCtxI)
			s.tabF.RestoreContext(s.trapCtxF)
		}
		return overhead + memCost(words)
	}

	// Lightweight handler.
	overhead += memCost(t.HandlerRegs) // save/restore its scratch registers
	if t.UseEnableFlag {
		// §4.3: disable the map, work on core registers, re-enable on
		// return from exception. Two PSW writes.
		s.tabI.SetEnabled(false)
		s.tabF.SetEnabled(false)
		s.tabI.SetEnabled(true)
		s.tabF.SetEnabled(true)
		overhead += 2
	} else {
		// Per register: save the map entry, connect to the core
		// register, and restore the entry afterwards (§4.3's "severe
		// performance penalty" path).
		overhead += 4 * t.HandlerRegs
	}
	return overhead
}
