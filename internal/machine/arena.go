package machine

// Run arenas: a Machine owns every per-run allocation of the simulator —
// register files, ready stamps, mapping tables, the predecoded micro-op
// stream, the memory image, and the Result itself — and Reset
// reinitializes them in place instead of reallocating. A sweep that runs
// many points through one Machine pays the allocation cost once, and a
// steady-state Reset+Run performs zero heap allocations (pinned by
// TestMachineSteadyStateZeroAllocs); see DESIGN.md §13 for the
// arena/batch contract.
//
// Aliasing: results returned by a Machine's run methods point into the
// arena — the Result struct, its IssueHist and map-telemetry slices, and
// the memory image are all reused by the next Reset. Callers that outlive
// the next Reset must copy what they keep (Result.Stats deep-copies
// everything it exports). The package-level Run/RunContext entry points
// construct a private Machine per call, so their results never alias
// anything and the one-shot API is unchanged.

import (
	"context"
	"errors"
	"fmt"

	"regconn/internal/core"
	"regconn/internal/isa"
	"regconn/internal/mem"
)

// Machine is a reusable simulation arena. The zero value is ready to use;
// it is not safe for concurrent use (pool Machines for parallel sweeps).
type Machine struct {
	// The (possibly process-shared) physical machine: register files,
	// per-register ready cycles, and the two mapping tables.
	ri   []int64
	rf   []float64
	rdyI []int64
	rdyF []int64
	tabI *core.MapTable
	tabF *core.MapTable

	// Per-process pipeline state; single-process runs use procs[0].
	procs []*simState

	// Multiprogramming scratch (RunMultiprogrammedContext).
	pcbs   []*pcb
	halted []bool

	// armed is set by Reset and consumed by RunContext: each Reset admits
	// exactly one run, so a stale arena cannot be run twice by accident.
	armed bool
}

// NewMachine returns an empty arena; the first Reset sizes it.
func NewMachine() *Machine { return &Machine{} }

// grown returns s resized to length n, reusing the backing array when
// capacity allows. Contents are stale; callers must reinitialize.
func grown[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// zeroed returns s resized to length n with every element zero.
func zeroed[E any](s []E, n int) []E {
	s = grown(s, n)
	clear(s)
	return s
}

// filled returns s resized to length n with every element v.
func filled(s []int64, n int, v int64) []int64 {
	s = grown(s, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// ensureShared sizes and reinitializes the shared physical machine for a
// fresh run: zeroed register files and ready stamps, mapping tables at
// their home locations with telemetry cleared.
func (m *Machine) ensureShared(cfg Config) {
	m.ri = zeroed(m.ri, cfg.IntTotal)
	m.rf = zeroed(m.rf, cfg.FPTotal)
	m.rdyI = zeroed(m.rdyI, cfg.IntTotal)
	m.rdyF = zeroed(m.rdyF, cfg.FPTotal)
	if m.tabI == nil {
		m.tabI = core.NewMapTable(cfg.Model, cfg.IntCore, cfg.IntTotal)
		m.tabF = core.NewMapTable(cfg.Model, cfg.FPCore, cfg.FPTotal)
	} else {
		m.tabI.Reinit(cfg.Model, cfg.IntCore, cfg.IntTotal)
		m.tabF.Reinit(cfg.Model, cfg.FPCore, cfg.FPTotal)
	}
}

// proc returns the i'th per-process state, growing the arena as needed.
func (m *Machine) proc(i int) *simState {
	for len(m.procs) <= i {
		m.procs = append(m.procs, &simState{})
	}
	return m.procs[i]
}

// recoverInitFault converts a memory-fault panic raised during image
// initialization into a structured error return (the cycle loop recovers
// its own faults with full pc context); any other panic is re-raised.
func recoverInitFault(err *error) {
	if r := recover(); r != nil {
		f, ok := r.(*mem.Fault)
		if !ok {
			panic(r)
		}
		*err = &RuntimeError{Func: "(init)", PC: -1, Err: f}
	}
}

// Reset reinitializes the arena in place for one run of img under cfg:
// the register files, ready stamps, mapping tables, memory image, and
// result are restored to power-on state and the micro-op stream is
// predecoded, all reusing the arena's allocations. The subsequent
// RunContext is bit-identical to a run on a fresh Machine.
// Reset first admits the code as Check does; a rejected image leaves the
// arena unarmed.
func (m *Machine) Reset(img *Image, cfg Config) (err error) {
	m.armed = false
	if err := cfg.normalize(); err != nil {
		return err
	}
	if err := cfg.checkCode(img.Code); err != nil {
		return err
	}
	defer recoverInitFault(&err)
	m.ensureShared(cfg)
	s := m.proc(0)
	s.reset(img, cfg, m.ri, m.rf, m.rdyI, m.rdyF, m.tabI, m.tabF, 0)
	s.ri[isa.RegSP] = s.mem.StackTop()
	s.nextTrap = cfg.Trap.Interval
	m.armed = true
	return nil
}

// errNotReset reports a run attempted on an unprepared arena.
var errNotReset = errors.New("machine: Machine run without a successful Reset")

// Run is RunContext under a background context.
func (m *Machine) Run() (*Result, error) {
	return m.RunContext(context.Background())
}

// RunContext executes the image prepared by the last Reset to completion
// (HALT), cancellation, or the cycle limit. Each Reset admits exactly one
// run. A run that halts is returned only once its cycle ledger closes
// (Result.CheckLedger) and, under a PCProf probe, its per-PC attribution
// sums to the ledger (PCProf.CheckAgainst): every single-process entry
// point ends here, so no caller can skip the check. The returned Result
// and its memory image alias the arena and are valid until the next
// Reset; copy (e.g. via Result.Stats) anything that must outlive it.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	if !m.armed {
		return nil, errNotReset
	}
	m.armed = false
	s := m.procs[0]
	s.bindContext(ctx)
	halted, err := s.runUntil(s.cfg.MaxCycles)
	if err != nil {
		return nil, err
	}
	if !halted {
		return nil, fmt.Errorf("%w at pc=%d", ErrCycleLimit, s.pc)
	}
	s.res.RetInt = s.ri[2]
	s.tabI.StatsInto(&s.statI)
	s.tabF.StatsInto(&s.statF)
	s.res.MapInt = s.statI
	s.res.MapFP = s.statF
	if err := s.res.CheckLedger(); err != nil {
		return nil, err
	}
	if s.res.Prof != nil {
		if err := s.res.Prof.CheckAgainst(s.res); err != nil {
			return nil, err
		}
	}
	return s.res, nil
}

// RunMultiprogrammedContext time-slices the images on this arena's shared
// physical machine (see the package-level RunMultiprogrammed for the
// model). It resets the arena itself — no prior Reset is needed — and the
// returned results alias the arena like RunContext's.
func (m *Machine) RunMultiprogrammedContext(ctx context.Context, imgs []*Image, cfg Config, quantum int64, mode SaveMode) (_ *MultiResult, err error) {
	if len(imgs) == 0 || quantum <= 0 {
		return nil, fmt.Errorf("machine: need processes and a positive quantum")
	}
	m.armed = false
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	for i, img := range imgs {
		if err := cfg.checkCode(img.Code); err != nil {
			return nil, fmt.Errorf("process %d: %w", i, err)
		}
	}
	// prepare finds a PCProf wherever it sits, alone or in Probes.
	if prepare(cfg.Probe, 0, cfg.IssueRate) != nil {
		return nil, errors.New("machine: a PCProf profiles single-process runs only")
	}
	defer recoverInitFault(&err)

	m.ensureShared(cfg)
	m.halted = zeroed(m.halted, len(imgs))
	for len(m.pcbs) < len(imgs) {
		m.pcbs = append(m.pcbs, &pcb{})
	}
	for i, img := range imgs {
		s := m.proc(i)
		s.reset(img, cfg, m.ri, m.rf, m.rdyI, m.rdyF, m.tabI, m.tabF, uint8(i))
		s.bindContext(ctx)
		// Fresh PCB: zeroed registers, home mapping, entry SP.
		p := m.pcbs[i]
		p.ri = zeroed(p.ri, cfg.IntTotal)
		p.rf = zeroed(p.rf, cfg.FPTotal)
		p.ri[isa.RegSP] = s.mem.StackTop()
		p.ctxI = core.HomeContext(cfg.IntCore)
		p.ctxF = core.HomeContext(cfg.FPCore)
	}
	return m.runMultiprogrammed(imgs, cfg, quantum, mode)
}
