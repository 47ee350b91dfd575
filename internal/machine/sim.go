package machine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"regconn/internal/core"
	"regconn/internal/isa"
	"regconn/internal/mem"
)

// Config describes one simulated machine (the experimental variables of
// §5.2: issue rate, memory channels, load latency, core register counts,
// RC support and its implementation scenario).
type Config struct {
	IssueRate   int
	MemChannels int
	Lat         isa.Latencies

	IntCore, IntTotal int // m and n for the integer file
	FPCore, FPTotal   int
	Model             core.Model

	// ConnectLatency 0 models the forwarding implementation of §2.4
	// (connects affect same-cycle instructions); 1 models the simpler
	// implementation where dependent instructions wait a cycle.
	ConnectLatency int

	// ExtraDecodeStage adds the pipeline stage of Figure 12's
	// "additional pipeline stage" scenarios: the branch misprediction
	// penalty grows by one cycle.
	ExtraDecodeStage bool

	// ReadPorts caps the distinct physical registers read per cycle and
	// class (0 = unlimited): the portreduce backend's issue-stage
	// structural hazard. Several instructions reading the same register
	// in one cycle share a port (operand-sharing credit). Values below
	// two are clamped so a two-source instruction can always issue.
	ReadPorts int

	// Chain honors the chain backend's forwarding annotations: a marked
	// consumer's read of the forwarded operand skips the readiness
	// interlock (the value forwards producer→consumer within the cycle),
	// modeling the elided register-file write/read pair.
	Chain bool

	// Trap enables periodic interrupts / context switches (§4.2–4.3).
	Trap TrapConfig

	// Probe, when non-nil, observes the run: every trap, issue,
	// mispredict, stall, connect, map reset, context switch and halt is
	// reported to it as an Event (*PCProf, *EventRing and *TextTrace are
	// the probes, and Probes composes them). Observing never changes
	// timing or results, and traces do not record the probe.
	Probe Probe `json:"-"`

	// MemSize is the memory image size in bytes (0 = mem.DefaultSize).
	// A negative size or one above mem.MaxSize is a config error.
	MemSize   int64
	MaxCycles int64
}

// basePenalty is the front-end refill cost of a mispredicted branch for the
// four-stage pipeline of Figure 4 (fetch + decode refill).
const basePenalty = 2

// DefaultConfig returns the paper's center configuration: 4-issue, two
// memory channels, 2-cycle loads, model-3 RC with zero-cycle connects.
func DefaultConfig() Config {
	return Config{
		IssueRate:   4,
		MemChannels: 2,
		Lat:         isa.DefaultLatencies(2),
		IntCore:     64, IntTotal: 64,
		FPCore: 64, FPTotal: 64,
		Model: core.WriteResetReadUpdate,
	}
}

// Upper bounds of a Config, far above any configuration the paper or the
// tools use (issue 8, a 30-cycle handler with 8 registers). A run sizes
// its issue-slot histogram by the issue rate, and each trap adds its
// handler's cycles to the clock, so a negative handler would run the
// cycle loop backwards, past its deadline.
const (
	MaxIssueRate   = 64
	MaxTrapHandler = 1 << 32 // Trap.HandlerCycles and Trap.HandlerRegs
)

// CheckBounds reports whether an issue rate and a trap handler are inside
// those bounds; Config.normalize and regconn's Arch.Validate both call it.
func CheckBounds(issue int, t TrapConfig) error {
	if issue < 1 || issue > MaxIssueRate {
		return fmt.Errorf("issue rate %d outside [1, %d]", issue, MaxIssueRate)
	}
	if t.HandlerCycles < 0 || t.HandlerCycles > MaxTrapHandler || t.HandlerRegs < 0 || t.HandlerRegs > MaxTrapHandler {
		return fmt.Errorf("trap handler cycles %d, registers %d outside [0, %d]",
			t.HandlerCycles, t.HandlerRegs, int64(MaxTrapHandler))
	}
	return nil
}

// normalize validates the issue geometry, the trap handler, the register
// files and the memory size, and fills the defaults shared by Run and
// RunMultiprogrammed, so the two entry points cannot drift.
func (cfg *Config) normalize() error {
	if err := CheckBounds(cfg.IssueRate, cfg.Trap); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if cfg.MemChannels <= 0 {
		return fmt.Errorf("machine: invalid config issue=%d channels=%d", cfg.IssueRate, cfg.MemChannels)
	}
	if cfg.IntCore < 1 || cfg.IntTotal < cfg.IntCore || cfg.IntTotal > core.MaxRegs ||
		cfg.FPCore < 1 || cfg.FPTotal < cfg.FPCore || cfg.FPTotal > core.MaxRegs {
		return fmt.Errorf("machine: register files int %d/%d, fp %d/%d (core/total) outside 1 <= core <= total <= %d",
			cfg.IntCore, cfg.IntTotal, cfg.FPCore, cfg.FPTotal, core.MaxRegs)
	}
	if cfg.MemSize < 0 || cfg.MemSize > mem.MaxSize {
		return fmt.Errorf("machine: memory size %d outside [0, %d]", cfg.MemSize, mem.MaxSize)
	}
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = defaultMaxCycles
	}
	if cfg.MemSize == 0 {
		cfg.MemSize = mem.DefaultSize
	}
	if !cfg.Model.Valid() {
		cfg.Model = core.WriteResetReadUpdate
	}
	if cfg.ReadPorts > 0 && cfg.ReadPorts < 2 {
		cfg.ReadPorts = 2 // a two-source instruction must always fit
	}
	return nil
}

// Check admits machine code for a run under cfg, exactly as Machine.Reset
// and the multiprogrammed entry do before touching any state: cfg must
// normalize, and every instruction must fit its opcode's operand schema
// (isa.Instr.CheckOperands), read and write registers inside its class's
// map, connect inside its class's map and file, carry no IR call
// arguments, and branch or call inside the code. Code that reaches the
// simulator from outside the compiler — a decoded trace, an assembled
// program — thus fails with an error, never a host panic.
func Check(code []isa.Instr, cfg Config) error {
	if err := cfg.normalize(); err != nil {
		return err
	}
	return cfg.checkCode(code)
}

// checkCode is Check's per-instruction half, over a normalized cfg. It
// allocates nothing unless it fails.
func (cfg *Config) checkCode(code []isa.Instr) error {
	for pc := range code {
		if err := cfg.checkInstr(&code[pc], len(code)); err != nil {
			return fmt.Errorf("machine: pc %d: %w", pc, err)
		}
	}
	return nil
}

func (cfg *Config) checkInstr(in *isa.Instr, n int) error {
	if err := in.CheckOperands(); err != nil {
		return err
	}
	if len(in.Args) > 0 {
		return fmt.Errorf("%v carries IR call arguments", in.Op)
	}
	var regs [3]isa.Reg
	for _, r := range append(in.Uses(regs[:0]), in.Def()) {
		if m, _ := cfg.file(r.Class); r.Valid() && (r.N < 0 || r.N >= m) {
			return fmt.Errorf("register %v outside map [0,%d)", r, m)
		}
	}
	m, total := cfg.file(in.CClass)
	for i := 0; i < int(in.Op.Meta().NPairs); i++ {
		if int(in.CIdx[i]) >= m || int(in.CPhys[i]) >= total {
			return fmt.Errorf("connect %d:%d outside map [0,%d) or file [0,%d)",
				in.CIdx[i], in.CPhys[i], m, total)
		}
	}
	if (in.Op.IsBranch() || in.Op == isa.CALL) && (in.Target < 0 || in.Target >= n) {
		return fmt.Errorf("target %d outside code [0,%d)", in.Target, n)
	}
	return nil
}

// file returns the (map, file) sizes of a class's registers; connects of
// any class but float address the integer file, as execConnect does.
func (cfg *Config) file(c isa.RegClass) (int, int) {
	if c == isa.ClassFloat {
		return cfg.FPCore, cfg.FPTotal
	}
	return cfg.IntCore, cfg.IntTotal
}

// RuntimeError is a structured simulated-execution failure: the faulting
// function and static instruction, the cycle the instruction issued in, the
// process index (multiprogramming; 0 otherwise), and the underlying cause
// (a *mem.Fault for wild accesses, or an arithmetic error). It is returned
// as an ordinary error — a guest program's memory fault must never surface
// as a host panic, no matter which entry point ran it.
type RuntimeError struct {
	Func  string // function containing PC ("(init)" for image setup faults)
	PC    int    // static instruction index (-1 outside program execution)
	Cycle int64  // issue cycle of the faulting instruction
	Proc  uint8  // process index (multiprogrammed runs)
	Err   error  // underlying cause
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("machine: runtime error in %s at pc=%d cycle=%d: %v", e.Func, e.PC, e.Cycle, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *RuntimeError) Unwrap() error { return e.Err }

// runtimeError wraps a failure with the simulator's current execution
// context. pc is the instruction being issued when the failure occurred.
func (s *simState) runtimeError(pc int, cycle int64, cause error) error {
	var re *RuntimeError
	if errors.As(cause, &re) {
		return cause // already contextualized (nested runUntil)
	}
	return &RuntimeError{Func: s.img.FuncAt(pc), PC: pc, Cycle: cycle, Proc: s.proc, Err: cause}
}

// Result reports one simulation.
type Result struct {
	Cycles      int64
	Instrs      int64 // dynamic instructions issued
	Connects    int64 // dynamic connect instructions
	MemOps      int64
	Mispredicts int64
	RetInt      int64 // integer return value of main (r2 at halt)
	Mem         *mem.Memory
	Layout      mem.Layout

	// Stall cycle attribution (a cycle with no issue at all).
	StallData   int64
	StallMem    int64
	StallConn   int64
	StallBranch int64 // mispredict front-end refill penalty cycles

	// HaltCycles counts the final HALT-fetch cycle when nothing issued in
	// it (0 or 1 per program; the halt cycle is an issue cycle otherwise).
	HaltCycles int64

	// ActiveCycles is the number of cycles this process occupied the
	// machine. Equal to Cycles for single-process runs; in a
	// multiprogrammed run Cycles is the global clock at halt while
	// ActiveCycles is this process's own share of it.
	ActiveCycles int64

	// IssueHist[k] counts cycles in which exactly k instructions issued
	// (length Config.IssueRate+1): per-cycle issue-slot utilization.
	IssueHist []int64

	// Interrupt accounting (Config.Trap).
	Traps         int64
	TrapOverheads int64 // cycles spent in handlers / context switches

	// Map-table telemetry, captured when a single-process run completes.
	// Multiprogrammed processes share the tables; see MultiResult.
	MapInt, MapFP core.Stats

	// Prof is the per-PC cycle attribution, non-nil only when the run's
	// Config.Probe is or holds a *PCProf (see PCProf's charging rules).
	Prof *PCProf

	// OpMix counts dynamic instructions by functional-unit class.
	OpMix [16]int64

	// Chain-forwarding telemetry (Config.Chain): producer instructions
	// issued with a forwarding mark, and consumer operand reads served by
	// the forward instead of the register file.
	ChainPairs       int64
	ChainElidedReads int64

	// PortLimitedCycles counts cycles whose issue group was cut short by
	// the read-port limit after at least one instruction issued. Such
	// cycles are issue cycles in the ledger (the width loss, not a stall,
	// is the cost), so this is telemetry rather than a ledger bucket. The
	// head of a group always has ports (an instruction reads at most two
	// registers of a class and Config clamps ReadPorts to at least 2), so
	// no zero-issue cycle is a port stall; were one ever reachable, its
	// cycle would fall outside every bucket and CheckLedger would fail.
	PortLimitedCycles int64
}

// CheckLedger verifies that every cycle this process occupied the machine
// is attributed to exactly one bucket: issue cycles (IssueHist), branch
// penalty, and trap overhead must sum to ActiveCycles; zero-issue cycles
// must be fully explained by the three stall reasons plus the halt cycle;
// and the issue histogram must account for every issued instruction.
// Machine.RunContext ends every single-process run with it (and
// MultiResult.CheckLedger every multiprogrammed one), so a run that
// returns a Result has passed it.
func (r *Result) CheckLedger() error {
	if r.IssueHist == nil {
		return errors.New("machine: result has no issue histogram")
	}
	var histCycles, histInstrs int64
	for k, c := range r.IssueHist {
		histCycles += c
		histInstrs += int64(k) * c
	}
	if got := histCycles + r.StallBranch + r.TrapOverheads; got != r.ActiveCycles {
		return fmt.Errorf("machine: ledger does not close: issue %d + branch %d + trap %d = %d, want %d active cycles",
			histCycles, r.StallBranch, r.TrapOverheads, got, r.ActiveCycles)
	}
	if got := r.StallData + r.StallMem + r.StallConn + r.HaltCycles; got != r.IssueHist[0] {
		return fmt.Errorf("machine: zero-issue cycles unattributed: data %d + mem %d + connect %d + halt %d = %d, want %d",
			r.StallData, r.StallMem, r.StallConn, r.HaltCycles, got, r.IssueHist[0])
	}
	if histInstrs != r.Instrs {
		return fmt.Errorf("machine: issue histogram covers %d instructions, result has %d", histInstrs, r.Instrs)
	}
	return nil
}

// MixOf returns the dynamic count for a functional-unit class.
func (r *Result) MixOf(k isa.Kind) int64 { return r.OpMix[k] }

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instrs) / float64(r.Cycles)
}

// ErrCycleLimit reports that simulation exceeded Config.MaxCycles.
var ErrCycleLimit = errors.New("machine: cycle limit exceeded")

const defaultMaxCycles = int64(1) << 34

// cancelCheckInterval is how often (in cycles) the cycle loop polls the
// run's context. Checking every cycle would put a channel poll on the hot
// path; at this stride the check amortizes to one compare per cycle (see
// BENCH_sim.json) while still bounding cancellation latency to a few
// thousand simulated cycles.
const cancelCheckInterval = 4096

// ErrCanceled reports that a run was stopped by its context; the wrapping
// RuntimeError records where. errors.Is also matches the context's own
// error (context.Canceled or context.DeadlineExceeded).
var ErrCanceled = errors.New("machine: run canceled")

// Run simulates the image to completion (HALT) and returns the result.
func Run(img *Image, cfg Config) (res *Result, err error) {
	return RunContext(context.Background(), img, cfg)
}

// RunContext simulates the image to completion or until ctx is canceled,
// whichever comes first. Cancellation is polled inside the cycle loop every
// cancelCheckInterval cycles, so a long simulation stops within a bounded
// number of simulated cycles of the cancel; the returned error wraps both
// ErrCanceled and the context's error.
//
// Each call constructs a private arena, so the result aliases nothing; to
// amortize the arena across many runs, use Machine directly.
func RunContext(ctx context.Context, img *Image, cfg Config) (*Result, error) {
	m := NewMachine()
	if err := m.Reset(img, cfg); err != nil {
		return nil, err
	}
	return m.RunContext(ctx)
}

// simState is the execution pipeline state of one simulated process: the
// predecoded micro-op stream and the (possibly shared) physical register
// file and mapping tables.
type simState struct {
	img  *Image
	cfg  Config
	mem  *mem.Memory
	code []uop // predecoded micro-ops, 1:1 with img.Code

	pc   int
	ri   []int64
	rf   []float64
	rdyI []int64 // cycle at which the register's value is available
	rdyF []int64
	tabI *core.MapTable
	tabF *core.MapTable
	lcI  []int64 // cycle of the last connect touching this int map entry
	lcF  []int64

	// Read-port tracking (Config.ReadPorts): the cycle each physical
	// register was last read in, and the distinct registers read so far
	// this cycle per class. Allocated only when the port hazard is on.
	portStampI, portStampF []int64
	portCntI, portCntF     int

	cycle    int64
	nextTrap int64

	// Cooperative cancellation: ctxDone is the run context's done channel
	// (nil for background contexts, which can never cancel), polled when
	// the cycle count reaches nextCancel.
	ctx        context.Context
	ctxDone    <-chan struct{}
	nextCancel int64

	res   *Result
	probe Probe // Config.Probe
	proc  uint8 // process index (multiprogramming; 0 otherwise)

	// Arena scratch reused across runs: the map-table telemetry snapshots
	// the Result exports (statI/statF) and the trap path's save/restore
	// contexts (trapCtxI/trapCtxF).
	statI, statF core.Stats
	trapCtxI     core.Context
	trapCtxF     core.Context
}

// bindContext arms the cycle loop's cancellation polling. A context that
// can never be canceled (Done() == nil) keeps nextCancel beyond any
// reachable cycle so the hot path pays a single int compare.
func (s *simState) bindContext(ctx context.Context) {
	s.ctx = ctx
	s.ctxDone = ctx.Done()
	if s.ctxDone == nil {
		s.nextCancel = math.MaxInt64
	} else {
		s.nextCancel = s.cycle + cancelCheckInterval
	}
}

// reset wires the state for a fresh run over the given (possibly shared)
// register file and mapping tables, reusing every allocation from the
// previous run on this state: predecode rewrites the micro-op slice in
// place, and memory reinitialization rezeros only the pages the previous
// run dirtied (mem.InitImageInto). The resulting state is observationally
// identical to a freshly constructed one. An attached probe is prepared
// for the run (prepare): a PCProf is sized to the image and exported as
// Result.Prof, an EventRing learns the issue width.
func (s *simState) reset(img *Image, cfg Config, ri []int64, rf []float64,
	rdyI, rdyF []int64, tabI, tabF *core.MapTable, proc uint8) {
	s.img, s.cfg = img, cfg
	s.mem = mem.InitImageInto(s.mem, img.Prog.IR, img.Layout, cfg.MemSize)
	s.code = predecodeInto(s.code, img.Code, img.Ann, cfg.Chain, cfg.Lat)
	s.ri, s.rf, s.rdyI, s.rdyF = ri, rf, rdyI, rdyF
	s.tabI, s.tabF = tabI, tabF
	s.lcI = filled(s.lcI, cfg.IntCore, -1)
	s.lcF = filled(s.lcF, cfg.FPCore, -1)
	if cfg.ReadPorts > 0 {
		s.portStampI = filled(s.portStampI, cfg.IntTotal, -1)
		s.portStampF = filled(s.portStampF, cfg.FPTotal, -1)
	}
	s.portCntI, s.portCntF = 0, 0
	s.pc = img.Entry
	s.cycle, s.nextTrap = 0, 0
	s.ctx, s.ctxDone = nil, nil
	s.nextCancel = math.MaxInt64 // no context bound yet
	if s.res == nil {
		s.res = &Result{}
	}
	hist := zeroed(s.res.IssueHist, cfg.IssueRate+1)
	*s.res = Result{Mem: s.mem, Layout: img.Layout, IssueHist: hist,
		Prof: prepare(cfg.Probe, len(img.Code), cfg.IssueRate)}
	s.probe = cfg.Probe
	s.proc = proc
}

// stall reasons for attribution.
type stallReason uint8

const (
	stallNone stallReason = iota
	stallData
	stallMem
	stallConn
	stallPorts
)

// stallNames labels stall reasons in traces.
var stallNames = [...]string{
	stallNone:  "",
	stallData:  "data",
	stallMem:   "mem",
	stallConn:  "connect",
	stallPorts: "ports",
}

// runUntil simulates until HALT or the global cycle reaches stopAt,
// whichever comes first, reporting whether the program halted. State
// persists across calls so multiprogramming can interleave processes.
//
// Failures — execute errors and the memory-fault panics of wild guest
// accesses — leave through a single exit that wraps them in a RuntimeError
// (function, pc, issue cycle).
func (s *simState) runUntil(stopAt int64) (halted bool, err error) {
	cfg := s.cfg
	penalty := int64(basePenalty)
	if cfg.ExtraDecodeStage {
		penalty++
	}
	start := s.cycle
	defer func() { s.res.ActiveCycles += s.cycle - start }()
	res, probe, code := s.res, s.probe, s.code
	var issueCycle int64
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(*mem.Fault)
			if !ok {
				panic(r)
			}
			// s.pc still names the faulting instruction: the issue loop
			// only advances it after execute returns.
			halted, err = false, s.runtimeError(s.pc, issueCycle, f)
		}
	}()
	for {
		cycle := s.cycle
		if cycle >= stopAt {
			return false, nil
		}
		if cycle >= s.nextCancel && s.ctxDone != nil {
			select {
			case <-s.ctxDone:
				return false, s.runtimeError(s.pc, cycle,
					fmt.Errorf("%w after %d cycles: %w", ErrCanceled, cycle, context.Cause(s.ctx)))
			default:
				s.nextCancel = cycle + cancelCheckInterval
			}
		}
		if cfg.Trap.Interval > 0 && cycle >= s.nextTrap {
			ov := s.trapOverhead()
			if probe != nil {
				// Charged to the instruction that was about to issue.
				probe.Event(Event{Kind: EvTrap, Cycle: cycle, Dur: ov, PC: int32(s.pc), Proc: s.proc})
			}
			cycle += ov
			res.Traps++
			res.TrapOverheads += ov
			s.nextTrap = cycle + cfg.Trap.Interval
		}
		issued := 0
		memUsed := 0
		s.portCntI, s.portCntF = 0, 0
		var firstStall stallReason
		// issueCycle is the cycle the issue engine runs in; `cycle` may
		// have absorbed trap overhead above (and may additionally absorb a
		// mispredict penalty below), so events are stamped with
		// issueCycle to stay monotonic.
		issueCycle = cycle
		for issued < cfg.IssueRate {
			u := &code[s.pc]
			if u.Op == isa.HALT {
				res.IssueHist[issued]++
				res.Instrs += int64(issued)
				if issued == 0 {
					res.HaltCycles++
				}
				if probe != nil {
					probe.Event(Event{Kind: EvHalt, Cycle: issueCycle, PC: int32(s.pc), Slot: uint8(issued), Proc: s.proc})
				}
				// Connects and memory operations are op-mix classes
				// (isa.Meta's Connect and Mem flags), read off once here
				// rather than counted per instruction.
				res.Connects = res.OpMix[isa.KindConnect]
				res.MemOps = res.OpMix[isa.KindLoad] + res.OpMix[isa.KindStore]
				s.cycle = cycle + 1
				res.Cycles = s.cycle
				return true, nil
			}
			pa, pb, reason := s.canIssue(u, cycle, memUsed)
			if reason != stallNone {
				if issued == 0 {
					firstStall = reason
				} else if reason == stallPorts {
					// The group still issued something, so no ledger stall is
					// charged; count the cycle as port-limited for the stats.
					// (With the two-source ISA and the >=2-port clamp, the
					// head of a group always has ports, so this is where a
					// reduced-port file shows up.)
					res.PortLimitedCycles++
				}
				break
			}
			issuePC := s.pc
			next, mispredict, err := s.execute(u, pa, pb, cycle)
			if err != nil {
				return false, s.runtimeError(issuePC, issueCycle, err)
			}
			issued++
			res.OpMix[u.Kind]++
			if probe != nil {
				probe.Event(Event{Kind: EvIssue, Cycle: issueCycle, Dur: 1,
					PC: int32(issuePC), Slot: uint8(issued - 1), Proc: s.proc})
			}
			if u.Mem {
				memUsed++
			}
			if u.chainOut {
				res.ChainPairs++
			}
			if u.chainA {
				res.ChainElidedReads++
			}
			if u.chainB {
				res.ChainElidedReads++
			}
			s.pc = next
			if mispredict {
				res.Mispredicts++
				cycle += penalty
				res.StallBranch += penalty
				if probe != nil {
					probe.Event(Event{Kind: EvMispredict, Cycle: issueCycle, Dur: penalty,
						PC: int32(issuePC), Proc: s.proc})
				}
				break
			}
		}
		res.IssueHist[issued]++
		res.Instrs += int64(issued)
		if issued == 0 {
			// s.pc is the instruction that failed to issue: the stall
			// cycle is charged to it.
			switch firstStall {
			case stallData:
				res.StallData++
			case stallMem:
				res.StallMem++
			case stallConn:
				res.StallConn++
			}
			if probe != nil {
				probe.Event(Event{Kind: EvStall, Cycle: issueCycle, Dur: 1,
					PC: int32(s.pc), Proc: s.proc, Arg: int32(firstStall)})
			}
		}
		s.cycle = cycle + 1
	}
}
