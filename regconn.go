// Package regconn is the public entry point of the Register Connection
// reproduction (Kiyohara et al., ISCA 1993). It wires the full pipeline —
//
//	IR → classical optimization → profiling → ILP transformation →
//	register allocation (unlimited / spill / RC) → code generation with
//	connect insertion → list scheduling → execution-driven simulation —
//
// behind two calls: Build compiles a program for an architecture
// configuration, and Executable.Run simulates it. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for the reproduced results.
package regconn

import (
	"context"
	"fmt"
	"io"

	"regconn/internal/abi"
	"regconn/internal/analysis"
	"regconn/internal/backend"
	"regconn/internal/codegen"
	"regconn/internal/core"
	"regconn/internal/ilp"
	"regconn/internal/interp"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/machine"
	"regconn/internal/mapcheck"
	"regconn/internal/mem"
	"regconn/internal/opt"
	"regconn/internal/regalloc"
	"regconn/internal/sched"
)

// RegMode selects the register model of an experiment. It is a thin
// compatibility alias for backend.ID: every per-scheme decision lives in
// the internal/backend registry, and String() renders the registered
// backend's display name.
type RegMode = backend.ID

const (
	// Unlimited gives every virtual register its own physical register
	// (the paper's idealized dotted lines and the 1-issue baseline).
	Unlimited = backend.Unlimited
	// WithoutRC uses only the core registers and spills the rest.
	WithoutRC = backend.WithoutRC
	// WithRC extends the core with connect-accessed extended registers
	// for a 256-register total file (paper §5.2).
	WithRC = backend.WithRC
	// PortReduce exposes the whole file directly but models a reduced
	// register-file read-port count as an issue-stage structural hazard
	// (arXiv 2502.00147).
	PortReduce = backend.PortReduce
	// Chain forwards single-use producer values to the next instruction,
	// eliding the register-file write/read pair (arXiv 2503.20609).
	Chain = backend.Chain
)

// TotalRegs is the full physical register file size under RC (paper §5.2:
// "the register file is assumed to contain a total of 256 registers").
const TotalRegs = backend.TotalRegs

// Arch is one experimental configuration: the paper's axes plus the
// compiler knobs needed for the ablations.
type Arch struct {
	Issue       int // instructions per cycle: 1, 2, 4, 8
	MemChannels int // memory channels (0 = paper default for the issue rate)
	LoadLatency int // 2 or 4 cycles

	IntCore int // core integer registers (8..64)
	FPCore  int // core floating-point registers (16..128)

	Mode  RegMode
	Model core.Model // RC automatic-reset model (default: model 3)

	// Backend selects the register architecture by registry name
	// ("rc", "spill", "unlimited", "portreduce", "chain"); when set it
	// takes precedence over Mode. Empty for the three legacy modes keeps
	// serialized configurations (rcserve canonical point keys)
	// byte-identical with pre-backend builds.
	Backend string `json:",omitempty"`

	// ReadPorts is the register-file read-port count for the portreduce
	// backend (0 = the issue rate).
	ReadPorts int `json:",omitempty"`

	ConnectLatency   int  // 0 or 1 (Figure 12)
	ExtraDecodeStage bool // Figure 12
	CombineConnects  bool // two-pair connect instructions (paper footnote 1)

	// Windows selects the connect-window policy (§3 map-entry selection;
	// see the "windows" ablation). Zero value = LRU.
	Windows WindowPolicy

	// ExpandAccumulators enables accumulator variable expansion: each
	// unrolled copy reduces into its own partial, merged at loop exits.
	// Raises ILP for reduction chains but also register pressure (see the
	// "accum" ablation); off by default, as the tradeoff is negative at
	// the paper's 16/32-register operating point.
	ExpandAccumulators bool

	// ScalarOnly disables the ILP transformations (the baseline
	// "conventional compiler scalar optimizations" of §5.3).
	ScalarOnly bool
	// NoSchedule disables list scheduling (diagnostics).
	NoSchedule bool

	// Verify runs the static map-state verifier (internal/mapcheck, the
	// rclint pass) on the scheduled machine code and fails the build on
	// any violation. exp.RunPoint turns it on for every experiment and
	// rcserve point, and all tests enable it; the check takes a small
	// fraction of a back end's time. A build that wants the findings
	// rather than a failure leaves it off and calls Executable.MapCheck,
	// as rclint does.
	Verify bool

	// Trap enables periodic interrupts or context switches and selects
	// the operating-system strategy for RC state (§4.2–4.3). The
	// ProgramUsesRC bit is set automatically from Mode.
	Trap TrapConfig

	// Profile enables per-static-instruction cycle attribution: the run's
	// Result carries a machine.PCProf that internal/prof rolls up to
	// functions, basic blocks, and virtual registers (cmd/rcprof). It has
	// no effect on simulated timing or architectural results. It applies
	// to Run, Verify and Arena runs; RunProcesses rejects it.
	Profile bool

	// MemSize is the simulated memory image size in bytes (0 = the
	// default 16 MiB). Programs whose data or stack exceed it fail with a
	// guest memory fault (*machine.RuntimeError), which makes small sizes
	// useful for exercising fault paths end to end. It is capped at
	// mem.MaxSize (1 GiB): running at a negative or larger size is an
	// error, and rcserve rejects such an arch with a 400.
	MemSize int64
}

// DefaultMemChannels returns the paper's channel count for an issue rate:
// two channels for 1/2/4-issue, four for 8-issue (§5.2).
func DefaultMemChannels(issue int) int {
	if issue >= 8 {
		return 4
	}
	return 2
}

// Baseline returns the speedup denominator configuration of §5.3: a
// single-issue processor with unlimited registers and conventional scalar
// optimization.
func Baseline() Arch {
	return Arch{Issue: 1, LoadLatency: 2, Mode: Unlimited, ScalarOnly: true}
}

func (a Arch) normalize() Arch {
	if a.MemChannels == 0 {
		a.MemChannels = DefaultMemChannels(a.Issue)
	}
	if a.LoadLatency == 0 {
		a.LoadLatency = 2
	}
	if a.IntCore == 0 {
		a.IntCore = 64
	}
	if a.FPCore == 0 {
		a.FPCore = 64
	}
	if !a.Model.Valid() {
		a.Model = core.WriteResetReadUpdate
	}
	return a
}

// resolveBackend resolves the architecture's register scheme through the
// backend registry: a non-empty Backend name wins, otherwise the legacy
// Mode value. Unknown names and unknown mode values both error (listing
// the registered names) instead of silently falling back to spilling.
func (a Arch) resolveBackend() (backend.Backend, error) {
	if a.Backend != "" {
		return backend.ByName(a.Backend)
	}
	return backend.ByID(a.Mode)
}

// Canonical normalizes the backend identification of the architecture so
// equivalent configurations serialize identically: the three legacy modes
// keep Backend empty (byte-compatible with pre-backend point keys), newer
// backends carry their registry name with Mode set to the matching ID. An
// unresolvable configuration is returned unchanged (Build will reject it).
func (a Arch) Canonical() Arch {
	be, err := a.resolveBackend()
	if err != nil {
		return a
	}
	a.Mode = be.ID()
	if be.ID() <= WithRC {
		a.Backend = ""
	} else {
		a.Backend = be.Name()
	}
	return a
}

// Executable is a compiled program bound to a machine configuration.
type Executable struct {
	Arch   Arch
	Image  *machine.Image
	MProg  *codegen.MProg
	Alloc  *regalloc.ProgramAssignment
	Golden *interp.Result // interpreter run of the final IR (oracle + profile)

	// Static code-size statistics (Figure 9): instruction counts before
	// and after register allocation, split by cause.
	PreAllocSize    int
	PostAllocSize   int
	SpillInstrs     int
	ConnectInstrs   int
	SaveRestoreExts int

	machineIntTotal, machineFPTotal int
	be                              backend.Backend
	bp                              backend.Params
}

// CodeGrowth returns the fractional code-size increase due to register
// allocation — the Figure 9 metric. It counts exactly the instructions
// allocation inserted (spill loads/stores, connects, extended-register
// save/restore around calls), not the fixed calling-convention expansion,
// relative to the pre-allocation instruction count.
func (e *Executable) CodeGrowth() float64 {
	if e.PreAllocSize == 0 {
		return 0
	}
	return float64(e.SpillInstrs+e.ConnectInstrs+e.SaveRestoreExts) / float64(e.PreAllocSize)
}

// SaveRestoreGrowth returns the fraction of code growth attributable to
// extended-register save/restore (the black portion of Figure 9's bars).
func (e *Executable) SaveRestoreGrowth() float64 {
	if e.PreAllocSize == 0 {
		return 0
	}
	return float64(e.SaveRestoreExts) / float64(e.PreAllocSize)
}

// MaxLatency bounds Arch.LoadLatency and Arch.ConnectLatency, far above the
// paper's 4-cycle loads and 1-cycle connects: compile time grows with the
// latency, and a compile cannot be canceled.
const MaxLatency = 1024

// Validate reports whether Build can compile the architecture and the
// simulator can run it, before any work is done: an issue rate and trap
// handler inside machine.CheckBounds; non-negative memory channels and
// read ports and load and connect latencies of at most MaxLatency (0
// selects each one's default); core register counts that are 0 (the
// default) or in [abi.MinCore, TotalRegs]; a memory size in
// [0, mem.MaxSize]; and a registered backend. Build and NewFrontend call
// it first, and rcserve answers a failure with a 400.
func (a Arch) Validate() error {
	if err := machine.CheckBounds(a.Issue, a.Trap); err != nil {
		return fmt.Errorf("arch: %w", err)
	}
	core := func(n int) bool { return n == 0 || abi.MinCore <= n && n <= TotalRegs }
	switch {
	case a.MemChannels < 0:
		return fmt.Errorf("arch: negative memory channels %d", a.MemChannels)
	case a.LoadLatency < 0 || a.LoadLatency > MaxLatency:
		return fmt.Errorf("arch: load latency %d outside [0, %d]", a.LoadLatency, MaxLatency)
	case a.ConnectLatency < 0 || a.ConnectLatency > MaxLatency:
		return fmt.Errorf("arch: connect latency %d outside [0, %d]", a.ConnectLatency, MaxLatency)
	case a.ReadPorts < 0:
		return fmt.Errorf("arch: negative read ports %d", a.ReadPorts)
	case !core(a.IntCore):
		return fmt.Errorf("arch: integer core %d outside [%d, %d] (0 = default)", a.IntCore, abi.MinCore, TotalRegs)
	case !core(a.FPCore):
		return fmt.Errorf("arch: floating-point core %d outside [%d, %d] (0 = default)", a.FPCore, abi.MinCore, TotalRegs)
	case a.MemSize < 0 || a.MemSize > mem.MaxSize:
		return fmt.Errorf("arch: memory size %d outside [0, %d]", a.MemSize, mem.MaxSize)
	}
	if _, err := a.resolveBackend(); err != nil {
		return fmt.Errorf("arch: %w", err)
	}
	return nil
}

// FrontendKey is what a front end depends on in an Arch: whether the ILP
// transformations run and, when they do, the unroll factor and
// accumulator expansion. Every other field shapes only the back end.
type FrontendKey struct {
	ScalarOnly         bool
	Unroll             int
	ExpandAccumulators bool
}

// FrontendKey returns the front-end key of the architecture. Under
// ScalarOnly the ILP knobs are zeroed: the transformations they steer
// never run.
func (a Arch) FrontendKey() FrontendKey {
	if a.ScalarOnly {
		return FrontendKey{ScalarOnly: true}
	}
	return FrontendKey{Unroll: ilp.UnrollFactorFor(a.Issue), ExpandAccumulators: a.ExpandAccumulators}
}

// Frontend is the architecture-independent half of a build: the program
// verified, optimized, ILP-transformed and profiled for one FrontendKey,
// plus the interpreter oracle. Its Build runs the back end for any Arch
// with that key. Back ends only read the front end, so one Frontend may
// build many executables, concurrently; its IR and Golden must not be
// modified.
type Frontend struct {
	// IR is the optimized, profiled program; every executable built from
	// the front end shares it as its MProg.IR.
	IR *ir.Program
	// Golden is the interpreter run of IR: the profile the back end reads
	// and the oracle every executable is verified against.
	Golden *interp.Result

	key FrontendKey
}

// NewFrontend runs the front end of Build for the architecture: IR
// verification, the definite-assignment check, a private deep copy,
// classical optimization, the pre-ILP profiling run and ILP
// transformation (unless ScalarOnly), and the final profiling run. The
// input program is never mutated.
func NewFrontend(p *ir.Program, arch Arch) (*Frontend, error) {
	if err := arch.Validate(); err != nil {
		return nil, fmt.Errorf("regconn: %w", err)
	}
	if err := ir.Verify(p); err != nil {
		return nil, fmt.Errorf("regconn: verify: %w", err)
	}
	for _, f := range p.Funcs {
		if err := analysis.CheckDefiniteAssignment(f); err != nil {
			return nil, fmt.Errorf("regconn: %w", err)
		}
	}
	key := arch.FrontendKey()

	// 1. Classical optimization (always on — §5.1: all benchmarks get
	// full classical optimization). From here on every pass rewrites IR
	// in place, so work on a private deep copy: the caller's program
	// stays byte-identical however many times it is built.
	p = ir.Clone(p)
	opt.Classical(p)

	// 2. ILP transformation sized to the issue rate, guided by a
	// trip-count profile (low-trip loops are not worth unrolling).
	if !key.ScalarOnly {
		interp.ClearProfile(p)
		if _, err := interp.Run(p, "main", nil, interp.Options{Profile: true}); err != nil {
			return nil, fmt.Errorf("regconn: pre-ILP profiling run: %w", err)
		}
		ilp.Transform(p, key.Unroll, key.ExpandAccumulators)
	}

	// 3. Re-profile the final IR: allocator priorities, branch
	// prediction, and the correctness oracle all come from this run.
	interp.ClearProfile(p)
	golden, err := interp.Run(p, "main", nil, interp.Options{Profile: true})
	if err != nil {
		return nil, fmt.Errorf("regconn: profiling run: %w", err)
	}
	return &Frontend{IR: p, Golden: golden, key: key}, nil
}

// Build compiles the program for the architecture: NewFrontend, then the
// front end's Build. The input program is never mutated: compilation
// (which optimizes and profiles IR in place) works on a deep copy, so one
// constructed program can be built under many architectures — the fuzz
// oracle and the workload generator both rely on this.
func Build(p *ir.Program, arch Arch) (*Executable, error) {
	fe, err := NewFrontend(p, arch)
	if err != nil {
		return nil, err
	}
	return fe.Build(arch)
}

// Build runs the back end for the architecture — register allocation,
// code generation, list scheduling, the backend's finishing pass, the
// static map-state check (Arch.Verify) and loading — and returns the
// executable. The architecture must have the front end's key.
func (fe *Frontend) Build(arch Arch) (*Executable, error) {
	if err := arch.Validate(); err != nil {
		return nil, fmt.Errorf("regconn: %w", err)
	}
	if k := arch.FrontendKey(); k != fe.key {
		return nil, fmt.Errorf("regconn: arch front-end key %+v, but the front end was compiled for %+v", k, fe.key)
	}
	arch = arch.normalize()
	be, err := arch.resolveBackend()
	if err != nil {
		return nil, fmt.Errorf("regconn: %w", err)
	}
	bp := backend.Params{
		Issue:           arch.Issue,
		IntCore:         arch.IntCore,
		FPCore:          arch.FPCore,
		TotalRegs:       TotalRegs,
		Model:           arch.Model,
		ConnectLatency:  arch.ConnectLatency,
		CombineConnects: arch.CombineConnects,
		Windows:         arch.Windows,
		ReadPorts:       arch.ReadPorts,
	}
	p := fe.IR

	// 4. Register allocation. The backend shapes the file and selects the
	// allocation strategy.
	file := be.File(bp)
	intTotal, fpTotal := file.IntTotal, file.FPTotal
	conv := abi.New(arch.IntCore, intTotal, arch.FPCore, fpTotal)
	// The prepass-overlap window scales with the scheduler's reach: wider
	// machines keep more instructions in flight (see regalloc.Allocate).
	pa := regalloc.Allocate(p, be.AllocMode(), conv, 6*arch.Issue)
	if file.GrowToDemand {
		intTotal, fpTotal = pa.NeedInt, pa.NeedFP
		if intTotal < arch.IntCore {
			intTotal = arch.IntCore
		}
		if fpTotal < arch.FPCore {
			fpTotal = arch.FPCore
		}
	}

	// 5. Code generation.
	preSize := 0
	for _, f := range p.Funcs {
		preSize += f.NumInstrs()
	}
	ccfg := be.Codegen(bp)
	ccfg.Conv = conv
	mp, err := codegen.Lower(p, pa, ccfg)
	if err != nil {
		return nil, fmt.Errorf("regconn: %w", err)
	}

	ex := &Executable{
		Arch:         arch,
		MProg:        mp,
		Alloc:        pa,
		Golden:       fe.Golden,
		PreAllocSize: preSize,
	}
	for _, f := range mp.Funcs {
		if f.Name == mp.Entry {
			continue
		}
		ex.PostAllocSize += len(f.Code)
		ex.SpillInstrs += f.SpillCount
		ex.ConnectInstrs += f.ConnectCount
		ex.SaveRestoreExts += f.SaveRestoreCount
	}

	// 6. List scheduling.
	if !arch.NoSchedule {
		scfg := sched.Config{
			Issue:          arch.Issue,
			MemChannels:    arch.MemChannels,
			Lat:            isa.DefaultLatencies(arch.LoadLatency),
			Conv:           conv,
			ConnectLatency: arch.ConnectLatency,
		}
		scfg = be.Sched(bp, scfg)
		scfg.Lat.Connect = arch.ConnectLatency
		for _, f := range mp.Funcs {
			sched.Schedule(f, scfg)
		}
	}

	// 6b. Backend finishing pass (post-schedule annotation passes such as
	// chain marking). Runs in the NoSchedule path too, so diagnostics see
	// the same annotations the scheduled build carries.
	if err := be.Finish(mp, bp); err != nil {
		return nil, fmt.Errorf("regconn: %w", err)
	}

	// 7. Static map-state verification (rclint). Runs after scheduling so
	// it checks the code the machine will actually execute.
	if arch.Verify {
		if err := mapcheck.Check(mp); err != nil {
			return nil, fmt.Errorf("regconn: %w", err)
		}
	}

	img, err := machine.Load(mp)
	if err != nil {
		return nil, fmt.Errorf("regconn: %w", err)
	}
	ex.Image = img
	ex.Arch.IntCore, ex.Arch.FPCore = arch.IntCore, arch.FPCore
	// Stash machine totals and the resolved backend for Run.
	ex.machineIntTotal, ex.machineFPTotal = intTotal, fpTotal
	ex.be, ex.bp = be, bp
	return ex, nil
}

// MapCheck runs the static map-state verifier over the compiled program
// and returns its findings (empty for a correct compilation). Build with
// Arch.Verify already runs this and fails on violations; MapCheck exposes
// the raw findings for tools (cmd/rclint) and for mutation tests that
// corrupt a program and expect precise rejections.
func (e *Executable) MapCheck() []mapcheck.Violation {
	return mapcheck.Verify(e.MProg)
}

// machineConfig translates the architecture into the simulator's
// configuration — the single point where the Arch → machine.Config mapping
// lives, shared by Run, RunWithTrace, RunWithEvents, and RunProcesses.
func (e *Executable) machineConfig() machine.Config {
	a := e.Arch
	lat := isa.DefaultLatencies(a.LoadLatency)
	lat.Connect = a.ConnectLatency
	trap := a.Trap
	trap.ProgramUsesRC = e.be.UsesRC()
	cfg := machine.Config{
		IssueRate:        a.Issue,
		MemChannels:      a.MemChannels,
		Lat:              lat,
		Trap:             trap,
		IntCore:          maxInt(a.IntCore, 0),
		IntTotal:         e.machineIntTotal,
		FPCore:           a.FPCore,
		FPTotal:          e.machineFPTotal,
		Model:            a.Model,
		ConnectLatency:   a.ConnectLatency,
		ExtraDecodeStage: a.ExtraDecodeStage,
		MemSize:          a.MemSize,
	}
	// The backend owns the scheme-specific knobs: the identity map of the
	// unlimited machine, the spill machine's core-only file, portreduce's
	// read-port hazard, chain's forwarding marks.
	return e.be.Machine(e.bp, cfg)
}

// runConfig is machineConfig with the Arch.Profile observer attached: a
// fresh PCProf per run, which the result exports as Result.Prof.
func (e *Executable) runConfig() machine.Config {
	cfg := e.machineConfig()
	if e.Arch.Profile {
		cfg.Probe = new(machine.PCProf)
	}
	return cfg
}

// Run simulates the executable and returns the machine result.
func (e *Executable) Run() (*machine.Result, error) {
	return e.RunContext(context.Background())
}

// RunContext simulates the executable under ctx: cancellation or deadline
// expiry stops the cycle loop within machine.RunContext's poll stride and
// surfaces as an error wrapping both machine.ErrCanceled and the context's
// own error.
func (e *Executable) RunContext(ctx context.Context) (*machine.Result, error) {
	return machine.RunContext(ctx, e.Image, e.runConfig())
}

// RunWithTrace simulates with a per-cycle issue trace written to w for the
// first cycles cycles (0 = unlimited); see machine.TextTrace. The trace is
// the run's only observer, so Arch.Profile does not apply.
func (e *Executable) RunWithTrace(w io.Writer, cycles int64) (*machine.Result, error) {
	tt := machine.NewTextTrace(w, cycles, e.Image)
	cfg := e.machineConfig()
	cfg.Probe = tt
	res, err := machine.Run(e.Image, cfg)
	return res, tt.Close(err)
}

// RunWithEvents simulates with the structured event trace enabled: the
// pipeline records issues, stalls, connects, map resets, and traps into
// ring (most recent window when the ring fills). Render the result with
// ring.WriteTraceJSON for chrome://tracing / Perfetto. The ring is the
// run's only observer, so Arch.Profile does not apply.
func (e *Executable) RunWithEvents(ring *machine.EventRing) (*machine.Result, error) {
	cfg := e.machineConfig()
	cfg.Probe = ring
	return machine.Run(e.Image, cfg)
}

// MultiResult reports a multiprogrammed run (see RunProcesses).
type MultiResult = machine.MultiResult

// Context-switch save strategies for RunProcesses (paper §4.2): FullSave
// preserves extended registers and connection state; CoreOnlySave models a
// pre-RC operating system and corrupts RC-extended processes.
const (
	FullSave     = machine.FullSave
	CoreOnlySave = machine.CoreOnlySave
)

// processImages validates that the executables target one architecture and
// returns their images with the shared machine configuration — the common
// preparation of RunProcesses and Arena.RunProcesses.
func processImages(exes []*Executable) ([]*machine.Image, machine.Config, error) {
	if len(exes) == 0 {
		return nil, machine.Config{}, fmt.Errorf("regconn: no processes")
	}
	imgs := make([]*machine.Image, len(exes))
	for i, e := range exes {
		if e.Arch.Profile {
			return nil, machine.Config{}, fmt.Errorf("regconn: process %d: Arch.Profile profiles single-process runs only", i)
		}
		if e.Arch.Issue != exes[0].Arch.Issue || e.Arch.IntCore != exes[0].Arch.IntCore ||
			e.Arch.FPCore != exes[0].Arch.FPCore {
			return nil, machine.Config{}, fmt.Errorf("regconn: process %d targets a different architecture", i)
		}
		imgs[i] = e.Image
	}
	cfg := exes[0].machineConfig()
	// The quantum-driven switch machinery replaces the trap model.
	cfg.Trap = machine.TrapConfig{}
	return imgs, cfg, nil
}

// RunProcesses time-shares the executables on one machine with the given
// quantum, context-switching under the chosen save mode. All executables
// must target the same architecture (the first one's machine configuration
// is used).
func RunProcesses(exes []*Executable, quantum int64, mode machine.SaveMode) (*MultiResult, error) {
	imgs, cfg, err := processImages(exes)
	if err != nil {
		return nil, err
	}
	return machine.RunMultiprogrammed(imgs, cfg, quantum, mode)
}

// Verify runs the executable and checks its architectural results against
// the interpreter oracle: main's return value and the final contents of
// the global data section must match exactly.
func (e *Executable) Verify() (*machine.Result, error) {
	return e.VerifyContext(context.Background())
}

// VerifyContext is Verify under a cancelable context (see RunContext).
func (e *Executable) VerifyContext(ctx context.Context) (*machine.Result, error) {
	res, err := e.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return res, e.checkOracle(res)
}

// checkOracle compares a machine result against the interpreter oracle:
// main's return value and the final contents of the global data section
// must match exactly. Shared by the one-shot and arena verify paths.
func (e *Executable) checkOracle(res *machine.Result) error {
	if res.RetInt != e.Golden.Ret {
		return fmt.Errorf("regconn: result mismatch: machine %d, interpreter %d", res.RetInt, e.Golden.Ret)
	}
	p := e.MProg.IR
	end := e.Golden.Layout.DataEnd(p)
	for addr := int64(mem.GlobalBase); addr < end; addr += 8 {
		if got, want := res.Mem.LoadI(addr), e.Golden.Mem.LoadI(addr); got != want {
			return fmt.Errorf("regconn: memory mismatch at %#x: machine %d, interpreter %d", addr, got, want)
		}
	}
	return nil
}

// Arena is a reusable simulation arena: it wraps a machine.Machine so that
// running many executables — a sweep of architecture points over one
// benchmark, or many benchmarks back to back — reuses one set of simulator
// allocations instead of paying them per run. Build once, then run the
// executables through the arena:
//
//	arena := regconn.NewArena()
//	for _, e := range exes {
//		res, err := arena.Run(e)
//		// use res before the next arena.Run / copy via res.Stats()
//	}
//
// Results returned by an Arena alias its internal state and are valid only
// until the arena's next run; Result.Stats() deep-copies everything it
// exports and is the way to keep data across runs. An Arena is not safe
// for concurrent use — pool arenas for parallel sweeps (internal/exp does).
type Arena struct {
	m *machine.Machine
}

// NewArena returns an empty arena; the first run sizes it.
func NewArena() *Arena { return &Arena{m: machine.NewMachine()} }

// Run simulates the executable on the arena (see Arena's aliasing rules).
func (a *Arena) Run(e *Executable) (*machine.Result, error) {
	return a.RunContext(context.Background(), e)
}

// RunContext simulates the executable on the arena under ctx, with
// Executable.RunContext's cancellation semantics.
func (a *Arena) RunContext(ctx context.Context, e *Executable) (*machine.Result, error) {
	if err := a.m.Reset(e.Image, e.runConfig()); err != nil {
		return nil, err
	}
	return a.m.RunContext(ctx)
}

// VerifyContext runs the executable on the arena and checks it against the
// interpreter oracle, exactly like Executable.VerifyContext.
func (a *Arena) VerifyContext(ctx context.Context, e *Executable) (*machine.Result, error) {
	res, err := a.RunContext(ctx, e)
	if err != nil {
		return nil, err
	}
	return res, e.checkOracle(res)
}

// RunProcesses is RunProcesses on the arena: the multiprogrammed machinery
// (per-process pipelines, PCBs, the shared register file) is reused across
// calls like the single-process state.
func (a *Arena) RunProcesses(ctx context.Context, exes []*Executable, quantum int64, mode machine.SaveMode) (*MultiResult, error) {
	imgs, cfg, err := processImages(exes)
	if err != nil {
		return nil, err
	}
	return a.m.RunMultiprogrammedContext(ctx, imgs, cfg, quantum, mode)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
