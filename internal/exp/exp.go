// Package exp regenerates every table and figure of the paper's evaluation
// (§5.3): Figure 7 (unlimited-register speedups by issue rate), Figure 8
// (speedup vs core register count), Figure 9 (code-size increase), Figures
// 10/11 (speedup vs issue rate at 2- and 4-cycle load latency), Figure 12
// (RC implementation scenarios), Figure 13 (memory channels vs RC), plus
// Table 1 (latencies) and two ablations (§2.2 combined connects, §2.3
// automatic-reset models). Each experiment returns a Table whose rows are
// benchmarks and whose columns are the paper's series.
package exp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/isa"
	"regconn/internal/machine"
	"regconn/internal/obs"
	"regconn/internal/regalloc"
)

// Result is one simulated data point.
type Result struct {
	Cycles   int64
	Instrs   int64
	Connects int64
	Growth   float64 // fractional code-size increase (Figure 9)
	SaveRest float64 // save/restore share of growth (Figure 9 black bar)

	// Demand is the executable's register demand in the benchmark's class:
	// the most distinct registers plus spill slots the allocator assigned
	// in any one function (the pressure ablation).
	Demand int

	// Stats is the full cycle-ledger export of the simulation (stall
	// breakdown, issue-slot histogram, map-table telemetry).
	Stats machine.Stats
}

// Runner executes benchmark/architecture pairs with memoization — the
// baseline run of each benchmark is shared by every figure. It is safe for
// concurrent use, but it does not coalesce: two concurrent calls for one
// uncached point both execute it, and the first to finish is kept. No
// caller asks for one point twice at once — every experiment states its
// rows once and hands them to one grid evaluator (eval), which simulates
// the distinct points across a bounded worker pool and then reads the
// table values in row order from the memo, so tables and errors are the
// same at any worker count.
type Runner struct {
	mu   sync.Mutex
	done map[string]memo // completed points (results and non-cancel errors)

	// Workers bounds the worker pool (0 = GOMAXPROCS, 1 = sequential).
	Workers int

	// Benchmarks restricts the suite (nil = all twelve).
	Benchmarks []bench.Benchmark

	// Progress, when set, is called once per distinct point of an
	// experiment, after the evaluator's first pass has simulated it, with
	// the number of finished points and the experiment's total. It is the
	// hook rcexp -progress builds on. Called from worker goroutines — must
	// be safe for concurrent use.
	Progress func(done, total int)

	// Point computes one uncached point (nil = RunPoint: results stay per
	// Runner, front ends are shared process-wide). rcserve's figures
	// resolve their points through the daemon's cache, store and worker
	// slots with it; tests stub it. Called from worker goroutines.
	Point func(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error)
}

// memo is one completed point: the memoized result or its terminal error.
type memo struct {
	res *Result
	err error
}

// NewRunner returns a Runner over the full suite.
func NewRunner() *Runner {
	return &Runner{Benchmarks: bench.All()}
}

// NewQuickRunner returns a Runner over a reduced suite (one call-heavy
// integer, one loop integer, one FP benchmark) for fast smoke runs.
func NewQuickRunner() *Runner {
	r := NewRunner()
	var keep []bench.Benchmark
	for _, b := range bench.All() {
		switch b.Name {
		case "cpp", "espresso", "matrix300":
			keep = append(keep, b)
		}
	}
	r.Benchmarks = keep
	return r
}

// key identifies a memoized point. The architecture is canonicalized
// first, so configurations that resolve to the same backend — a legacy
// Mode value and its registry name, e.g. Mode: WithRC and Backend: "rc" —
// share one memo entry instead of simulating twice (the daemon's point
// keys canonicalize the same way; see serve.Key).
func key(name string, a regconn.Arch) string {
	return fmt.Sprintf("%s/%+v", name, a.Canonical())
}

// Run builds and simulates one benchmark under one architecture, verifying
// the result against the interpreter oracle.
func (r *Runner) Run(bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	return r.RunContext(context.Background(), bm, arch)
}

// canceledErr reports whether err is a cancellation (never memoized).
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// RunContext is Run under a cancelable context. Completed results and
// terminal (non-cancel) errors are memoized, and the first write wins, so
// every caller sees one pointer per point. A cancellation is never kept:
// the next request for the point computes it afresh.
func (r *Runner) RunContext(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := key(bm.Name, arch)
	r.mu.Lock()
	m, ok := r.done[k]
	r.mu.Unlock()
	if ok {
		return m.res, m.err
	}
	run := r.Point
	if run == nil {
		run = RunPoint
	}
	res, err := run(ctx, bm, arch)
	if canceledErr(err) {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.done[k]; ok {
		return m.res, m.err
	}
	if r.done == nil {
		r.done = map[string]memo{}
	}
	r.done[k] = memo{res, err}
	return res, err
}

// arenas pools simulation arenas across points and workers: a sweep's
// thousands of runs reuse a handful of warm arenas (one per concurrent
// worker) instead of reallocating the simulator state per point. Safe
// because an arena's Reset restores power-on state and RunPoint copies
// everything it returns out of the arena before putting it back.
var arenas = sync.Pool{New: func() any { return regconn.NewArena() }}

// frontends is the process-wide memo behind RunPoint: every Runner in a
// process shares its front ends. It holds 2 × GOMAXPROCS, the rule of
// rcserve's 2 × Workers, bounded once per process, not once per Runner.
var frontends = NewFrontends(2 * runtime.GOMAXPROCS(0))

// RunPoint is the uncached build+simulate+verify of one data point,
// canceled through ctx. Its front end comes from one process-wide memo
// (see Frontends: within a process, a benchmark's name must identify its
// program), which checked the benchmark's known answer when it compiled
// the front end. Every point also runs the static map-state verifier
// (Arch.Verify): a sweep result is only reported for code rclint proved
// correct. Its run is checked against the interpreter oracle, and the
// simulator checks its cycle ledger, so a simulator change that loses
// cycles fails the whole figure. It is the execution primitive behind
// Runner.Run; the serve daemon's cold path is the same method on its own
// memo. When the context
// carries an obs span (a traced rcserve request), the build and execute
// phases open child spans; with no span in the context the
// instrumentation is nil no-ops.
func RunPoint(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	return frontends.RunPoint(ctx, bm, arch)
}

// Build compiles one point, its front end taken (and its answer checked)
// from the process-wide memo behind RunPoint, and leaves Arch.Verify as
// given. It is the build of the in-process grids that check an executable
// their own way (rclint, rcprof -grid and -models, rcgen smoke's trace
// round trip), so their points share front ends with each other and with
// RunPoint's.
func Build(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*regconn.Executable, error) {
	return frontends.Build(ctx, bm, arch)
}

// Build is the package-level Build with the point's front end taken from
// m. Its build span covers the front-end lookup and the back end, and its
// frontend attribute says whether the front end was compiled or reused.
func (m *Frontends) Build(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*regconn.Executable, error) {
	_, span := obs.StartSpan(ctx, "build")
	defer span.End()
	fe, reused, err := m.frontend(ctx, bm, arch)
	if err != nil {
		return nil, err
	}
	how := "compiled"
	if reused {
		how = "reused"
	}
	span.Set("frontend", how)
	if m.Observe != nil {
		m.Observe(how)
	}
	return fe.Build(arch)
}

// RunPoint is the package-level RunPoint on m's front ends: Build with
// Arch.Verify forced on, then the oracle-checked simulation.
func (m *Frontends) RunPoint(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
	arch.Verify = true
	ex, err := m.Build(ctx, bm, arch)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bm.Name, err)
	}
	arena := arenas.Get().(*regconn.Arena)
	defer arenas.Put(arena)
	execCtx, execSpan := obs.StartSpan(ctx, "execute")
	res, err := arena.VerifyContext(execCtx, ex)
	if err == nil {
		execSpan.Set("cycles", res.Cycles).Set("instrs", res.Instrs)
	}
	execSpan.End()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", bm.Name, err)
	}
	// res aliases the pooled arena: everything returned is copied out here
	// (Stats deep-copies the histogram and map-telemetry slices).
	return &Result{
		Cycles:   res.Cycles,
		Instrs:   res.Instrs,
		Connects: res.Connects,
		Growth:   ex.CodeGrowth(),
		SaveRest: ex.SaveRestoreGrowth(),
		Demand:   demand(ex, bm.FP),
		Stats:    res.Stats(),
	}, nil
}

// demand returns ex's register demand in the integer or floating-point
// class: the most distinct registers plus spill slots the allocator
// assigned that class in any one function. One bitset, cleared between
// functions, holds register n as bit 2n and spill slot n as bit 2n+1.
func demand(ex *regconn.Executable, fp bool) int {
	class := isa.ClassInt
	if fp {
		class = isa.ClassFloat
	}
	var set []uint64
	most := 0
	for _, a := range ex.Alloc.ByFunc {
		clear(set)
		n := 0
		for r, loc := range a.Loc {
			if r.Class != class || loc.Kind == regalloc.LocNone {
				continue
			}
			bit := 2 * loc.N
			if loc.Kind == regalloc.LocSpill {
				bit++
			}
			for bit>>6 >= len(set) {
				set = append(set, 0)
			}
			if m := uint64(1) << (bit & 63); set[bit>>6]&m == 0 {
				set[bit>>6] |= m
				n++
			}
		}
		most = max(most, n)
	}
	return most
}

// point is one benchmark×architecture coordinate of an experiment's grid.
type point struct {
	bm   bench.Benchmark
	arch regconn.Arch
}

// cell is one table value: the point it reads and how the value is read
// from the point's Result. A nil read makes it a speedup cell.
type cell struct {
	arch regconn.Arch
	read func(*Result) (float64, error)
}

// speedups returns one speedup cell per architecture: the §5.3 baseline's
// cycles (a single-issue processor with unlimited registers and scalar
// optimization only) over the point's cycles.
func speedups(archs ...regconn.Arch) []cell {
	cells := make([]cell, len(archs))
	for i, a := range archs {
		cells[i] = cell{arch: a}
	}
	return cells
}

// stat returns a cell that reads f off the point's Result.
func stat(a regconn.Arch, f func(*Result) float64) cell {
	return cell{a, func(res *Result) (float64, error) { return f(res), nil }}
}

// row is one table line as an experiment states it, once: its name, its
// benchmark and its cells.
type row struct {
	name  string
	bm    bench.Benchmark
	cells []cell
}

// workers returns the effective worker-pool size.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// eval is the grid evaluator every simulated experiment goes through. Its
// first pass collects the rows' distinct points in row order, each
// benchmark's baseline ahead of its first speedup cell, and simulates them
// across the worker pool (prefetch). Its second pass reads the values in
// row order and returns the first error in row order, so neither values
// nor errors depend on Workers.
func (r *Runner) eval(rows []row) ([]Row, error) {
	var pts []point
	for _, rw := range rows {
		for _, c := range rw.cells {
			if c.read == nil {
				pts = append(pts, point{rw.bm, regconn.Baseline()})
			}
			pts = append(pts, point{rw.bm, c.arch})
		}
	}
	r.prefetch(pts)
	var out []Row
	for _, rw := range rows {
		vals := make([]float64, len(rw.cells))
		for i, c := range rw.cells {
			v, err := r.value(rw.bm, c)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		out = append(out, Row{rw.name, vals})
	}
	return out, nil
}

// value reads one cell; a speedup cell reads the baseline first.
func (r *Runner) value(bm bench.Benchmark, c cell) (float64, error) {
	var base *Result
	if c.read == nil {
		var err error
		if base, err = r.Run(bm, regconn.Baseline()); err != nil {
			return 0, err
		}
	}
	res, err := r.Run(bm, c.arch)
	if err != nil {
		return 0, err
	}
	if c.read == nil {
		return float64(base.Cycles) / float64(res.Cycles), nil
	}
	return c.read(res)
}

// prefetch simulates the distinct points of pts, in order, across the
// worker pool, so the reads that follow hit the memo; errors stay memoized
// for those reads to report. Progress ticks once per distinct point.
func (r *Runner) prefetch(pts []point) {
	seen := make(map[string]bool, len(pts))
	var uniq []point
	for _, p := range pts {
		if k := key(p.bm.Name, p.arch); !seen[k] {
			seen[k] = true
			uniq = append(uniq, p)
		}
	}
	var done atomic.Int64
	ForEach(r.workers(), len(uniq), func(i int) {
		_, _ = r.Run(uniq[i].bm, uniq[i].arch)
		if r.Progress != nil {
			r.Progress(int(done.Add(1)), len(uniq))
		}
	})
}

// ForEach calls f(i) for every i in [0, n) on min(max(workers, 1), n)
// goroutines, which take the indices in order, and returns when every
// call has. It is the worker pool of the grid evaluator and of the
// command-line grids that build through the front-end memo (rclint,
// rcprof -grid): handing the points out in grid order keeps the points
// that share a front end close together. f must be safe for concurrent
// use.
func ForEach(workers, n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(max(workers, 1), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// tabulate states one row per benchmark of bms, named after it and holding
// the cells cellsOf returns, evaluates the rows into t and, when mean is
// set, closes t with the geomean row.
func (r *Runner) tabulate(t *Table, mean bool, bms []bench.Benchmark, cellsOf func(bench.Benchmark) []cell) (*Table, error) {
	var rows []row
	for _, bm := range bms {
		rows = append(rows, row{bm.Name, bm, cellsOf(bm)})
	}
	var err error
	if t.Rows, err = r.eval(rows); err != nil {
		return nil, err
	}
	if mean {
		t.AddMeanRow()
	}
	return t, nil
}

// archFor applies the paper's per-class convention (§5.2): integer
// benchmarks vary the integer core with a fixed 64-entry FP file; FP
// benchmarks vary the FP core with a fixed 64-entry integer file.
func archFor(bm bench.Benchmark, core int, base regconn.Arch) regconn.Arch {
	if bm.FP {
		base.FPCore = core
		base.IntCore = 64
	} else {
		base.IntCore = core
		base.FPCore = 64
	}
	return base
}

// sweepArch is the shared sweep-grid constructor: it stamps the register
// mode onto a base configuration and applies archFor's per-class core-size
// convention. Every figure's grid — and the golden ledger grid — is a
// partial application of it, so a sweep axis is added in exactly one
// place.
func sweepArch(bm bench.Benchmark, core int, mode regconn.RegMode, base regconn.Arch) regconn.Arch {
	base.Mode = mode
	return archFor(bm, core, base)
}

// IntCores and FPCores are the experimental register-file sizes of §5.2.
var (
	IntCores = []int{8, 16, 24, 32, 64}
	FPCores  = []int{16, 32, 48, 64, 128}
)

// coresFor returns the core-size axis for a benchmark's class.
func coresFor(bm bench.Benchmark) []int {
	if bm.FP {
		return FPCores
	}
	return IntCores
}

// Table is one reproduced table/figure.
type Table struct {
	ID    string // "fig8", "table1", ...
	Title string
	Cols  []string
	Rows  []Row
	Notes []string
}

// Row is one table line.
type Row struct {
	Name string
	Vals []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, vals ...float64) {
	t.Rows = append(t.Rows, Row{name, vals})
}

// AddMeanRow appends a geometric-mean summary row over the current rows.
func (t *Table) AddMeanRow() {
	if len(t.Rows) == 0 {
		return
	}
	n := len(t.Rows[0].Vals)
	vals := make([]float64, n)
	for c := 0; c < n; c++ {
		logSum, cnt := 0.0, 0
		for _, r := range t.Rows {
			if c < len(r.Vals) && r.Vals[c] > 0 {
				logSum += math.Log(r.Vals[c])
				cnt++
			}
		}
		if cnt > 0 {
			vals[c] = math.Exp(logSum / float64(cnt))
		}
	}
	t.Rows = append(t.Rows, Row{"geomean", vals})
}

// CSV renders the table as comma-separated values (header row first) for
// plotting tools.
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark")
	for _, c := range t.Cols {
		sb.WriteByte(',')
		sb.WriteString(c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		sb.WriteString(r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&sb, ",%.4f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Format renders the table as aligned ASCII text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", strings.ToUpper(t.ID), t.Title)
	w := 8
	for _, c := range t.Cols {
		if len(c)+2 > w {
			w = len(c) + 2
		}
	}
	nameW := 10
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	fmt.Fprintf(&sb, "%-*s", nameW+2, "benchmark")
	for _, c := range t.Cols {
		fmt.Fprintf(&sb, "%*s", w, c)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", nameW+2+w*len(t.Cols)))
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-*s", nameW+2, r.Name)
		for _, v := range r.Vals {
			fmt.Fprintf(&sb, "%*.2f", w, v)
		}
		sb.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// ErrUnknownExperiment is wrapped by Generate when the experiment id is
// not in Experiments(); callers branch with errors.Is (a bad id is the
// client's fault, a failed generation is ours).
var ErrUnknownExperiment = errors.New("unknown experiment")

// experiments is the experiment table: each reproducible experiment's id
// and generator, in the order Experiments lists them.
var experiments = []struct {
	id  string
	gen func(*Runner) ([]*Table, error)
}{
	{"table1", func(*Runner) ([]*Table, error) { return []*Table{Table1()}, nil }},
	{"fig7", one((*Runner).Figure7)},
	{"fig8", (*Runner).Figure8},
	{"fig9", (*Runner).Figure9},
	{"fig10", one((*Runner).Figure10)},
	{"fig11", one((*Runner).Figure11)},
	{"fig12", one((*Runner).Figure12)},
	{"fig13", one((*Runner).Figure13)},
	{"rivals", one((*Runner).Rivals)},
	{"models", one((*Runner).AblationModels)},
	{"combined", one((*Runner).AblationCombined)},
	{"windows", one((*Runner).AblationWindows)},
	{"os", one((*Runner).AblationOS)},
	{"pressure", one((*Runner).AblationPressure)},
	{"accum", one((*Runner).AblationAccum)},
	{"scenarios", one(func(r *Runner) (*Table, error) { return r.Scenarios(ScenarioConfig{}) })},
}

// one adapts a one-table generator to the experiment table.
func one(gen func(*Runner) (*Table, error)) func(*Runner) ([]*Table, error) {
	return func(r *Runner) ([]*Table, error) {
		t, err := gen(r)
		return []*Table{t}, err
	}
}

// Experiments lists every reproducible experiment by id.
func Experiments() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// Generate dispatches on an experiment id.
func (r *Runner) Generate(id string) ([]*Table, error) {
	for _, e := range experiments {
		if e.id == id {
			return e.gen(r)
		}
	}
	ids := strings.Join(Experiments(), ", ")
	return nil, fmt.Errorf("exp: %w %q (have: %s)", ErrUnknownExperiment, id, ids)
}

// sortedBench returns the runner's suite in stable order.
func (r *Runner) sortedBench() []bench.Benchmark {
	out := append([]bench.Benchmark(nil), r.Benchmarks...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FP != out[j].FP {
			return !out[i].FP
		}
		return false // preserve suite order within class
	})
	return out
}
