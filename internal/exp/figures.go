package exp

import (
	"fmt"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/core"
	"regconn/internal/isa"
)

// Table1 reproduces the instruction-latency table (configuration, not
// measurement).
func Table1() *Table {
	l := isa.DefaultLatencies(2)
	t := &Table{
		ID:    "table1",
		Title: "Instruction latencies",
		Cols:  []string{"latency"},
		Notes: []string{"memory load latency is the experimental variable: 2 or 4 cycles",
			"branch is 1 cycle; the 1-slot cost is modeled by static prediction + misprediction flush"},
	}
	t.AddRow("INT ALU", float64(l.IntALU))
	t.AddRow("INT multiply", float64(l.IntMul))
	t.AddRow("INT divide", float64(l.IntDiv))
	t.AddRow("FP ALU", float64(l.FPALU))
	t.AddRow("FP conversion", float64(l.FPConv))
	t.AddRow("FP multiply", float64(l.FPMul))
	t.AddRow("FP divide", float64(l.FPDiv))
	t.AddRow("branch", float64(l.Branch))
	t.AddRow("memory load", 2)
	t.AddRow("memory store", float64(l.Store))
	return t
}

// Figure7 reproduces the unlimited-register speedups for issue rates
// 1/2/4/8 with the paper's default memory channels.
func (r *Runner) Figure7() (*Table, error) {
	t := &Table{
		ID:    "fig7",
		Title: "Speedup, unlimited registers, varying issue rate and memory channels",
		Cols:  []string{"1-issue", "2-issue", "4-issue", "8-issue"},
		Notes: []string{"2 memory channels for 1/2/4-issue, 4 for 8-issue (§5.2)",
			"baseline: 1-issue, unlimited registers, scalar optimization only"},
	}
	return r.tabulate(t, true, r.sortedBench(), func(bm bench.Benchmark) []cell {
		var archs []regconn.Arch
		for _, is := range []int{1, 2, 4, 8} {
			archs = append(archs, regconn.Arch{Issue: is, LoadLatency: 2, Mode: regconn.Unlimited})
		}
		return speedups(archs...)
	})
}

// coreTables evaluates the Figure 8/9 grid in one call. Per benchmark it
// states one row per core size, with the cells of(noRC, rc) over the
// 4-issue, 2-cycle-load without-RC and with-RC points, then one row of the
// tail cells when tail is set; mk turns each benchmark's rows into its
// table.
func (r *Runner) coreTables(of func(noRC, rc regconn.Arch) []cell, tail []cell,
	mk func(bm bench.Benchmark, rows []Row) *Table) ([]*Table, error) {
	base := regconn.Arch{Issue: 4, LoadLatency: 2, CombineConnects: true}
	var rows []row
	for _, bm := range r.sortedBench() {
		for _, m := range coresFor(bm) {
			rows = append(rows, row{fmt.Sprintf("%s/m=%d", bm.Name, m), bm,
				of(sweepArch(bm, m, regconn.WithoutRC, base), sweepArch(bm, m, regconn.WithRC, base))})
		}
		if tail != nil {
			rows = append(rows, row{bm.Name, bm, tail})
		}
	}
	vals, err := r.eval(rows)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, bm := range r.sortedBench() {
		n := len(coresFor(bm))
		if tail != nil {
			n++
		}
		tables = append(tables, mk(bm, vals[:n:n]))
		vals = vals[n:]
	}
	return tables, nil
}

// Figure8 reproduces speedup vs core register count for a 4-issue
// processor with 2-cycle loads: without-RC and with-RC per size, with the
// unlimited-register speedup as the dotted-line reference.
func (r *Runner) Figure8() ([]*Table, error) {
	unl := speedups(regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.Unlimited})
	return r.coreTables(func(noRC, rc regconn.Arch) []cell { return speedups(noRC, rc) }, unl,
		func(bm bench.Benchmark, rows []Row) *Table {
			n := len(rows) - 1
			return &Table{
				ID:    "fig8",
				Title: fmt.Sprintf("Speedup vs core registers, 4-issue, 2-cycle load — %s (%s)", bm.Name, bm.Paper),
				Cols:  []string{"without-RC", "with-RC"},
				Rows:  rows[:n:n],
				Notes: []string{fmt.Sprintf("unlimited-register speedup (dotted line): %.2f", rows[n].Vals[0])},
			}
		})
}

// Figure9 reproduces the percentage code-size increase due to register
// allocation for the Figure 8 grid; the with-RC save/restore share is the
// black portion of the paper's bars.
func (r *Runner) Figure9() ([]*Table, error) {
	growth := func(res *Result) float64 { return res.Growth * 100 }
	return r.coreTables(func(noRC, rc regconn.Arch) []cell {
		return []cell{stat(noRC, growth), stat(rc, growth), stat(rc, func(res *Result) float64 { return res.SaveRest * 100 })}
	}, nil, func(bm bench.Benchmark, rows []Row) *Table {
		return &Table{
			ID:    "fig9",
			Title: fmt.Sprintf("%% code-size increase after allocation — %s (%s)", bm.Name, bm.Paper),
			Cols:  []string{"without-RC%", "with-RC%", "save/rest%"},
			Rows:  rows,
		}
	})
}

// figure1011 is the shared shape of Figures 10 and 11: 16 core integer /
// 32 core FP registers, issue rates 2/4/8, at the given load latency.
func (r *Runner) figure1011(id string, load int) (*Table, error) {
	t := &Table{
		ID:    id,
		Title: fmt.Sprintf("Speedup, %d-cycle load, 16 int / 32 fp cores, varying issue rate", load),
		Cols:  []string{"2/noRC", "2/RC", "4/noRC", "4/RC", "8/noRC", "8/RC", "unlim-4"},
	}
	return r.tabulate(t, true, r.sortedBench(), func(bm bench.Benchmark) []cell {
		var archs []regconn.Arch
		for _, is := range []int{2, 4, 8} {
			base := regconn.Arch{Issue: is, LoadLatency: load, CombineConnects: true}
			archs = append(archs, sweepArch(bm, core1632(bm), regconn.WithoutRC, base),
				sweepArch(bm, core1632(bm), regconn.WithRC, base))
		}
		return speedups(append(archs, regconn.Arch{Issue: 4, LoadLatency: load, Mode: regconn.Unlimited})...)
	})
}

// Figure10 is the 2-cycle-load issue-rate sweep.
func (r *Runner) Figure10() (*Table, error) { return r.figure1011("fig10", 2) }

// Figure11 is the 4-cycle-load issue-rate sweep.
func (r *Runner) Figure11() (*Table, error) { return r.figure1011("fig11", 4) }

// Figure12 compares the four RC implementation scenarios: zero-cycle
// connects, zero-cycle plus an extra decode stage, one-cycle connects, and
// one-cycle plus the extra stage.
func (r *Runner) Figure12() (*Table, error) {
	t := &Table{
		ID:    "fig12",
		Title: "Speedup by RC implementation scenario, 4-issue, 2-cycle load, 16/32 cores",
		Cols:  []string{"0cy", "0cy+stage", "1cy", "1cy+stage", "without-RC"},
	}
	return r.tabulate(t, true, r.sortedBench(), func(bm bench.Benchmark) []cell {
		var archs []regconn.Arch
		for _, sc := range []struct {
			lat   int
			stage bool
		}{{0, false}, {0, true}, {1, false}, {1, true}} {
			archs = append(archs, archFor(bm, core1632(bm), regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC,
				CombineConnects: true, ConnectLatency: sc.lat, ExtraDecodeStage: sc.stage}))
		}
		return speedups(append(archs, archFor(bm, core1632(bm), regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithoutRC}))...)
	})
}

// Figure13 compares the gain from doubling memory channels (2 to 4)
// against the gain from adding RC, for a 4-issue processor at both load
// latencies.
func (r *Runner) Figure13() (*Table, error) {
	t := &Table{
		ID:    "fig13",
		Title: "Speedup: memory channels vs RC, 4-issue, 2- and 4-cycle load, 16/32 cores",
		Cols:  []string{"L2/no/2ch", "L2/no/4ch", "L2/RC/2ch", "L4/no/2ch", "L4/no/4ch", "L4/RC/2ch"},
		Notes: []string{"paper's comparison: the without-RC model gains less from 2->4 channels than from adding RC at 2 channels"},
	}
	return r.tabulate(t, true, r.sortedBench(), func(bm bench.Benchmark) []cell {
		var archs []regconn.Arch
		for _, load := range []int{2, 4} {
			for _, cfg := range []struct {
				mode regconn.RegMode
				ch   int
			}{{regconn.WithoutRC, 2}, {regconn.WithoutRC, 4}, {regconn.WithRC, 2}} {
				archs = append(archs, sweepArch(bm, core1632(bm), cfg.mode, regconn.Arch{Issue: 4, LoadLatency: load,
					MemChannels: cfg.ch, CombineConnects: true}))
			}
		}
		return speedups(archs...)
	})
}

// backendCells is the rivals row of one benchmark: the speedup under each
// register backend at the pressured 16/32-core operating point, then the
// unlimited-register reference.
func backendCells(bm bench.Benchmark) []cell {
	base := regconn.Arch{Issue: 4, LoadLatency: 2, CombineConnects: true}
	var archs []regconn.Arch
	for _, m := range []regconn.RegMode{regconn.WithoutRC, regconn.WithRC, regconn.PortReduce, regconn.Chain} {
		archs = append(archs, sweepArch(bm, core1632(bm), m, base))
	}
	return speedups(append(archs, regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.Unlimited})...)
}

// Rivals compares the five register architectures at the paper's pressured
// 16/32-core operating point: spill-only and RC from the paper, the two
// extension backends (reduced read ports; producer-consumer chaining), and
// the unlimited-register reference.
func (r *Runner) Rivals() (*Table, error) {
	t := &Table{
		ID:    "rivals",
		Title: "Speedup by register backend, 4-issue, 2-cycle load, 16/32 cores",
		Cols:  []string{"spill", "rc", "portreduce", "chain", "unlimited"},
		Notes: []string{
			"portreduce: the full 256-register file addressed directly, read ports = issue rate",
			"chain: core registers only, plus producer->consumer forwarding that elides single-use RF traffic",
		},
	}
	return r.tabulate(t, true, r.sortedBench(), backendCells)
}

// speedupsAndConnects is the ablation row: the speedup at each
// architecture, then its dynamic connect count in units of 10,000.
func speedupsAndConnects(archs ...regconn.Arch) []cell {
	cells := speedups(archs...)
	for _, a := range archs {
		cells = append(cells, stat(a, func(res *Result) float64 { return float64(res.Connects) / 10000 }))
	}
	return cells
}

// AblationModels compares the four automatic-reset models of §2.3 under
// identical pressure: speedup and dynamic connect counts.
func (r *Runner) AblationModels() (*Table, error) {
	t := &Table{
		ID:    "models",
		Title: "RC automatic-reset models (§2.3): speedup | dynamic connects (millions x0.01)",
		Cols:  []string{"m1", "m2", "m3", "m4", "m1-con", "m2-con", "m3-con", "m4-con"},
		Notes: []string{"model 3 (write reset + read update) is the paper's choice"},
	}
	return r.tabulate(t, false, r.sortedBench(), func(bm bench.Benchmark) []cell {
		var archs []regconn.Arch
		for model := core.Model(1); model <= 4; model++ {
			archs = append(archs, archFor(bm, core1632(bm), regconn.Arch{Issue: 4, LoadLatency: 2,
				Mode: regconn.WithRC, CombineConnects: true, Model: model}))
		}
		return speedupsAndConnects(archs...)
	})
}

// AblationCombined compares combined (two-pair) connect instructions
// against single-pair connects (§2.2, footnote 1).
func (r *Runner) AblationCombined() (*Table, error) {
	t := &Table{
		ID:    "combined",
		Title: "Combined vs single connect instructions (§2.2)",
		Cols:  []string{"combined", "single", "comb-con", "sing-con"},
	}
	return r.tabulate(t, false, r.sortedBench(), func(bm bench.Benchmark) []cell {
		mkArch := func(combine bool) regconn.Arch {
			return archFor(bm, core1632(bm), regconn.Arch{Issue: 4, LoadLatency: 2,
				Mode: regconn.WithRC, CombineConnects: combine})
		}
		return speedupsAndConnects(mkArch(true), mkArch(false))
	})
}

// AblationWindows compares connect-window selection policies (§3: the map
// entry used to access an extended register is arbitrary for correctness
// but shapes the artificial dependences and the connect count).
func (r *Runner) AblationWindows() (*Table, error) {
	t := &Table{
		ID:    "windows",
		Title: "Connect-window policy (§3): speedup | dynamic connects (x0.01M), 4-issue, 16/32 cores",
		Cols:  []string{"lru", "rrobin", "first", "lru-con", "rrobin-con", "first-con"},
	}
	return r.tabulate(t, false, r.sortedBench(), func(bm bench.Benchmark) []cell {
		var archs []regconn.Arch
		for _, pol := range []regconn.WindowPolicy{regconn.WindowLRU, regconn.WindowRoundRobin, regconn.WindowFirstFree} {
			archs = append(archs, archFor(bm, core1632(bm), regconn.Arch{Issue: 4, LoadLatency: 2,
				Mode: regconn.WithRC, CombineConnects: true, Windows: pol}))
		}
		return speedupsAndConnects(archs...)
	})
}

// core1632 is the paper's pressured operating point: 16 integer or 32
// floating-point core registers by benchmark class.
func core1632(bm bench.Benchmark) int {
	if bm.FP {
		return 32
	}
	return 16
}
