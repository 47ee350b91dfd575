// Command rcprof is the attribution profiler: it simulates a benchmark
// with per-PC cycle attribution enabled and reports where the cycles went
// — hottest static instructions, basic blocks, per-function stall tables,
// and connect overhead per virtual register — every number provably
// summing back to the run's cycle ledger (the simulator refuses a run
// whose attribution does not, and every profiled run is verified against
// the interpreter oracle).
//
// Usage:
//
//	rcprof -bench grep [-issue 4] [-load 2] [-channels 0] [-intcore 16]
//	       [-fpcore 32] [-mode rc|spill|unlimited|portreduce|chain] [-model 3]
//	       [-connect-latency 0] [-no-combine] [-scalar] [-top 20]
//	rcprof -bench grep -models              connect overhead across the 4 reset models
//	rcprof -bench grep -trace-json t.json   Chrome trace-event export (chrome://tracing)
//	rcprof -grid [-workers n]               profile the 48-point golden grid
//
// -grid sweeps every benchmark × ledger configuration of the golden grid
// with profiling on and fails loudly if any point's per-PC attribution
// does not sum bit-exactly to its ledger buckets (the `make prof` gate).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"text/tabwriter"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/cli"
	"regconn/internal/core"
	"regconn/internal/exp"
	"regconn/internal/machine"
	"regconn/internal/prof"
	"regconn/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcprof:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bmName    = flag.String("bench", "grep", "benchmark name or generated workload (gen/<profile>/<seed>)")
		archOf    = cli.ArchFlags(flag.CommandLine)
		load      = flag.Int("load", 2, "load latency in cycles (2 or 4)")
		channels  = flag.Int("channels", 0, "memory channels (0 = paper default)")
		connLat   = flag.Int("connect-latency", 0, "connect latency (0 or 1)")
		noComb    = flag.Bool("no-combine", false, "disable combined connects")
		scalar    = flag.Bool("scalar", false, "scalar optimization only (no ILP)")
		top       = flag.Int("top", 20, "rows in the top-PC and top-block tables")
		models    = flag.Bool("models", false, "compare connect overhead across reset models 1..4")
		traceJSON = flag.String("trace-json", "", "write a Chrome trace-event JSON file and exit")
		eventCap  = flag.Int("event-cap", machine.DefaultEventCap, "event ring capacity for -trace-json")
		grid      = flag.Bool("grid", false, "cross-check attribution over the golden benchmark grid")
		quick     = flag.Bool("quick", false, "with -grid: reduced three-benchmark suite")
		workers   = flag.Int("workers", 0, "with -grid: worker pool size (0 = all CPUs)")
	)
	flag.Parse()

	if *grid {
		return runGrid(*quick, *workers)
	}

	bm, err := workload.ByName(*bmName)
	if err != nil {
		return err
	}
	arch, err := archOf()
	if err != nil {
		return err
	}
	arch.MemChannels = *channels
	arch.LoadLatency = *load
	arch.ConnectLatency = *connLat
	arch.CombineConnects = !*noComb
	arch.ScalarOnly = *scalar
	arch.Profile = true

	if *models {
		return compareModels(bm, arch)
	}

	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		return err
	}

	if *traceJSON != "" {
		ring := machine.NewEventRing(*eventCap)
		if _, err := ex.Verify(ring); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := ring.WriteTraceJSON(&buf, ex.Image); err != nil {
			return err
		}
		if err := os.WriteFile(*traceJSON, buf.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Printf("rcprof: wrote %s (%d events, %d dropped; open in chrome://tracing or ui.perfetto.dev)\n",
			*traceJSON, len(ring.Events()), ring.Dropped())
		return nil
	}

	res, err := ex.Verify()
	if err != nil {
		return err
	}
	p, err := prof.New(ex.Image, res)
	if err != nil {
		return err
	}
	fmt.Printf("benchmark %s, %s\n", bm.Name, arch.Mode)
	return p.WriteReport(os.Stdout, *top)
}

// compareModels profiles the benchmark under each of the four automatic-
// reset models and tabulates the connect overhead the profiler attributes
// to each — the per-model cost of the register-connection mechanism.
func compareModels(bm bench.Benchmark, arch regconn.Arch) error {
	arch.Mode = regconn.WithRC
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "model\tcycles\tconnects\tconnect-cycles\tconn-stall\toverhead\n")
	for m := core.NoReset; m <= core.ReadWriteReset; m++ {
		a := arch
		a.Model = m
		ex, err := exp.Build(context.Background(), bm, a)
		if err != nil {
			return fmt.Errorf("model %d: %w", m, err)
		}
		res, err := ex.Verify()
		if err != nil {
			return fmt.Errorf("model %d: %w", m, err)
		}
		p, err := prof.New(ex.Image, res)
		if err != nil {
			return fmt.Errorf("model %d: %w", m, err)
		}
		co := p.ConnectOverhead()
		overhead := co.Cycles + res.StallConn
		fmt.Fprintf(tw, "%d (%v)\t%d\t%d\t%d\t%d\t%.1f%%\n",
			int(m), m, res.Cycles, res.Connects, co.Cycles, res.StallConn,
			100*float64(overhead)/float64(res.ActiveCycles))
	}
	return tw.Flush()
}

// runGrid profiles every golden benchmark×config point; the simulator
// checks on each that the per-PC attribution sums bit-exactly to the
// ledger buckets.
func runGrid(quick bool, workers int) error {
	benches := bench.All()
	if quick {
		benches = exp.NewQuickRunner().Benchmarks
	}
	type job struct {
		bm bench.Benchmark
		lc exp.LedgerConfig
	}
	var jobs []job
	for _, bm := range benches {
		for _, lc := range exp.LedgerConfigs(bm) {
			jobs = append(jobs, job{bm, lc})
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lines := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	exp.ForEach(workers, len(jobs), func(i int) {
		var err error
		if lines[i], err = gridPoint(jobs[i].bm, jobs[i].lc); err != nil {
			errs[i] = fmt.Errorf("%s/%s: %w", jobs[i].bm.Name, jobs[i].lc.Name, err)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("rcprof: %d grid points profiled, every per-PC attribution sums to its ledger bucket\n", len(jobs))
	return nil
}

// gridPoint builds one grid point through the front-end memo, profiles a
// verified run of it and returns its report line.
func gridPoint(bm bench.Benchmark, lc exp.LedgerConfig) (string, error) {
	a := lc.Arch
	a.Profile = true
	ex, err := exp.Build(context.Background(), bm, a)
	if err != nil {
		return "", err
	}
	res, err := ex.Verify()
	if err != nil {
		return "", err
	}
	p, err := prof.New(ex.Image, res)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("ok %-10s %-14s cycles=%-9d connects=%-7d connect-cycles=%d",
		bm.Name, lc.Name, res.Cycles, res.Connects, p.ConnectOverhead().Cycles), nil
}
