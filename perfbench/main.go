// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed in a single process: closed-loop, one client per
// CPU, over a fixed op sequence derived from the seed; it checks every
// output and prints the end-to-end metrics by name, unit and direction.
// With --trace 1 it instead makes the separate traced run and prints the
// per-layer metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"setup_s": {"value": 1.2, "unit": "s"}, ...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// It reaches the program only through the packages' exported APIs
// (exp.Runner, serve.New behind httptest, regconn, workload, interp,
// store, obs). README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		stop()
		os.Exit(1)
	}
}

// run parses the flags, runs the workload and prints the report.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: sweep-cold, gen-cold, replay-cold or serve-warm")
	seed := fs.Int64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 24, "timed-phase length; the phase ends on a whole pass")
	trace := fs.Int("trace", 0, "0 = timed run, end-to-end metrics; 1 = traced run, per-layer metrics")
	scratch := fs.String("scratch", ".bench_build", "directory for stores and the Chrome trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *seconds <= 0:
		return errors.New("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		return err
	}
	e := env{seed: *seed, clients: runtime.NumCPU(), scratch: *scratch}
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(ctx, w, e, 0)
	} else {
		rep, err = timedRun(ctx, w, e, setupRuns, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	rep.notes = append([]string{"why: " + w.why}, rep.notes...)
	return rep.print(stdout)
}

// metric is one reported value.
type metric struct {
	name, unit, better string
	value              float64
	note               string
}

// report is one run's result.
type report struct {
	workload          string
	seed              int64
	trace             bool
	attempted, failed int
	digest            string
	notes             []string
	errs              []string
	metrics           []metric
}

// result is the JSON last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and then the JSON line.
// error_rate is printed with the metrics; the JSON carries it as failed
// over attempted.
func (r *report) print(w io.Writer) error {
	mode := "timed run, end-to-end metrics"
	if r.trace {
		mode = "traced run, per-layer metrics"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s)\n", r.workload, r.seed, mode)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, e := range r.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	fmt.Fprintf(w, "digest: %s\n", r.digest)
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueInUnit{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-26s %14.6g %-10s %-6s  %s\n", m.name, m.value, m.unit, m.better, m.note)
		res.Metrics[m.name] = valueInUnit{m.value, m.unit}
	}
	errorRate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "metric %-26s %14.6g %-10s %-6s  failed %d / attempted %d\n", "error_rate", errorRate, "ratio", "lower", r.failed, r.attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
