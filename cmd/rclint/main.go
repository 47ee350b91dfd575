// Command rclint sweeps the benchmark suite across register backends, RC
// automatic-reset models, and connect-combining settings, running the
// static map-state verifier (internal/mapcheck) on every compiled program
// and reporting each violation with its function and instruction index.
//
// Usage:
//
//	rclint [-bench all|name,name] [-backends all|name,name] [-issue 1,4,8]
//	       [-intcore 16] [-fpcore 32] [-quick] [-workers N] [-v]
//
// The default grid is every benchmark × every registered backend × the
// requested issue rates, with rc additionally expanded over its 4 reset
// models × combine on/off and portreduce over two read-port widths — the
// full correctness surface of the code generator and scheduler. -backends
// restricts the sweep to a backend subset (registry names); -quick
// restricts it to one issue rate and the evaluated model 3 (both combine
// settings). Exit status is 1 when any violation is found.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/bench"
	"regconn/internal/core"
	"regconn/internal/exp"
	"regconn/internal/mapcheck"
	"regconn/internal/workload"
)

type point struct {
	bm   bench.Benchmark
	arch regconn.Arch
	desc string
}

type finding struct {
	desc string
	vs   []mapcheck.Violation
	err  error
}

// errViolations marks a completed sweep that found failures (exit 1, the
// summary is already printed); usageError marks bad flags (exit 2).
var errViolations = errors.New("violations found")

type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

func main() {
	err := run()
	if err == nil {
		return
	}
	if errors.Is(err, errViolations) {
		os.Exit(1) // run already printed the per-point FAIL lines
	}
	fmt.Fprintln(os.Stderr, "rclint:", err)
	var ue usageError
	if errors.As(err, &ue) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run() error {
	var (
		bmList  = flag.String("bench", "all", "benchmarks or gen/<profile>/<seed> workloads to sweep (comma list, or 'all')")
		beList  = flag.String("backends", "all", "backends to sweep (comma list of registry names, or 'all')")
		issues  = flag.String("issue", "1,4,8", "issue rates to sweep (comma list)")
		intCore = flag.Int("intcore", 16, "core integer registers")
		fpCore  = flag.Int("fpcore", 32, "core floating-point registers")
		quick   = flag.Bool("quick", false, "one issue rate, model 3 only")
		windows = flag.String("windows", "lru", "connect-window policy: lru, round-robin, first-free")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel builds, at most GOMAXPROCS (half the front-end memo, so each front end compiles once)")
		verbose = flag.Bool("v", false, "print every point checked")
	)
	flag.Parse()

	bms, err := selectBenchmarks(*bmList)
	if err != nil {
		return usageError{err}
	}
	backends, err := selectBackends(*beList)
	if err != nil {
		return usageError{err}
	}
	rates, err := parseInts(*issues)
	if err != nil {
		return usageError{fmt.Errorf("-issue: %w", err)}
	}
	if *quick {
		rates = rates[:1]
	}
	var winPolicy regconn.WindowPolicy
	switch *windows {
	case "lru":
		winPolicy = regconn.WindowLRU
	case "round-robin":
		winPolicy = regconn.WindowRoundRobin
	case "first-free":
		winPolicy = regconn.WindowFirstFree
	default:
		return usageError{fmt.Errorf("unknown -windows policy %q", *windows)}
	}

	var points []point
	for _, bm := range bms {
		for _, issue := range rates {
			base := regconn.Arch{Issue: issue, LoadLatency: 2, IntCore: *intCore, FPCore: *fpCore,
				Windows: winPolicy}
			for _, cfg := range archGrid(base, *quick, backends) {
				points = append(points, point{bm: bm, arch: cfg.arch,
					desc: fmt.Sprintf("%s %s", bm.Name, cfg.name)})
			}
		}
	}

	// The points of one benchmark and issue rate share a front end, which
	// the memo compiles once while the pool stays inside its bound.
	results := make([]finding, len(points))
	exp.ForEach(min(*workers, runtime.GOMAXPROCS(0)), len(points), func(i int) {
		pt := points[i]
		ex, err := exp.Build(context.Background(), pt.bm, pt.arch)
		if err != nil {
			results[i] = finding{desc: pt.desc, err: err}
			return
		}
		results[i] = finding{desc: pt.desc, vs: ex.MapCheck()}
	})

	bad := 0
	for _, r := range results {
		switch {
		case r.err != nil:
			bad++
			fmt.Printf("FAIL %s: build: %v\n", r.desc, r.err)
		case len(r.vs) > 0:
			bad++
			fmt.Printf("FAIL %s: %d violation(s)\n", r.desc, len(r.vs))
			for _, v := range r.vs {
				fmt.Printf("     %s\n", v)
			}
		case *verbose:
			fmt.Printf("ok   %s\n", r.desc)
		}
	}
	if bad > 0 {
		fmt.Printf("rclint: %d of %d points failed\n", bad, len(points))
		return errViolations
	}
	fmt.Printf("rclint: %d points clean\n", len(points))
	return nil
}

type namedArch struct {
	name string
	arch regconn.Arch
}

// archGrid expands one base architecture into the backend × model ×
// combine grid for the selected backends. Models and combining only exist
// under RC, which contributes its full sub-grid; portreduce is checked at
// two read-port widths; every other backend contributes a single point
// through its name in the backend table.
func archGrid(base regconn.Arch, quick bool, backends []string) []namedArch {
	var out []namedArch
	for _, name := range backends {
		switch name {
		case "spill":
			a := base
			a.Mode = regconn.WithoutRC
			out = append(out, namedArch{fmt.Sprintf("issue%d spill", base.Issue), a})
		case "unlimited":
			a := base
			a.Mode = regconn.Unlimited
			out = append(out, namedArch{fmt.Sprintf("issue%d unlimited", base.Issue), a})
		case "rc":
			models := []core.Model{core.NoReset, core.WriteReset, core.WriteResetReadUpdate, core.ReadWriteReset}
			if quick {
				models = []core.Model{core.WriteResetReadUpdate}
			}
			for _, model := range models {
				for _, combine := range []bool{true, false} {
					a := base
					a.Mode = regconn.WithRC
					a.Model = model
					a.CombineConnects = combine
					out = append(out, namedArch{
						fmt.Sprintf("issue%d rc model%d combine=%v", base.Issue, model, combine), a})
				}
			}
		case "portreduce":
			for _, rp := range []int{0, 2} {
				a := base
				a.Mode = regconn.PortReduce
				a.ReadPorts = rp
				ports := "ports=issue"
				if rp > 0 {
					ports = fmt.Sprintf("ports=%d", rp)
				}
				out = append(out, namedArch{
					fmt.Sprintf("issue%d portreduce %s", base.Issue, ports), a})
			}
		default:
			a := base
			a.Backend = name
			out = append(out, namedArch{fmt.Sprintf("issue%d %s", base.Issue, name), a})
		}
	}
	return out
}

// selectBackends resolves a -backends flag value against the backend
// registry; the accepted-name set and the rejection message both come from
// the registry.
func selectBackends(list string) ([]string, error) {
	if list == "all" {
		return backend.Names(), nil
	}
	var out []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if _, err := backend.ByName(name); err != nil {
			return nil, fmt.Errorf("-backends: %w", err)
		}
		out = append(out, name)
	}
	return out, nil
}

func selectBenchmarks(list string) ([]bench.Benchmark, error) {
	if list == "all" {
		return bench.All(), nil
	}
	var out []bench.Benchmark
	for _, name := range strings.Split(list, ",") {
		bm, err := workload.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, bm)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}
