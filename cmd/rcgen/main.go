// Command rcgen works with generated workloads and instruction traces:
// it lists the scenario-generator profiles, emits replayable traces,
// inspects and replays trace files, and runs the bounded scenario smoke
// that make verify uses to pin the generator against the interpreter
// oracle and the cycle ledger.
//
// Usage:
//
//	rcgen list
//	rcgen emit -profile connect-heavy -seed 42 -o FILE [arch flags]
//	rcgen info FILE
//	rcgen replay FILE
//	rcgen smoke [-seeds 3] [-profiles p1,p2]
//
// Arch flags on emit: -issue, -load, -intcore, -fpcore, -mode,
// -readports, -model. emit accepts -bench NAME instead of
// -profile/-seed to trace a paper benchmark.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"regconn"
	"regconn/internal/cli"
	"regconn/internal/exp"
	"regconn/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = list()
	case "emit":
		err = emit(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "smoke":
		err = smoke(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rcgen: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcgen:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rcgen list                                  list workload profiles
  rcgen emit -profile P -seed N -o FILE       emit a replayable trace
  rcgen info FILE                             describe a trace file
  rcgen replay FILE                           replay and verify a trace
  rcgen smoke [-seeds N] [-profiles p1,p2]    oracle+ledger smoke over profiles`)
}

func list() error {
	for _, pr := range workload.Profiles() {
		kind := "int"
		if pr.FP {
			kind = "fp"
		}
		fmt.Printf("%-18s (%s) %s\n", pr.Name, kind, pr.About)
	}
	return nil
}

// archFlags registers emit's architecture flags, the shared set plus
// -load and -readports, and returns a closure resolving them into an Arch.
func archFlags(fs *flag.FlagSet) func() (regconn.Arch, error) {
	shared := cli.ArchFlags(fs)
	load := fs.Int("load", 2, "load latency")
	ports := fs.Int("readports", 0, "read ports for portreduce (0 = issue rate)")
	return func() (regconn.Arch, error) {
		arch, err := shared()
		arch.LoadLatency, arch.ReadPorts = *load, *ports
		return arch, err
	}
}

func emit(args []string) error {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	profile := fs.String("profile", "", "workload profile (see rcgen list)")
	seed := fs.Int64("seed", 0, "workload seed")
	bmName := fs.String("bench", "", "trace a named benchmark instead of a generated workload")
	out := fs.String("o", "", "output trace file (required)")
	arch := archFlags(fs)
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("emit: -o FILE is required")
	}
	name := *bmName
	if name == "" {
		if *profile == "" {
			return fmt.Errorf("emit: -profile (with -seed) or -bench is required")
		}
		name = workload.Spec{Profile: *profile, Seed: *seed}.Name()
	} else if *profile != "" {
		return fmt.Errorf("emit: -bench and -profile are mutually exclusive")
	}
	a, err := arch()
	if err != nil {
		return err
	}
	bm, err := workload.ByName(name)
	if err != nil {
		return err
	}
	ex, err := regconn.Build(bm.Build(), a)
	if err != nil {
		return err
	}
	tr, err := ex.Trace(bm.Name)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	key, err := tr.Encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\n  workload %s\n  key      %s\n  cycles   %d\n  instrs   %d\n",
		*out, tr.Name, key, tr.Cycles, tr.Instrs)
	return nil
}

// openTrace decodes one trace file named by the remaining args.
func openTrace(sub string, args []string) (*workload.Trace, string, error) {
	if len(args) != 1 {
		return nil, "", fmt.Errorf("%s: exactly one trace file argument required", sub)
	}
	f, err := os.Open(args[0])
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	return workload.DecodeTrace(f)
}

func info(args []string) error {
	tr, key, err := openTrace("info", args)
	if err != nil {
		return err
	}
	fmt.Printf("trace    v%d, key %s\n", workload.TraceVersion, key)
	fmt.Printf("workload %s\n", tr.Name)
	fmt.Printf("arch     %s\n", tr.Arch)
	fmt.Printf("code     %d instructions, entry %s@%d, %d functions\n",
		len(tr.Code), tr.Entry, tr.EntryPC, len(tr.FuncStart))
	fmt.Printf("globals  %d (data digest %s)\n", len(tr.Globals), tr.MemSum)
	fmt.Printf("recorded ret=%d cycles=%d instrs=%d\n", tr.Expect, tr.Cycles, tr.Instrs)
	return nil
}

func replay(args []string) error {
	tr, key, err := openTrace("replay", args)
	if err != nil {
		return err
	}
	res, err := tr.Replay(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("replayed %s (key %s)\n", tr.Name, key)
	fmt.Printf("result   %d (matches recorded oracle)\n", res.RetInt)
	fmt.Printf("cycles   %d (bit-identical to recording)\n", res.Cycles)
	fmt.Printf("instrs   %d (IPC %.2f)\n", res.Instrs, res.IPC())
	return nil
}

// smoke is the bounded CI gate: every profile × the first N seeds is
// generated, interpreter-pinned, and run under a small backend matrix as
// an experiment point (exp.RunPoint: build, map-state check, simulation,
// oracle, checksum and cycle ledger), then round-tripped through the
// trace format with a verified replay. It is what make verify runs.
func smoke(args []string) error {
	fs := flag.NewFlagSet("smoke", flag.ExitOnError)
	seeds := fs.Int64("seeds", 3, "seeds per profile")
	profilesFlag := fs.String("profiles", "", "comma-separated profiles (default all)")
	fs.Parse(args)

	profiles := workload.ProfileNames()
	if *profilesFlag != "" {
		profiles = strings.Split(*profilesFlag, ",")
	}
	archs := []regconn.Arch{
		{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: regconn.WithRC, CombineConnects: true, Verify: true},
		{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: regconn.WithoutRC, Verify: true},
	}
	points := 0
	for _, p := range profiles {
		for seed := int64(0); seed < *seeds; seed++ {
			spec := workload.Spec{Profile: p, Seed: seed}
			bm, err := spec.Generate()
			if err != nil {
				return err
			}
			for _, a := range archs {
				if _, err := exp.RunPoint(context.Background(), bm, a); err != nil {
					return fmt.Errorf("%s backend: %w", a.Mode, err)
				}
				points++
			}
			// Round-trip the RC point through the trace format: encode,
			// decode, replay — which re-verifies the recorded oracle
			// outcome and the bit-exact cycle count. The build reuses the
			// front end RunPoint just compiled.
			ex, err := exp.Build(context.Background(), bm, archs[0])
			if err != nil {
				return err
			}
			tr, err := ex.Trace(bm.Name)
			if err != nil {
				return err
			}
			var buf strings.Builder
			if _, err := tr.Encode(&buf); err != nil {
				return err
			}
			dt, _, err := workload.DecodeTrace(strings.NewReader(buf.String()))
			if err != nil {
				return fmt.Errorf("%s: trace round-trip: %w", bm.Name, err)
			}
			if _, err := dt.Replay(context.Background()); err != nil {
				return fmt.Errorf("%s: trace replay: %w", bm.Name, err)
			}
		}
	}
	fmt.Printf("rcgen smoke: %d profiles x %d seeds, %d simulated points, oracle+ledger+trace-replay all green\n",
		len(profiles), *seeds, points)
	return nil
}
