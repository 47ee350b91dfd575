// Command rcrun compiles and simulates one benchmark under one
// architecture configuration and reports cycles, IPC, and the RC
// statistics.
//
// Usage:
//
//	rcrun -bench grep [-issue 4] [-load 2] [-channels 0] [-intcore 16]
//	      [-fpcore 32] [-mode rc|spill|unlimited|portreduce|chain]
//	      [-readports 0] [-model 3] [-connect-latency 0] [-extra-stage]
//	      [-no-combine] [-scalar] [-stats] [-prof] [-top 20]
//	      [-trace N] [-trace-json FILE] [-emit-trace FILE]
//
// -bench accepts the paper benchmarks ("grep") and generated workloads
// ("gen/<profile>/<seed>", see internal/workload; -list shows both).
// -emit-trace records the compiled, oracle-verified run as a replayable
// instruction trace (the rctrace format; replay with rcgen or POST
// /v1/replay) and prints its key.
//
// -stats replaces the text report with a machine-readable JSON document:
// the full cycle ledger (stall breakdown), the per-cycle issue-slot
// utilization histogram, and the map-table telemetry. -prof appends the
// per-PC attribution report (hot PCs, blocks, per-function stall tables,
// connect overhead per vreg; see cmd/rcprof for the full profiler).
// -trace-json writes a Chrome trace-event timeline of the run, loadable in
// chrome://tracing or ui.perfetto.dev. -trace, -trace-json and -prof
// observe the one simulation the report is printed from.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/cli"
	"regconn/internal/isa"
	"regconn/internal/machine"
	"regconn/internal/prof"
	"regconn/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcrun:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bmName   = flag.String("bench", "grep", "benchmark name (see -list)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		archOf   = cli.ArchFlags(flag.CommandLine)
		load     = flag.Int("load", 2, "load latency in cycles (2 or 4)")
		channels = flag.Int("channels", 0, "memory channels (0 = paper default)")
		ports    = flag.Int("readports", 0, "register-file read ports for portreduce (0 = issue rate)")
		connLat  = flag.Int("connect-latency", 0, "connect latency (0 or 1)")
		stage    = flag.Bool("extra-stage", false, "extra decode pipeline stage")
		noComb   = flag.Bool("no-combine", false, "disable combined connects")
		scalar   = flag.Bool("scalar", false, "scalar optimization only (no ILP)")
		trace    = flag.Int64("trace", 0, "print a per-cycle issue trace for the first N cycles")
		stats    = flag.Bool("stats", false, "emit machine-readable JSON statistics instead of text")
		profFlag = flag.Bool("prof", false, "append the per-PC cycle attribution report")
		top      = flag.Int("top", 20, "rows in the -prof top tables")
		traceOut = flag.String("trace-json", "", "write a Chrome trace-event JSON timeline to FILE")
		emit     = flag.String("emit-trace", "", "write a replayable instruction trace (rctrace format) to FILE")
	)
	flag.Parse()

	if *list {
		for _, b := range bench.All() {
			kind := "int"
			if b.FP {
				kind = "fp"
			}
			fmt.Printf("%-10s (%s, stands in for %s)\n", b.Name, kind, b.Paper)
		}
		fmt.Println("generated workloads: gen/<profile>/<seed> with profile one of:")
		for _, pr := range workload.Profiles() {
			fmt.Printf("  %-18s %s\n", pr.Name, pr.About)
		}
		return nil
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
	arch.ExtraDecodeStage = *stage
	arch.CombineConnects = !*noComb
	arch.ScalarOnly = *scalar
	arch.ReadPorts = *ports
	arch.Profile = *profFlag
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		return err
	}
	if *emit != "" {
		tr, err := ex.Trace(bm.Name)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		key, err := tr.Encode(&buf)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*emit, buf.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rcrun: wrote %s (key %s, %d cycles, %d instrs)\n",
			*emit, key, tr.Cycles, tr.Instrs)
	}
	// One verified run carries every observer the flags ask for.
	var probes []machine.Probe
	var tt *machine.TextTrace
	if *trace > 0 {
		tt = machine.NewTextTrace(os.Stdout, *trace, ex.Image)
		probes = append(probes, tt)
	}
	var ring *machine.EventRing
	if *traceOut != "" {
		ring = machine.NewEventRing(0)
		probes = append(probes, ring)
	}
	res, err := ex.Verify(probes...)
	if tt != nil {
		err = tt.Close(err)
	}
	if err != nil {
		return err
	}
	if ring != nil {
		var buf bytes.Buffer
		if err := ring.WriteTraceJSON(&buf, ex.Image); err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, buf.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "rcrun: wrote %s (%d events, %d dropped)\n",
			*traceOut, len(ring.Events()), ring.Dropped())
	}

	if *stats {
		out := struct {
			Benchmark string        `json:"benchmark"`
			Mode      string        `json:"mode"`
			Stats     machine.Stats `json:"stats"`
		}{bm.Name, arch.Mode.String(), res.Stats()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("benchmark   %s (stands in for %s)\n", bm.Name, bm.Paper)
	fmt.Printf("arch        %d-issue, %d mem channels, %d-cycle load, %s, int=%d fp=%d\n",
		ex.Arch.Issue, ex.Arch.MemChannels, ex.Arch.LoadLatency, arch.Mode, arch.IntCore, arch.FPCore)
	if arch.Mode == regconn.WithRC {
		fmt.Printf("rc          model %v, %d-cycle connects, extra stage %v, combined %v\n",
			arch.Model, arch.ConnectLatency, arch.ExtraDecodeStage, arch.CombineConnects)
	}
	fmt.Printf("result      %d (verified against interpreter)\n", res.RetInt)
	fmt.Printf("cycles      %d\n", res.Cycles)
	fmt.Printf("instrs      %d (IPC %.2f)\n", res.Instrs, res.IPC())
	fmt.Printf("mem ops     %d\n", res.MemOps)
	fmt.Printf("connects    %d dynamic (%d static)\n", res.Connects, ex.ConnectInstrs)
	fmt.Printf("mispredicts %d\n", res.Mispredicts)
	fmt.Printf("code size   %d -> %d (+%.1f%%, save/restore +%.1f%%)\n",
		ex.PreAllocSize, ex.PostAllocSize, ex.CodeGrowth()*100, ex.SaveRestoreGrowth()*100)
	fmt.Printf("stalls      data=%d mem=%d connect=%d branch=%d\n",
		res.StallData, res.StallMem, res.StallConn, res.StallBranch)
	if arch.Mode == regconn.PortReduce {
		rp := arch.ReadPorts
		if rp <= 0 {
			rp = arch.Issue
		}
		fmt.Printf("read ports  %d per class (port-limited cycles %d)\n",
			rp, res.PortLimitedCycles)
	}
	if arch.Mode == regconn.Chain {
		fmt.Printf("chaining    %d pairs, %d register-file reads elided\n",
			res.ChainPairs, res.ChainElidedReads)
	}
	hist := make([]string, len(res.IssueHist))
	for k, c := range res.IssueHist {
		hist[k] = fmt.Sprintf("%d:%d", k, c)
	}
	fmt.Printf("issue slots %s (cycles issuing k instructions)\n", strings.Join(hist, " "))
	fmt.Printf("op mix      alu=%d mul=%d div=%d fp=%d load=%d store=%d branch=%d call=%d connect=%d\n",
		res.MixOf(isa.KindIntALU), res.MixOf(isa.KindIntMul), res.MixOf(isa.KindIntDiv),
		res.MixOf(isa.KindFPALU)+res.MixOf(isa.KindFPMul)+res.MixOf(isa.KindFPDiv)+res.MixOf(isa.KindFPConv),
		res.MixOf(isa.KindLoad), res.MixOf(isa.KindStore),
		res.MixOf(isa.KindBranch), res.MixOf(isa.KindCall), res.MixOf(isa.KindConnect))

	if *profFlag {
		p, err := prof.New(ex.Image, res)
		if err != nil {
			return err
		}
		fmt.Println()
		if err := p.WriteReport(os.Stdout, *top); err != nil {
			return err
		}
	}
	return nil
}
