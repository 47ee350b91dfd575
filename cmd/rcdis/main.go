// Command rcdis compiles a benchmark and disassembles the generated
// machine code, showing the connect instructions the with-RC model inserts
// (compare -mode rc against -mode spill to see connects replace spill
// loads/stores).
//
// Usage:
//
//	rcdis -bench grep [-func main] [-mode rc|spill|unlimited|portreduce|chain]
//	      [-intcore 16] [-fpcore 32] [-issue 4] [-model 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"regconn"
	"regconn/internal/cli"
	"regconn/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcdis:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bmName  = flag.String("bench", "grep", "benchmark name or generated workload (gen/<profile>/<seed>)")
		fnName  = flag.String("func", "", "only this function (default: all)")
		mode    = flag.String("mode", "rc", "register backend: "+strings.Join(cli.ModeNames(), ", "))
		intCore = flag.Int("intcore", 16, "core integer registers")
		fpCore  = flag.Int("fpcore", 32, "core floating-point registers")
		issue   = flag.Int("issue", 4, "issue rate")
		model   = flag.Int("model", 3, "RC model 1..4")
	)
	flag.Parse()

	bm, err := workload.ByName(*bmName)
	if err != nil {
		return err
	}
	rcModel, err := cli.ParseModel(*model)
	if err != nil {
		return err
	}
	arch := regconn.Arch{
		Issue: *issue, LoadLatency: 2,
		IntCore: *intCore, FPCore: *fpCore,
		Model: rcModel, CombineConnects: true,
	}
	if arch.Mode, err = cli.ParseMode(*mode); err != nil {
		return err
	}
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		return err
	}
	found := false
	for _, f := range ex.MProg.Funcs {
		if *fnName != "" && f.Name != *fnName {
			continue
		}
		found = true
		fmt.Printf("%s:  ; frame=%d connects=%d spills=%d save/restore=%d\n",
			f.Name, f.FrameSize, f.ConnectCount, f.SpillCount, f.SaveRestoreCount)
		for i := range f.Code {
			fmt.Printf("%5d:  %s\n", i, f.Code[i].String())
		}
		fmt.Println()
	}
	if !found {
		var names []string
		for _, f := range ex.MProg.Funcs {
			names = append(names, f.Name)
		}
		return fmt.Errorf("no function %q in %s (have: %s)",
			*fnName, bm.Name, strings.Join(names, ", "))
	}
	return nil
}
