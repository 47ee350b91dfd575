package exp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"regconn"
	"regconn/internal/bench"
)

// The golden file pins the simulator's observable behaviour: every
// refactor of the execution stack must reproduce these numbers exactly
// (cycles, instruction counts, stall attribution, op mix) for all twelve
// benchmarks under the paper's center configuration and three contrasting
// register models. Regenerate with `go test ./internal/exp -run Golden -update`
// only when an intentional modelling change is made, and say why in the
// commit message.
var update = flag.Bool("update", false, "rewrite the golden files of the tests run")

type goldenPoint struct {
	Benchmark   string  `json:"benchmark"`
	Config      string  `json:"config"`
	Cycles      int64   `json:"cycles"`
	Instrs      int64   `json:"instrs"`
	Connects    int64   `json:"connects"`
	MemOps      int64   `json:"mem_ops"`
	Mispred     int64   `json:"mispredicts"`
	RetInt      int64   `json:"ret_int"`
	StallData   int64   `json:"stall_data"`
	StallMem    int64   `json:"stall_mem"`
	StallConn   int64   `json:"stall_conn"`
	StallBranch int64   `json:"stall_branch"`
	OpMix       []int64 `json:"op_mix"`
}

// The pinned architecture grid lives in LedgerConfigs (stats.go), shared
// with rcexp -stats and the ledger invariant tests.

func collectGolden(t *testing.T) []goldenPoint {
	t.Helper()
	var pts []goldenPoint
	for _, bm := range bench.All() {
		for _, gc := range LedgerConfigs(bm) {
			ex, err := regconn.Build(bm.Build(), gc.Arch)
			if err != nil {
				t.Fatalf("%s/%s: build: %v", bm.Name, gc.Name, err)
			}
			res, err := ex.Verify()
			if err != nil {
				t.Fatalf("%s/%s: run: %v", bm.Name, gc.Name, err)
			}
			mix := make([]int64, len(res.OpMix))
			copy(mix, res.OpMix[:])
			pts = append(pts, goldenPoint{
				Benchmark:   bm.Name,
				Config:      gc.Name,
				Cycles:      res.Cycles,
				Instrs:      res.Instrs,
				Connects:    res.Connects,
				MemOps:      res.MemOps,
				Mispred:     res.Mispredicts,
				RetInt:      res.RetInt,
				StallData:   res.StallData,
				StallMem:    res.StallMem,
				StallConn:   res.StallConn,
				StallBranch: res.StallBranch,
				OpMix:       mix,
			})
		}
	}
	return pts
}

// TestGoldenSimulatorEquivalence asserts the simulator is observationally
// identical to the recorded seed behaviour for the full suite.
func TestGoldenSimulatorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite golden run is not -short")
	}
	path := filepath.Join("testdata", "golden_center.json")
	got := collectGolden(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden points to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want []goldenPoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("golden points: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Benchmark != w.Benchmark || g.Config != w.Config {
			t.Fatalf("point %d: got %s/%s, want %s/%s", i, g.Benchmark, g.Config, w.Benchmark, w.Config)
		}
		if g.Cycles != w.Cycles || g.Instrs != w.Instrs || g.Connects != w.Connects ||
			g.MemOps != w.MemOps || g.Mispred != w.Mispred || g.RetInt != w.RetInt ||
			g.StallData != w.StallData || g.StallMem != w.StallMem || g.StallConn != w.StallConn ||
			g.StallBranch != w.StallBranch {
			t.Errorf("%s/%s: result drifted:\n got %+v\nwant %+v", w.Benchmark, w.Config, g, w)
			continue
		}
		for k := range w.OpMix {
			if g.OpMix[k] != w.OpMix[k] {
				t.Errorf("%s/%s: op mix class %d: got %d, want %d",
					w.Benchmark, w.Config, k, g.OpMix[k], w.OpMix[k])
			}
		}
	}
}
