package exp

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/machine"
)

// TestLedgerClosesOnGoldenGrid asserts Result.CheckLedger over every
// golden benchmark×config point: every simulated cycle is attributed to
// exactly one bucket and the buckets sum back to the cycle count. Under
// -short the grid is restricted to the quick three-benchmark suite.
func TestLedgerClosesOnGoldenGrid(t *testing.T) {
	suite := bench.All()
	if testing.Short() {
		suite = NewQuickRunner().Benchmarks
	}
	for _, bm := range suite {
		for _, gc := range LedgerConfigs(bm) {
			bm, gc := bm, gc
			t.Run(bm.Name+"/"+gc.Name, func(t *testing.T) {
				t.Parallel()
				ex, err := regconn.Build(bm.Build(), gc.Arch)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ex.Verify()
				if err != nil {
					t.Fatal(err)
				}
				if err := res.CheckLedger(); err != nil {
					t.Error(err)
				}
				if res.ActiveCycles != res.Cycles {
					t.Errorf("single-process run: active %d != cycles %d", res.ActiveCycles, res.Cycles)
				}
				if len(res.IssueHist) != gc.Arch.Issue+1 {
					t.Errorf("issue histogram has %d buckets, want %d", len(res.IssueHist), gc.Arch.Issue+1)
				}
			})
		}
	}
}

// TestLedgerWithTraps asserts the ledger still closes when trap overhead
// cycles enter the attribution: both the lightweight-handler and the
// context-switch trap models, with and without the §4.3 enable flag.
func TestLedgerWithTraps(t *testing.T) {
	bm, err := bench.ByName("cpp")
	if err != nil {
		t.Fatal(err)
	}
	base := archFor(bm, 16, regconn.Arch{Issue: 4, LoadLatency: 2,
		Mode: regconn.WithRC, CombineConnects: true})
	for _, tc := range []struct {
		name string
		trap regconn.TrapConfig
	}{
		{"handler-flag", regconn.TrapConfig{Interval: 2000, HandlerCycles: 30, HandlerRegs: 8, UseEnableFlag: true}},
		{"handler-naive", regconn.TrapConfig{Interval: 2000, HandlerCycles: 30, HandlerRegs: 8}},
		{"context-switch", regconn.TrapConfig{Interval: 10000, ContextSwitch: true, PSWFlag: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			arch := base
			arch.Trap = tc.trap
			ex, err := regconn.Build(bm.Build(), arch)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ex.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if res.Traps == 0 || res.TrapOverheads == 0 {
				t.Fatalf("no traps fired: %+v", res.Stats().Ledger)
			}
			if err := res.CheckLedger(); err != nil {
				t.Error(err)
			}
			if res.ActiveCycles != res.Cycles {
				t.Errorf("active %d != cycles %d", res.ActiveCycles, res.Cycles)
			}
		})
	}
}

// TestTraceMonotonicCycles runs a branch-heavy benchmark with a full
// per-cycle trace and asserts the cycle stamps are strictly increasing:
// the line for a mispredicting cycle must carry the pre-penalty issue
// cycle, not the post-penalty clock.
func TestTraceMonotonicCycles(t *testing.T) {
	bm, err := bench.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	arch := archFor(bm, 16, regconn.Arch{Issue: 4, LoadLatency: 2,
		Mode: regconn.WithRC, CombineConnects: true})
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tt := machine.NewTextTrace(&buf, 0, ex.Image)
	res, err := ex.Verify(tt)
	if err := tt.Close(err); err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts == 0 {
		t.Fatal("benchmark has no mispredicts; trace test needs a branchy workload")
	}
	prev := int64(-1)
	lines := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		c, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			t.Fatalf("trace line %q: %v", sc.Text(), err)
		}
		if c <= prev {
			t.Fatalf("trace not monotonic: cycle %d after %d", c, prev)
		}
		prev = c
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if int64(lines) > res.Cycles || lines == 0 {
		t.Fatalf("trace has %d lines for %d cycles", lines, res.Cycles)
	}
}
