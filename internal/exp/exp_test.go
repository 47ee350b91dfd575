package exp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"regconn"
	"regconn/internal/bench"
)

func quick(t *testing.T) *Runner {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment regeneration is not -short")
	}
	return NewQuickRunner()
}

func TestTable1MatchesPaper(t *testing.T) {
	tab := Table1()
	want := map[string]float64{
		"INT ALU": 1, "INT multiply": 3, "INT divide": 10,
		"FP ALU": 3, "FP conversion": 3, "FP multiply": 3, "FP divide": 10,
		"branch": 1, "memory load": 2, "memory store": 1,
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r.Vals[0] != want[r.Name] {
			t.Errorf("%s = %v, want %v", r.Name, r.Vals[0], want[r.Name])
		}
	}
}

func TestFigure7SpeedupGrowsWithIssue(t *testing.T) {
	r := quick(t)
	tab, err := r.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		// Monotone non-decreasing speedup with issue rate (within noise).
		for c := 1; c < len(row.Vals); c++ {
			if row.Vals[c] < row.Vals[c-1]*0.95 {
				t.Errorf("%s: speedup dropped %v", row.Name, row.Vals)
			}
		}
		// 1-issue ILP-compiled vs scalar baseline should be near 1.
		if row.Vals[0] < 0.5 || row.Vals[0] > 2.0 {
			t.Errorf("%s: 1-issue speedup %v out of range", row.Name, row.Vals[0])
		}
	}
}

func TestFigure8RCDominatesAtSmallCores(t *testing.T) {
	r := quick(t)
	tables, err := r.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(r.Benchmarks) {
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tab := range tables {
		// Row 0 is the smallest core size; with-RC (col 1) must beat
		// without-RC (col 0) there.
		small := tab.Rows[0]
		if small.Vals[1] <= small.Vals[0] {
			t.Errorf("%s: with-RC %v <= without-RC %v at smallest core",
				tab.Title, small.Vals[1], small.Vals[0])
		}
		// At the largest size the two models converge.
		big := tab.Rows[len(tab.Rows)-1]
		if big.Vals[1] < big.Vals[0]*0.98 || big.Vals[1] > big.Vals[0]*1.02 {
			t.Errorf("%s: models did not converge at largest core: %v", tab.Title, big.Vals)
		}
	}
}

func TestFigure9GrowthShape(t *testing.T) {
	r := quick(t)
	tables, err := r.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	for _, tab := range tables {
		small := tab.Rows[0]
		big := tab.Rows[len(tab.Rows)-1]
		// Small cores grow code much more than large cores.
		if small.Vals[0] <= big.Vals[0] {
			t.Errorf("%s: without-RC growth not larger at small cores: %v vs %v",
				tab.Title, small.Vals[0], big.Vals[0])
		}
		if small.Vals[1] <= 0 {
			t.Errorf("%s: with-RC growth %v at smallest core", tab.Title, small.Vals[1])
		}
	}
}

func TestFigure12LittleLossFromImplementation(t *testing.T) {
	r := quick(t)
	tab, err := r.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1] // geomean
	best := mean.Vals[0]
	worst := mean.Vals[3] // 1cy + extra stage
	if worst < best*0.90 {
		t.Errorf("implementation scenarios lose too much: best %.2f, worst %.2f", best, worst)
	}
	// All RC scenarios beat without-RC (last column).
	if mean.Vals[4] >= worst {
		t.Errorf("without-RC %.2f should trail all RC scenarios (worst %.2f)", mean.Vals[4], worst)
	}
}

func TestFigure13RCBeatsChannels(t *testing.T) {
	r := quick(t)
	tab, err := r.Figure13()
	if err != nil {
		t.Fatal(err)
	}
	mean := tab.Rows[len(tab.Rows)-1]
	// Adding RC at 2 channels (col 2) helps more than going to 4 channels
	// without RC (col 1), at 2-cycle load.
	if mean.Vals[2] <= mean.Vals[1] {
		t.Errorf("RC at 2ch (%.2f) should beat 4ch without RC (%.2f)", mean.Vals[2], mean.Vals[1])
	}
}

// TestAllExperimentsOneBenchmark regenerates every experiment id over a
// single benchmark — full coverage of the figure generators at a fraction
// of the full-suite cost.
func TestAllExperimentsOneBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("not -short")
	}
	r := NewRunner()
	bm, err := bench.ByName("espresso")
	if err != nil {
		t.Fatal(err)
	}
	r.Benchmarks = []bench.Benchmark{bm}
	for _, id := range Experiments() {
		tabs, err := r.Generate(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tab := range tabs {
			if len(tab.Rows) == 0 || tab.Format() == "" {
				t.Errorf("%s: empty table", id)
			}
		}
	}
}

func TestGenerateDispatch(t *testing.T) {
	r := quick(t)
	for _, id := range []string{"table1"} {
		tabs, err := r.Generate(id)
		if err != nil || len(tabs) == 0 {
			t.Errorf("generate %s: %v", id, err)
		}
	}
	if _, err := r.Generate("nosuch"); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown id error = %v, want errors.Is(ErrUnknownExperiment)", err)
	} else if !strings.Contains(err.Error(), `"nosuch"`) || !strings.Contains(err.Error(), "table1") {
		t.Errorf("unknown id error %q should name the id and the valid ids", err)
	}
	if len(Experiments()) != 16 {
		t.Errorf("experiments = %d", len(Experiments()))
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Cols: []string{"a", "b"}}
	tab.AddRow("row1", 1.5, 2.25)
	tab.AddRow("row2", 3, 4)
	tab.AddMeanRow()
	s := tab.Format()
	for _, want := range []string{"X — demo", "row1", "1.50", "geomean"} {
		if !strings.Contains(s, want) {
			t.Errorf("format missing %q:\n%s", want, s)
		}
	}
	// Geomean of (1.5,3) = sqrt(4.5) ~ 2.12.
	g := tab.Rows[2].Vals[0]
	if g < 2.11 || g > 2.13 {
		t.Errorf("geomean = %v", g)
	}
}

func TestRunnerMemoizes(t *testing.T) {
	r := quick(t)
	bm := r.Benchmarks[0]
	a := regconn.Baseline()
	r1, err := r.Run(bm, a)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.Run(bm, a)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("memoization failed (distinct results returned)")
	}
}

func TestRunRejectsBadChecksum(t *testing.T) {
	r := NewRunner()
	bad := bench.Benchmark{Name: "bad", Paper: "x", Build: r.Benchmarks[0].Build, Expect: -1}
	if _, err := r.Run(bad, regconn.Baseline()); err == nil || !strings.Contains(err.Error(), "bad: checksum") {
		t.Errorf("Run: err = %v, want a checksum mismatch", err)
	}
	// The answer is checked where the front end is compiled, so every
	// build from the memo checks it, and a failed front end is never
	// stored: each build compiles and fails afresh.
	for i := 0; i < 2; i++ {
		if _, err := Build(context.Background(), bad, regconn.Baseline()); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Errorf("Build %d: err = %v, want a checksum mismatch", i, err)
		}
	}
}
