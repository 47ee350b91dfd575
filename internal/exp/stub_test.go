package exp

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/machine"
)

// stubCalls counts the points a stubbed Runner simulated, by memo key.
type stubCalls struct {
	mu    sync.Mutex
	calls map[string]int
	desc  map[string]string
}

// stubResult derives every Result field an experiment reads from a hash
// of the point key, so figures can be regenerated without simulating.
func stubResult(k string) *Result {
	h := fnv.New64a()
	h.Write([]byte(k))
	v := h.Sum64()
	return &Result{
		Cycles:   10000 + int64(v%90000),
		Instrs:   5000 + int64(v>>17%50000),
		Connects: int64(v >> 23 % 200000),
		Growth:   float64(v>>31%500) / 1000,
		SaveRest: float64(v>>41%100) / 1000,
		Stats: machine.Stats{
			Traps:  1 + int64(v>>47%9),
			Ledger: machine.Ledger{TrapOverhead: int64(v >> 53 % 2000)},
		},
	}
}

// stubRunPoint replaces r's execution primitive with stubResult. fail, when
// non-nil, picks points that return an error instead.
func stubRunPoint(r *Runner, fail func(bm bench.Benchmark, arch regconn.Arch) bool) *stubCalls {
	sc := &stubCalls{calls: map[string]int{}, desc: map[string]string{}}
	r.Point = func(_ context.Context, bm bench.Benchmark, arch regconn.Arch) (*Result, error) {
		k := key(bm.Name, arch)
		sc.mu.Lock()
		sc.calls[k]++
		sc.desc[k] = pointDesc(bm.Name, arch)
		sc.mu.Unlock()
		if fail != nil && fail(bm, arch) {
			return nil, fmt.Errorf("%s: stub failure", bm.Name)
		}
		return stubResult(k), nil
	}
	return sc
}

// pointDesc renders a point compactly: the benchmark and backend, then
// every other non-zero field of its canonical Arch.
func pointDesc(name string, a regconn.Arch) string {
	a = a.Canonical()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %v", name, a.Mode)
	a.Mode, a.Backend = 0, ""
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.IsZero() {
			fmt.Fprintf(&sb, " %s=%+v", v.Type().Field(i).Name, f.Interface())
		}
	}
	return sb.String()
}

// stubExperiment regenerates one experiment over the quick suite with the
// stubbed primitive and renders its tables plus the sorted distinct points
// it simulated. Every point must have run exactly once; with a worker pool
// the Progress hook must tick once per distinct point.
func stubExperiment(t *testing.T, id string, workers int) string {
	t.Helper()
	r := NewQuickRunner()
	r.Workers = workers
	sc := stubRunPoint(r, nil)
	var mu sync.Mutex
	ticks, total := 0, 0
	if workers > 1 {
		r.Progress = func(done, n int) {
			mu.Lock()
			ticks, total = ticks+1, n
			mu.Unlock()
		}
	}
	var tabs []*Table
	var err error
	if id == "scenarios" {
		var tab *Table
		tab, err = r.Scenarios(ScenarioConfig{Profiles: []string{"mixed"}, Seeds: []int64{0}})
		tabs = []*Table{tab}
	} else {
		tabs, err = r.Generate(id)
	}
	if err != nil {
		t.Fatalf("%s (workers %d): %v", id, workers, err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== %s\n", id)
	for _, tab := range tabs {
		sb.WriteString(tab.Format())
	}
	var pts []string
	for k, n := range sc.calls {
		if n != 1 {
			t.Errorf("%s (workers %d): %s simulated %d times", id, workers, sc.desc[k], n)
		}
		pts = append(pts, sc.desc[k])
	}
	sort.Strings(pts)
	fmt.Fprintf(&sb, "--- %d points\n%s\n", len(pts), strings.Join(pts, "\n"))
	if workers > 1 && (ticks != len(pts) || total != len(pts)) {
		t.Errorf("%s: Progress ticked %d times (total %d) for %d distinct points", id, ticks, total, len(pts))
	}
	return sb.String()
}

// TestStubbedFigures pins, for every experiment that simulates, the tables
// and the exact set of distinct points it simulates, at one worker and at
// four, without simulating anything: the stubbed primitive makes the whole
// grid cost milliseconds. A refactor of how experiments state and evaluate
// their grids must leave testdata/figures_stub.golden unchanged. Rewrite it
// with `go test ./internal/exp -run StubbedFigures -update`.
func TestStubbedFigures(t *testing.T) {
	ids := []string{"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"rivals", "models", "combined", "windows", "os", "accum", "scenarios"}
	var got strings.Builder
	for _, id := range ids {
		seq := stubExperiment(t, id, 1)
		if par := stubExperiment(t, id, 4); par != seq {
			t.Errorf("%s: output at 4 workers differs from 1 worker:\n%s\nvs\n%s", id, par, seq)
		}
		got.WriteString(seq)
	}
	path := filepath.Join("testdata", "figures_stub.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(want, []byte(got.String())) {
		t.Errorf("stubbed figures differ from %s:\n%s", path, got.String())
	}
}

// TestFirstErrorInRowOrder: when points in two rows of one experiment fail,
// Generate reports the earlier row's error at any worker count, even when
// the later row's failing point comes first in its row and so may finish
// first under a worker pool.
func TestFirstErrorInRowOrder(t *testing.T) {
	for _, tc := range []struct {
		id   string
		fail func(bm bench.Benchmark, a regconn.Arch) bool
	}{
		{"fig7", func(bm bench.Benchmark, a regconn.Arch) bool {
			return bm.Name == "espresso" && a.Issue == 8 ||
				bm.Name == "matrix300" && a.Issue == 1 && !a.ScalarOnly
		}},
		{"fig8", func(bm bench.Benchmark, a regconn.Arch) bool {
			return bm.Name == "espresso" && a.IntCore == 64 && a.Mode == regconn.WithRC ||
				bm.Name == "matrix300" && a.FPCore == 16 && a.Mode == regconn.WithoutRC
		}},
	} {
		for _, workers := range []int{1, 4} {
			r := NewQuickRunner()
			r.Workers = workers
			stubRunPoint(r, tc.fail)
			_, err := r.Generate(tc.id)
			if err == nil || !strings.HasPrefix(err.Error(), "espresso:") {
				t.Errorf("%s (workers %d): error %v, want espresso's", tc.id, workers, err)
			}
		}
	}
}

// TestOSRequiresTraps: an os cell whose point fired no traps is an error,
// not a zero overhead.
func TestOSRequiresTraps(t *testing.T) {
	r := NewQuickRunner()
	r.Point = func(context.Context, bench.Benchmark, regconn.Arch) (*Result, error) {
		return &Result{Cycles: 100}, nil
	}
	if _, err := r.Generate("os"); err == nil || !strings.Contains(err.Error(), "no traps fired") {
		t.Errorf("os with no traps: error %v, want \"no traps fired\"", err)
	}
}
