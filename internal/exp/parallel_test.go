package exp

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"regconn"
)

// TestParallelRunnerMatchesSequential: the worker-pool fan-out must be
// invisible in the output — every table is bit-for-bit identical whether
// points are simulated concurrently or one at a time. Run with -race to
// also exercise the memo under contention.
func TestParallelRunnerMatchesSequential(t *testing.T) {
	par := NewQuickRunner()
	par.Workers = 4
	seq := NewQuickRunner()
	seq.Workers = 1
	// Every experiment, os included, goes through the grid evaluator.
	for _, id := range []string{"fig7", "fig13", "os"} {
		pt, err := par.Generate(id)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		st, err := seq.Generate(id)
		if err != nil {
			t.Fatalf("%s sequential: %v", id, err)
		}
		if !reflect.DeepEqual(pt, st) {
			t.Errorf("%s: parallel and sequential tables differ", id)
		}
	}
}

// TestWarmCollapsesDuplicates: cells naming one point, evaluated on a wide
// worker pool, must simulate it once — the evaluator's first pass warms
// the memo with each distinct point exactly once.
func TestWarmCollapsesDuplicates(t *testing.T) {
	r := NewQuickRunner()
	r.Workers = 8
	sc := stubRunPoint(r, nil)
	bm := r.Benchmarks[0]
	var rows []row
	for i := 0; i < 4; i++ {
		rows = append(rows, row{bm.Name, bm, speedups(regconn.Baseline(), regconn.Baseline(), regconn.Baseline(), regconn.Baseline())})
	}
	if _, err := r.eval(rows); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	n := len(r.done)
	r.mu.Unlock()
	if n != 1 {
		t.Errorf("memo holds %d entries after 16 cells naming one point, want 1", n)
	}
	if calls := sc.calls[key(bm.Name, regconn.Baseline())]; len(sc.calls) != 1 || calls != 1 {
		t.Errorf("Point ran %d distinct points, the named one %d times; want 1 and 1", len(sc.calls), calls)
	}
}

// TestForEach: the pool calls f once per index at any worker count and
// never for n = 0, and a pool of one worker (the floor for workers ≤ 1)
// takes the indices in order.
func TestForEach(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 8} {
		for _, n := range []int{0, 1, 5} {
			var mu sync.Mutex
			var got []int
			ForEach(workers, n, func(i int) {
				mu.Lock()
				got = append(got, i)
				mu.Unlock()
			})
			if workers > 1 {
				slices.Sort(got)
			}
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			if !slices.Equal(got, want) {
				t.Errorf("ForEach(%d, %d) called f with %v, want %v", workers, n, got, want)
			}
		}
	}
}
