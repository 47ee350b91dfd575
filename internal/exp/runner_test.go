package exp

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"regconn"
	"regconn/internal/bench"
)

// TestRunnerKeyCanonical: a point addressed by a legacy Mode value and the
// same point addressed by its backend registry name must share one memo
// entry — the Runner analogue of the daemon's canonical point keys. Before
// keys went through Arch.Canonical, the two spellings simulated twice and
// diverging formats could split a figure's baseline from its sweeps.
func TestRunnerKeyCanonical(t *testing.T) {
	r := NewQuickRunner()
	bm := r.Benchmarks[0]
	legacy := regconn.Arch{Issue: 1, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 16, FPCore: 32}
	named := legacy
	named.Mode = 0
	named.Backend = "rc"

	res1, err := r.Run(bm, legacy)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(bm, named)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("equivalent architectures returned distinct results (memo keyed on raw Arch?)")
	}
	r.mu.Lock()
	n := len(r.done)
	r.mu.Unlock()
	if n != 1 {
		t.Errorf("memo holds %d entries for one canonical point, want 1", n)
	}
}

// TestRunnerMemoContract pins what RunContext keeps: a terminal error is
// memoized, a cancellation never is, and of two concurrent computations of
// one point the first to finish is what both callers get. The Runner does
// not coalesce them — both compute. A cancel that arrives while a point
// computes reaches the point function through the caller's context.
func TestRunnerMemoContract(t *testing.T) {
	r := NewQuickRunner()
	bm := r.Benchmarks[0]
	var calls atomic.Int32
	var outcome func(call int32) (*Result, error)
	r.Point = func(context.Context, bench.Benchmark, regconn.Arch) (*Result, error) {
		return outcome(calls.Add(1))
	}

	terminal := errors.New("terminal")
	outcome = func(call int32) (*Result, error) {
		if call == 1 {
			return nil, fmt.Errorf("point: %w", context.DeadlineExceeded)
		}
		return nil, terminal
	}
	a := regconn.Baseline()
	if _, err := r.Run(bm, a); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first run: %v, want the deadline", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Run(bm, a); !errors.Is(err, terminal) {
			t.Fatalf("run %d after the cancellation: %v, want the terminal error", i, err)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("point computed %d times, want 2 (the cancellation recomputed, the terminal error kept)", n)
	}

	first, second := &Result{Cycles: 1}, &Result{Cycles: 2}
	entered := make(chan struct{}, 2)
	release := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	outcome = func(call int32) (*Result, error) {
		i := call - 3
		entered <- struct{}{}
		<-release[i]
		return []*Result{first, second}[i], nil
	}
	b := a
	b.Issue = 2
	got := make(chan *Result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := r.Run(bm, b)
			if err != nil {
				t.Error(err)
			}
			got <- res
		}()
	}
	<-entered
	<-entered
	close(release[0])
	if res := <-got; res != first {
		t.Errorf("first finisher got %+v, want its own result", res)
	}
	close(release[1])
	if res := <-got; res != first {
		t.Errorf("second finisher got %+v, want the first write", res)
	}

	var sawCancel atomic.Bool
	r.Point = func(ctx context.Context, _ bench.Benchmark, _ regconn.Arch) (*Result, error) {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			sawCancel.Store(true)
			return nil, context.Cause(ctx)
		case <-time.After(10 * time.Second):
			return nil, errors.New("the caller's cancel never reached the point")
		}
	}
	c := a
	c.Issue = 3
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := r.RunContext(ctx, bm, c)
		errc <- err
	}()
	<-entered
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Errorf("run canceled mid-point: %v, want context.Canceled", err)
	}
	if !sawCancel.Load() {
		t.Error("the point function never saw the caller's cancel")
	}
	r.mu.Lock()
	_, kept := r.done[key(bm.Name, c)]
	r.mu.Unlock()
	if kept {
		t.Error("a point canceled mid-run was memoized")
	}
}
