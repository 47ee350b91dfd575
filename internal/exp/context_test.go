package exp

import (
	"context"
	"errors"
	"testing"

	"regconn"
)

// TestRunContextCancelDoesNotPoisonCache: a canceled point must be evicted
// from the memo so a later request recomputes it, and that recomputation
// must produce the normal verified result.
func TestRunContextCancelDoesNotPoisonCache(t *testing.T) {
	r := NewQuickRunner()
	bm := r.Benchmarks[0]
	arch := regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 16, FPCore: 32}

	// A context that is already done computes nothing: the caller gets
	// the context's own error, context.Canceled, not a machine.ErrCanceled
	// from a started simulation.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunContext(ctx, bm, arch); err == nil {
		t.Fatal("canceled run returned no error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run error = %v; want to match context.Canceled", err)
	}

	res, err := r.RunContext(context.Background(), bm, arch)
	if err != nil {
		t.Fatalf("recomputation after cancel failed: %v", err)
	}
	if res.Cycles == 0 {
		t.Fatal("recomputed point has no cycles")
	}

	// And the recomputed result is now memoized normally.
	res2, err := r.Run(bm, arch)
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Error("successful result was not memoized after the canceled entry was evicted")
	}
}
