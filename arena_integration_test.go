package regconn

import (
	"context"
	"reflect"
	"testing"

	"regconn/internal/bench"
)

// arenaArchs covers all five register backends at a pressured operating
// point, so the arena-vs-fresh comparison exercises every scheme's machine
// shape (spill's core-only file, rc's extended file, unlimited's grown
// file, portreduce's port hazard, chain's forwarding marks).
func arenaArchs() []Arch {
	base := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Verify: true}
	spill, rc, unl, ports, chain := base, base, base, base, base
	spill.Mode = WithoutRC
	rc.Mode, rc.CombineConnects = WithRC, true
	unl.Mode = Unlimited
	ports.Backend = "portreduce"
	chain.Backend = "chain"
	return []Arch{spill, rc, unl, ports, chain}
}

// TestArenaMatchesFreshRun: for every backend, a run on a reused Arena must
// be bit-identical to Executable.Verify on a fresh machine — same cycles, same
// ledger, same telemetry — including when the arena is hopping between
// executables of different shapes.
func TestArenaMatchesFreshRun(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	arena := NewArena()
	for _, arch := range arenaArchs() {
		be, err := arch.resolveBackend()
		if err != nil {
			t.Fatal(err)
		}
		name := be.Name()
		ex, err := Build(bm.Build(), arch)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		fresh, err := ex.Verify()
		if err != nil {
			t.Fatalf("%s: fresh run: %v", name, err)
		}
		for rep := 0; rep < 2; rep++ {
			got, err := arena.VerifyContext(context.Background(), ex)
			if err != nil {
				t.Fatalf("%s rep %d: arena run: %v", name, rep, err)
			}
			a, b := *fresh, *got
			a.Mem, b.Mem = nil, nil // images are distinct objects; contents checked by VerifyContext
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s rep %d: arena result diverges from fresh run:\nfresh: %+v\narena: %+v",
					name, rep, a, b)
			}
			if !reflect.DeepEqual(fresh.Stats(), got.Stats()) {
				t.Errorf("%s rep %d: exported stats diverge", name, rep)
			}
		}
	}
}

// TestArenaStatsSurviveReuse: statistics exported from an arena result must
// stay valid after the arena is reused for a different point — the aliasing
// contract of DESIGN.md §13 (Result.Stats deep-copies what it exports).
func TestArenaStatsSurviveReuse(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	archs := arenaArchs()
	rc, spill := archs[1], archs[0]
	exRC, err := Build(bm.Build(), rc)
	if err != nil {
		t.Fatal(err)
	}
	exSpill, err := Build(bm.Build(), spill)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	arena := NewArena()
	res, err := arena.VerifyContext(ctx, exRC)
	if err != nil {
		t.Fatal(err)
	}
	saved := res.Stats()
	if _, err := arena.VerifyContext(ctx, exSpill); err != nil { // overwrites the arena
		t.Fatal(err)
	}
	fresh, err := exRC.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(saved, fresh.Stats()) {
		t.Error("stats exported before arena reuse were corrupted by the next run")
	}
}

// BenchmarkArenaRun times repeated verified simulation of a prebuilt
// executable on one arena — the batch-sweep hot path (compare with
// BenchmarkRunProfilingOff, which reallocates the machine per run). Run
// under -benchmem this pins the steady-state allocation behavior at the
// facade level.
func BenchmarkArenaRun(b *testing.B) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		b.Fatal(err)
	}
	arch := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
		Mode: WithRC, CombineConnects: true}
	ex, err := Build(bm.Build(), arch)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	arena := NewArena()
	if _, err := arena.VerifyContext(ctx, ex); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arena.VerifyContext(ctx, ex); err != nil {
			b.Fatal(err)
		}
	}
}
