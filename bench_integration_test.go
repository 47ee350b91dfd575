package regconn

import (
	"fmt"
	"reflect"
	"testing"

	"regconn/internal/bench"
)

// TestBenchmarksAllConfigs compiles and simulates every benchmark of the
// suite under representative configurations of each experiment axis and
// verifies the architectural results against the interpreter.
func TestBenchmarksAllConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark verification is not -short")
	}
	configs := []Arch{
		Baseline(),
		{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithoutRC},
		{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC, CombineConnects: true},
		{Issue: 4, LoadLatency: 2, IntCore: 8, FPCore: 16, Mode: WithRC, CombineConnects: true},
		{Issue: 8, LoadLatency: 4, IntCore: 24, FPCore: 48, Mode: WithRC, CombineConnects: true, ConnectLatency: 1, ExtraDecodeStage: true},
		{Issue: 4, LoadLatency: 2, IntCore: 64, FPCore: 128, Mode: Unlimited},
	}
	for i := range configs {
		configs[i].Verify = true
	}
	for _, bm := range bench.All() {
		bm := bm
		for ci, arch := range configs {
			arch := arch
			t.Run(fmt.Sprintf("%s/c%d-%v-m%d", bm.Name, ci, arch.Mode, arch.IntCore), func(t *testing.T) {
				t.Parallel()
				ex, err := Build(bm.Build(), arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if ex.Golden.Ret != bm.Expect {
					t.Fatalf("golden = %d, want %d", ex.Golden.Ret, bm.Expect)
				}
				res, err := ex.Verify()
				if err != nil {
					t.Fatalf("verify: %v", err)
				}
				if res.RetInt != bm.Expect {
					t.Fatalf("machine = %d, want %d", res.RetInt, bm.Expect)
				}
			})
		}
	}
}

// TestProfilingOffHasZeroFootprint proves the attribution layer is free
// when disabled and transparent when enabled: a profiling-off run carries
// no per-PC state at all (the hot loop sees only a nil check), and a
// profiling-on run of the same executable produces a bit-identical
// simulation — every observable Result field matches exactly.
func TestProfilingOffHasZeroFootprint(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	arch := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
		Mode: WithRC, CombineConnects: true, Verify: true}
	ex, err := Build(bm.Build(), arch)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ex.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if off.Prof != nil {
		t.Fatal("profiling-off run allocated per-PC attribution")
	}
	ex.Arch.Profile = true
	on, err := ex.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if on.Prof == nil {
		t.Fatal("profiling-on run carries no per-PC attribution")
	}

	// Strip the fields that legitimately differ (the attribution itself
	// and the memory image pointers), then demand bit-identity.
	a, b := *off, *on
	a.Prof, b.Prof = nil, nil
	a.Mem, b.Mem = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("profiling perturbed the simulation:\n off %+v\n on  %+v", a, b)
	}
}

// benchmarkRun times one simulation of the cmp benchmark at the center
// configuration. Comparing the two variants (go test -bench Profiling
// -benchmem) quantifies the profiling overhead; with profiling off the
// per-cycle cost is one nil check and no allocation.
func benchmarkRun(b *testing.B, profile bool) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		b.Fatal(err)
	}
	arch := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
		Mode: WithRC, CombineConnects: true, Profile: profile}
	ex, err := Build(bm.Build(), arch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunProfilingOff(b *testing.B) { benchmarkRun(b, false) }
func BenchmarkRunProfilingOn(b *testing.B)  { benchmarkRun(b, true) }
