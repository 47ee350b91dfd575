package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/prof"
)

// TestAttributionMatchesLedgerOnGoldenGrid profiles every golden
// benchmark×config point and proves two things per point: the per-PC
// attribution columns sum bit-exactly to the run's ledger buckets
// (PCProf.CheckAgainst), and enabling profiling leaves the simulation
// bit-identical to the recorded profiling-off golden behaviour — the
// observability layer observes, it never perturbs.
func TestAttributionMatchesLedgerOnGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full-grid attribution check is not -short")
	}
	data, err := os.ReadFile(filepath.Join("testdata", "golden_center.json"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var pts []goldenPoint
	if err := json.Unmarshal(data, &pts); err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenPoint{}
	for _, p := range pts {
		want[p.Benchmark+"/"+p.Config] = p
	}

	for _, bm := range bench.All() {
		bm := bm
		for _, gc := range LedgerConfigs(bm) {
			gc := gc
			t.Run(bm.Name+"/"+gc.Name, func(t *testing.T) {
				t.Parallel()
				arch := gc.Arch
				arch.Profile = true
				ex, err := regconn.Build(bm.Build(), arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				res, err := ex.Verify()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if res.Prof == nil {
					t.Fatal("profiled run carries no per-PC attribution")
				}
				if err := res.Prof.CheckAgainst(res); err != nil {
					t.Errorf("attribution does not sum to ledger: %v", err)
				}
				w, ok := want[bm.Name+"/"+gc.Name]
				if !ok {
					t.Fatalf("no golden point for %s/%s", bm.Name, gc.Name)
				}
				if res.Cycles != w.Cycles || res.Instrs != w.Instrs ||
					res.Connects != w.Connects || res.MemOps != w.MemOps ||
					res.Mispredicts != w.Mispred || res.RetInt != w.RetInt ||
					res.StallData != w.StallData || res.StallMem != w.StallMem ||
					res.StallConn != w.StallConn || res.StallBranch != w.StallBranch {
					t.Errorf("profiling perturbed the simulation:\n got cycles=%d instrs=%d\nwant cycles=%d instrs=%d (full golden %+v)",
						res.Cycles, res.Instrs, w.Cycles, w.Instrs, w)
				}
			})
		}
	}
}

// TestProfReportRenders smoke-tests the full report path on one real
// compiled benchmark (formatting details are golden-tested on a fixture in
// internal/prof).
func TestProfReportRenders(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	arch := LedgerConfigs(bm)[0].Arch
	arch.Profile = true
	ex, err := regconn.Build(bm.Build(), arch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Verify()
	if err != nil {
		t.Fatal(err)
	}
	p, err := prof.New(ex.Image, res)
	if err != nil {
		t.Fatal(err)
	}
	var sink countingWriter
	if err := p.WriteReport(&sink, 10); err != nil {
		t.Fatal(err)
	}
	if sink == 0 {
		t.Error("report is empty")
	}
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
