package exp

import (
	"fmt"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/machine"
)

// LedgerConfig is one pinned benchmark architecture of the golden grid.
type LedgerConfig struct {
	Name string
	Arch regconn.Arch
}

// LedgerConfigs returns the four architectures pinned per benchmark by the
// golden file and the ledger invariant tests: the paper's center point
// (4-issue, 2-cycle loads, 16/32 cores, model-3 RC with combined
// connects), the spill-only and unlimited contrasts, and the
// 1-cycle-connect scenario that exercises the connect-latency interlock.
func LedgerConfigs(bm bench.Benchmark) []LedgerConfig {
	core := 16
	if bm.FP {
		core = 32
	}
	base := regconn.Arch{Issue: 4, LoadLatency: 2, CombineConnects: true, Verify: true}
	return []LedgerConfig{
		{"center-rc", sweepArch(bm, core, regconn.WithRC, base)},
		{"without-rc", sweepArch(bm, core, regconn.WithoutRC, base)},
		{"unlimited", regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.Unlimited, Verify: true}},
		{"rc-1cy-connect", archFor(bm, core, regconn.Arch{Issue: 4, LoadLatency: 2,
			Mode: regconn.WithRC, CombineConnects: true, ConnectLatency: 1, Verify: true})},
	}
}

// PointStats is the machine-readable statistics of one golden point.
type PointStats struct {
	Benchmark string        `json:"benchmark"`
	Config    string        `json:"config"`
	Stats     machine.Stats `json:"stats"`
}

// StatsReport simulates every golden benchmark×config point of the
// runner's suite and returns full cycle-ledger statistics per point —
// stall breakdown, issue-slot utilization histogram, and map-table
// telemetry. It is the machine-readable counterpart of the golden file:
// its points go through Runner.Run like any experiment's, so each is
// checked against the interpreter oracle, the checksum and the ledger
// invariant.
func (r *Runner) StatsReport() ([]PointStats, error) {
	var out []PointStats
	var pts []point
	for _, bm := range r.sortedBench() {
		for _, lc := range LedgerConfigs(bm) {
			out = append(out, PointStats{Benchmark: bm.Name, Config: lc.Name})
			pts = append(pts, point{bm, lc.Arch})
		}
	}
	r.prefetch(pts)
	for i, p := range pts {
		res, err := r.Run(p.bm, p.arch)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", p.bm.Name, out[i].Config, err)
		}
		out[i].Stats = res.Stats
	}
	return out, nil
}
