package exp

import (
	"fmt"

	"regconn/internal/bench"
	"regconn/internal/workload"
)

// ScenarioConfig selects the generated workloads the scenarios experiment
// sweeps: the named profiles (nil = every registered profile) at the
// given seeds (nil = DefaultScenarioSeeds). Zero value = full default
// sweep.
type ScenarioConfig struct {
	Profiles []string
	Seeds    []int64
}

// DefaultScenarioSeeds is the seed set the scenarios experiment (and the
// verify smoke) runs when none is given: three programs per profile keeps
// the default sweep minutes-scale while still exposing per-seed variance.
var DefaultScenarioSeeds = []int64{0, 1, 2}

// ScenarioBenchmarks resolves the configuration into oracle-pinned
// benchmarks, profile-major then seed-major — the row order of the table.
// Every workload is generated and interpreter-checked here, so a
// generator regression fails fast, before any simulation.
func ScenarioBenchmarks(cfg ScenarioConfig) ([]bench.Benchmark, error) {
	profiles := cfg.Profiles
	if len(profiles) == 0 {
		profiles = workload.ProfileNames()
	}
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = DefaultScenarioSeeds
	}
	bms := make([]bench.Benchmark, 0, len(profiles)*len(seeds))
	for _, p := range profiles {
		for _, seed := range seeds {
			bm, err := workload.Spec{Profile: p, Seed: seed}.Generate()
			if err != nil {
				return nil, fmt.Errorf("exp: scenarios: %w", err)
			}
			bms = append(bms, bm)
		}
	}
	return bms, nil
}

// Scenarios sweeps generated workloads across every register backend —
// the rivals comparison on synthetic scenarios instead of the paper
// suite. Each row is one gen/<profile>/<seed> workload; columns are
// speedups over the §5.3 scalar baseline, and every point passes the
// interpreter oracle and the cycle ledger like any other experiment
// point.
func (r *Runner) Scenarios(cfg ScenarioConfig) (*Table, error) {
	bms, err := ScenarioBenchmarks(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "scenarios",
		Title: "Generated workloads: speedup by register backend, 4-issue, 2-cycle load, 16/32 cores",
		Cols:  []string{"spill", "rc", "portreduce", "chain", "unlimited"},
		Notes: []string{
			"rows are seeded scenario-generator workloads (internal/workload); every point is oracle- and ledger-checked",
		},
	}
	return r.tabulate(t, true, bms, backendCells)
}
