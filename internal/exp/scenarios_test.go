package exp

import (
	"reflect"
	"testing"
)

// scenarioTestConfig keeps the determinism pins fast: two contrasting
// profiles (register-pressure-bound and trap-bound) at two seeds.
func scenarioTestConfig() ScenarioConfig {
	return ScenarioConfig{
		Profiles: []string{"connect-heavy", "trap-heavy"},
		Seeds:    []int64{0, 1},
	}
}

// TestScenariosParallelMatchesSequential is the workload determinism pin
// at the experiment level: the same {profile, seed} set must produce a
// bit-identical scenarios table whether points run through the pooled
// worker fan-out (the evaluator's first pass, per-worker run arenas) or
// strictly one at a time. Run with -race to also exercise the generator
// under that concurrent pass.
func TestScenariosParallelMatchesSequential(t *testing.T) {
	par := NewRunner()
	par.Workers = 4
	seq := NewRunner()
	seq.Workers = 1

	pt, err := par.Scenarios(scenarioTestConfig())
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	st, err := seq.Scenarios(scenarioTestConfig())
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if !reflect.DeepEqual(pt, st) {
		t.Fatalf("parallel and sequential scenarios tables differ:\n%s\nvs\n%s", pt.Format(), st.Format())
	}
	if pf, sf := pt.Format(), st.Format(); pf != sf {
		t.Fatalf("formatted tables differ:\n%s\nvs\n%s", pf, sf)
	}
}

// TestScenariosRegeneration pins that two independent runners — each
// regenerating every workload from its seed — agree bit-for-bit, i.e. the
// generator has no hidden state across Generate calls and the Build
// closures are pure functions of {profile, seed}.
func TestScenariosRegeneration(t *testing.T) {
	a, err := NewRunner().Scenarios(scenarioTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner().Scenarios(scenarioTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("independent runners disagree:\n%s\nvs\n%s", a.Format(), b.Format())
	}
}

// TestScenarioBenchmarksRejectsBadConfig: a bad profile name surfaces
// before any simulation.
func TestScenarioBenchmarksRejectsBadConfig(t *testing.T) {
	if _, err := ScenarioBenchmarks(ScenarioConfig{Profiles: []string{"no-such"}}); err == nil {
		t.Fatal("expected error for unknown profile")
	}
	if _, err := (&Runner{}).Scenarios(ScenarioConfig{Profiles: []string{"no-such"}}); err == nil {
		t.Fatal("expected Scenarios to propagate the bad config")
	}
}
