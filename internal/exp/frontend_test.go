package exp

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/bench"
	"regconn/internal/ir"
	"regconn/internal/workload"
)

// TestSharedFrontendMatchesPrivate: the five backends built concurrently
// from one shared front end match what regconn.Build makes for each with
// a private front end, and the shared front end — IR and profile
// weights, which ir.Program.String prints — is untouched afterwards.
// Programs: the paper suite and one seed of every generated profile;
// archs: the §5.3 baseline and the center point at each issue rate.
// Under -short and under the race detector (about ten times slower) the
// paper suite is left out: the generated programs exercise the same
// concurrent paths.
func TestSharedFrontendMatchesPrivate(t *testing.T) {
	var bms []bench.Benchmark
	if !testing.Short() && !raceEnabled {
		bms = bench.All()
	}
	for _, pr := range workload.Profiles() {
		bm, err := workload.Spec{Profile: pr.Name, Seed: 1}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		bms = append(bms, bm)
	}
	bases := []regconn.Arch{regconn.Baseline()}
	for _, issue := range []int{1, 2, 4, 8} {
		bases = append(bases, regconn.Arch{Issue: issue, LoadLatency: 2, CombineConnects: true})
	}
	for _, bm := range bms {
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			for _, base := range bases {
				checkSharedFrontend(t, bm, archFor(bm, 16, base))
			}
		})
	}
}

// checkSharedFrontend builds the five backends of base concurrently from
// one front end and compares each executable with regconn.Build's: its
// arch, image, register need (which sizes the file of the backends that
// grow it to demand), code sizes, IR and oracle. Those are everything a
// simulation reads, and the simulator is deterministic, so equal
// executables run to equal cycles, instructions and connects;
// TestFrontendsContract simulates shared front ends against private ones.
func checkSharedFrontend(t *testing.T, bm bench.Benchmark, base regconn.Arch) {
	t.Helper()
	base.Verify = true
	fe, err := regconn.NewFrontend(bm.Build(), base)
	if err != nil {
		t.Fatal(err)
	}
	before := fe.IR.String()
	names := backend.Names()
	shared := make([]*regconn.Executable, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := base
			a.Backend = name
			shared[i], errs[i] = fe.Build(a)
		}()
	}
	wg.Wait()
	if fe.IR.String() != before {
		t.Errorf("%+v: back ends modified the shared front end", base.FrontendKey())
	}
	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s %+v: %v", name, base.FrontendKey(), errs[i])
		}
		a := base
		a.Backend = name
		want, err := regconn.Build(bm.Build(), a)
		if err != nil {
			t.Fatal(err)
		}
		got := shared[i]
		if !reflect.DeepEqual(got.Arch, want.Arch) ||
			!reflect.DeepEqual(got.Image.Code, want.Image.Code) || !reflect.DeepEqual(got.Image.Ann, want.Image.Ann) ||
			!reflect.DeepEqual(got.Image.FuncStart, want.Image.FuncStart) || got.Image.Entry != want.Image.Entry ||
			!reflect.DeepEqual(got.Image.Layout, want.Image.Layout) ||
			got.Alloc.NeedInt != want.Alloc.NeedInt || got.Alloc.NeedFP != want.Alloc.NeedFP ||
			got.PreAllocSize != want.PreAllocSize || got.PostAllocSize != want.PostAllocSize ||
			got.SpillInstrs != want.SpillInstrs || got.ConnectInstrs != want.ConnectInstrs ||
			got.SaveRestoreExts != want.SaveRestoreExts ||
			got.MProg.IR.String() != want.MProg.IR.String() || got.Golden.Ret != want.Golden.Ret {
			t.Errorf("%s %+v: the shared front end's executable differs from Build's", name, base.FrontendKey())
		}
	}
}

// privatePoint is the point computed with a front end of its own: a fresh
// memo compiles it and keeps it from every other point.
func privatePoint(bm bench.Benchmark, a regconn.Arch) (*Result, error) {
	return NewFrontends(1).RunPoint(context.Background(), bm, a)
}

// frontendKey is the memo's key for a point.
func frontendKey(bm bench.Benchmark, a regconn.Arch) string {
	return fmt.Sprintf("%s/%+v", bm.Name, a.FrontendKey())
}

// TestFrontendsContract pins the memo's rules: concurrent points share
// one compile and simulate to exactly the results of private front ends,
// the bound evicts the least recently used front end, a failed compile
// is never stored (the next point compiles again and gets the same
// error), a canceled point compiles nothing, points share a front end
// exactly when their FrontendKeys match, and a front end refuses an arch
// with another key.
func TestFrontendsContract(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	arch := func(issue int) regconn.Arch {
		return archFor(bm, 16, regconn.Arch{Issue: issue, LoadLatency: 2, Mode: regconn.WithRC})
	}
	m := NewFrontends(2)
	var mu sync.Mutex
	counts := map[string]int{}
	m.Observe = func(result string) {
		mu.Lock()
		counts[result]++
		mu.Unlock()
	}

	// The five backends as concurrent points: one compile, and the same
	// results as points with private front ends.
	names := backend.Names()
	results := make([]*Result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := arch(4)
			a.Backend = name
			var err error
			if results[i], err = m.RunPoint(context.Background(), bm, a); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if counts["compiled"] != 1 || counts["reused"] != len(names)-1 {
		t.Errorf("%d concurrent points: %v, want 1 compiled and the rest reused", len(names), counts)
	}
	for i, name := range names {
		a := arch(4)
		a.Backend = name
		want, err := privatePoint(bm, a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("%s: shared front end %+v, private %+v", name, results[i], want)
		}
	}

	// LRU at a bound of two: add issue 2, touch issue 4, then adding
	// issue 8 evicts the least recently used — issue 2, not issue 4.
	for _, issue := range []int{2, 4, 8} {
		if _, err := m.RunPoint(context.Background(), bm, arch(issue)); err != nil {
			t.Fatal(err)
		}
	}
	stored := func(bm bench.Benchmark, a regconn.Arch) bool {
		_, ok := m.cache.Get(frontendKey(bm, a))
		return ok
	}
	if stored(bm, arch(2)) {
		t.Error("issue-2 front end survived past the bound as least recently used")
	}
	if !stored(bm, arch(4)) || !stored(bm, arch(8)) {
		t.Error("most recently used front ends were evicted")
	}

	// A failing front end (no terminator: ir.Verify rejects it) is
	// compiled, and fails, once per point.
	bad := bench.Benchmark{Name: "bad", Build: func() *ir.Program {
		p := ir.NewProgram()
		ir.NewFunc(p, "main", 0, 0)
		return p
	}}
	_, err1 := m.RunPoint(context.Background(), bad, arch(4))
	_, err2 := m.RunPoint(context.Background(), bad, arch(4))
	if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
		t.Fatalf("failing front end: %v then %v, want the same error twice", err1, err2)
	}
	if stored(bad, arch(4)) {
		t.Error("a failed front end was stored")
	}

	// A canceled point does not compile or wait.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunPoint(ctx, bm, arch(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled point: %v, want context.Canceled", err)
	}

	// Under ScalarOnly the ILP knobs do not shape the front end: the
	// baseline and a scalar 8-issue point share one.
	scalar := arch(8)
	scalar.ScalarOnly = true
	base := archFor(bm, 16, regconn.Baseline())
	if _, err := m.RunPoint(context.Background(), bm, base); err != nil {
		t.Fatal(err)
	}
	reused := counts["reused"]
	if _, err := m.RunPoint(context.Background(), bm, scalar); err != nil {
		t.Fatal(err)
	}
	if counts["reused"] != reused+1 {
		t.Error("a scalar 8-issue point did not reuse the baseline's front end")
	}

	// A front end refuses an arch with another key.
	fe, _ := m.cache.Get(frontendKey(bm, arch(8)))
	if _, err := fe.Build(arch(4)); err == nil {
		t.Error("issue-8 front end built an issue-4 arch")
	}
}

// TestRunnerSharesFrontends pins the Runner's default point path on one
// benchmark's sweep-cold shape: the §5.3 baseline plus issue {1,2,4,8} ×
// the five backends, 21 points through the grid evaluator on two
// workers. RunPoint takes its front ends from the process-wide memo, so
// the points compile one front end per FrontendKey — 5 — and reuse them
// 16 times, and each result equals the one a private front end gives.
func TestRunnerSharesFrontends(t *testing.T) {
	bm, err := bench.ByName("cmp")
	if err != nil {
		t.Fatal(err)
	}
	// A fresh counting memo in the process-wide one's place, so the counts
	// do not depend on what earlier tests left in it.
	saved := frontends
	t.Cleanup(func() { frontends = saved })
	frontends = NewFrontends(2 * runtime.GOMAXPROCS(0))
	var compiled, reused atomic.Int32
	frontends.Observe = func(result string) {
		if result == "compiled" {
			compiled.Add(1)
		} else {
			reused.Add(1)
		}
	}

	archs := []regconn.Arch{regconn.Baseline()}
	var cells []cell
	for _, issue := range []int{1, 2, 4, 8} {
		for _, name := range backend.Names() {
			a := archFor(bm, 16, regconn.Arch{Issue: issue, LoadLatency: 2, Backend: name, CombineConnects: true})
			archs = append(archs, a)
			cells = append(cells, cell{arch: a})
		}
	}
	r := &Runner{Workers: 2, Benchmarks: []bench.Benchmark{bm}}
	if _, err := r.eval([]row{{bm.Name, bm, cells}}); err != nil {
		t.Fatal(err)
	}
	if len(r.done) != len(archs) {
		t.Fatalf("the grid ran %d points, want %d", len(r.done), len(archs))
	}
	if compiled.Load() != 5 || reused.Load() != 16 {
		t.Errorf("21 points: %d front ends compiled and %d reused, want 5 and 16", compiled.Load(), reused.Load())
	}
	for _, a := range archs {
		got, err := r.Run(bm, a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := privatePoint(bm, a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: shared front end %+v, private %+v", a, got, want)
		}
	}
}
