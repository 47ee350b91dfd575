package regconn

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"regconn/internal/machine"
	"regconn/internal/mem"
)

func TestDefaultMemChannels(t *testing.T) {
	cases := map[int]int{1: 2, 2: 2, 4: 2, 8: 4}
	for issue, want := range cases {
		if got := DefaultMemChannels(issue); got != want {
			t.Errorf("DefaultMemChannels(%d) = %d, want %d", issue, got, want)
		}
	}
}

func TestArchNormalize(t *testing.T) {
	a := Arch{Issue: 4}.normalize()
	if a.MemChannels != 2 || a.LoadLatency != 2 || a.IntCore != 64 || a.FPCore != 64 {
		t.Errorf("normalize defaults wrong: %+v", a)
	}
	if !a.Model.Valid() {
		t.Error("model not defaulted")
	}
	b := Arch{Issue: 8, MemChannels: 3, LoadLatency: 4, IntCore: 16, FPCore: 32}.normalize()
	if b.MemChannels != 3 || b.LoadLatency != 4 || b.IntCore != 16 {
		t.Errorf("normalize clobbered explicit values: %+v", b)
	}
}

func TestBaselineConfiguration(t *testing.T) {
	b := Baseline()
	if b.Issue != 1 || b.Mode != Unlimited || !b.ScalarOnly {
		t.Errorf("baseline = %+v", b)
	}
}

func TestModeStrings(t *testing.T) {
	for m, want := range map[RegMode]string{
		Unlimited: "unlimited", WithoutRC: "without-RC", WithRC: "with-RC",
	} {
		if m.String() != want {
			t.Errorf("%d = %q", m, m.String())
		}
	}
}

func TestBuildRejectsInvalidIR(t *testing.T) {
	p := NewProgram()
	b := NewFunc(p, "main", 0, 0)
	_ = b // no terminator: invalid
	if _, err := Build(p, Arch{Issue: 1}); err == nil {
		t.Fatal("expected verify error")
	}
}

func TestRunWithTrace(t *testing.T) {
	ex, err := Build(buildLoopSum(), Arch{Issue: 4, IntCore: 16, FPCore: 16, Mode: WithoutRC, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tt := machine.NewTextTrace(&buf, 10, ex.Image)
	res, err := ex.Verify(tt)
	if err := tt.Close(err); err != nil {
		t.Fatal(err)
	}
	if res.RetInt != 4950 {
		t.Errorf("traced run result = %d", res.RetInt)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 || len(lines) > 10 {
		t.Errorf("trace lines = %d, want 1..10", len(lines))
	}
	if !strings.Contains(buf.String(), "call main") {
		t.Errorf("trace missing startup:\n%s", buf.String())
	}
}

func TestPublicAPISurface(t *testing.T) {
	// The aliases must expose a complete build-and-run path.
	if len(Benchmarks()) != 12 || len(IntegerBenchmarks()) != 9 || len(FPBenchmarks()) != 3 {
		t.Fatal("benchmark suite accessors wrong")
	}
	if _, err := BenchmarkByName("grep"); err != nil {
		t.Fatal(err)
	}
	tab := NewMapTable(ModelDefault, 8, 256)
	tab.ConnectUse(3, 100)
	if tab.ReadPhys(3) != 100 {
		t.Fatal("MapTable alias broken")
	}
	ctx := tab.SaveContext()
	tab.Reset()
	tab.RestoreContext(ctx)
	if tab.ReadPhys(3) != 100 {
		t.Fatal("MapContext alias broken")
	}
	p := NewProgram()
	b := NewFunc(p, "main", 0, 0)
	b.Ret(b.Const(9))
	if err := VerifyIR(p); err != nil {
		t.Fatal(err)
	}
	ex, err := Build(p, Arch{Issue: 1, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Verify()
	if err != nil || res.RetInt != 9 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestTrapThroughFacade(t *testing.T) {
	arch := Arch{Issue: 4, IntCore: 16, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true}
	arch.Trap = TrapConfig{Interval: 50, ContextSwitch: true, PSWFlag: true}
	ex, err := Build(buildLoopSum(), arch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Traps == 0 {
		t.Error("no context switches fired through the facade")
	}
}

func TestRunProcesses(t *testing.T) {
	arch := Arch{Issue: 4, IntCore: 8, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true}
	var exes []*Executable
	for i := 0; i < 2; i++ {
		ex, err := Build(buildPressureInt(), arch)
		if err != nil {
			t.Fatal(err)
		}
		exes = append(exes, ex)
	}
	res, err := RunProcesses(exes, 200, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Results {
		if r.RetInt != 1395 {
			t.Errorf("process %d = %d, want 1395", i, r.RetInt)
		}
	}
	if res.Switches == 0 {
		t.Error("no context switches")
	}
	// Mixed architectures are rejected.
	other, err := Build(buildLoopSum(), Arch{Issue: 8, IntCore: 16, FPCore: 16, Mode: WithRC, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunProcesses([]*Executable{exes[0], other}, 200, FullSave); err == nil {
		t.Error("expected architecture-mismatch error")
	}
	if _, err := RunProcesses(nil, 200, FullSave); err == nil {
		t.Error("expected no-processes error")
	}
	// Per-PC attribution covers single-process runs only, so the
	// multiprogrammed entry point refuses Arch.Profile on any process.
	exes[1].Arch.Profile = true
	if _, err := RunProcesses(exes, 200, FullSave); err == nil || !strings.Contains(err.Error(), "Profile") {
		t.Errorf("RunProcesses with Arch.Profile: err = %v, want a profiling rejection", err)
	}
}

// TestEveryFacadeRunVerifies: every single-process run door checks the run
// against the interpreter oracle, with or without probes, so an executable
// whose oracle disagrees with the machine fails through each of them with
// the result-mismatch error.
func TestEveryFacadeRunVerifies(t *testing.T) {
	ex, err := Build(buildLoopSum(), Arch{Issue: 4, IntCore: 16, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	// The oracle of a private Build belongs to this executable alone.
	ex.Golden.Ret++
	ctx := context.Background()
	for _, door := range []struct {
		name string
		run  func() (*machine.Result, error)
	}{
		{"Verify", func() (*machine.Result, error) { return ex.Verify() }},
		{"VerifyContext", func() (*machine.Result, error) { return ex.VerifyContext(ctx) }},
		{"Arena.VerifyContext", func() (*machine.Result, error) { return NewArena().VerifyContext(ctx, ex) }},
		{"Arena.VerifyContext given a probe", func() (*machine.Result, error) {
			return NewArena().VerifyContext(ctx, ex, machine.NewEventRing(0))
		}},
		{"Verify given a TextTrace", func() (*machine.Result, error) {
			tt := machine.NewTextTrace(io.Discard, 0, ex.Image)
			res, err := ex.Verify(tt)
			return res, tt.Close(err)
		}},
		{"Verify given an EventRing", func() (*machine.Result, error) { return ex.Verify(machine.NewEventRing(0)) }},
		{"Verify given a TextTrace, an EventRing and a PCProf", func() (*machine.Result, error) {
			tt := machine.NewTextTrace(io.Discard, 0, ex.Image)
			res, err := ex.Verify(tt, machine.NewEventRing(0), new(machine.PCProf))
			return res, tt.Close(err)
		}},
	} {
		if _, err := door.run(); err == nil || !strings.Contains(err.Error(), "result mismatch") {
			t.Errorf("%s: err %v, want the result-mismatch error", door.name, err)
		}
	}
}

func TestWindowPolicyThroughFacade(t *testing.T) {
	for _, pol := range []WindowPolicy{WindowLRU, WindowRoundRobin, WindowFirstFree} {
		ex, err := Build(buildPressureInt(), Arch{Issue: 4, IntCore: 8, FPCore: 16,
			Mode: WithRC, CombineConnects: true, Windows: pol, Verify: true})
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if _, err := ex.Verify(); err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
	}
}

// TestValidate pins Arch.Validate's rules at their edges, and that Build
// returns each rejection as an error before doing any work: a core count
// outside [abi.MinCore, TotalRegs] used to panic in the calling
// convention, and a negative channel count looped the list scheduler
// forever.
func TestValidate(t *testing.T) {
	with := func(edit func(*Arch)) Arch {
		a := Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC}
		edit(&a)
		return a
	}
	for _, a := range []Arch{
		Baseline(),
		with(func(a *Arch) { a.IntCore, a.FPCore = 0, 0 }),
		with(func(a *Arch) { a.IntCore, a.FPCore = 8, TotalRegs }),
		with(func(a *Arch) { a.MemSize = mem.MaxSize }),
		with(func(a *Arch) { a.Backend = "chain" }),
		with(func(a *Arch) { a.LoadLatency, a.ConnectLatency, a.ReadPorts = 1000, 1000, 1000 }),
		with(func(a *Arch) { a.Issue, a.LoadLatency, a.ConnectLatency = machine.MaxIssueRate, MaxLatency, MaxLatency }),
		with(func(a *Arch) {
			a.Trap = TrapConfig{Interval: 1, HandlerCycles: machine.MaxTrapHandler, HandlerRegs: machine.MaxTrapHandler}
		}),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("%+v: %v, want valid", a, err)
		}
	}
	for _, c := range []struct {
		name string
		arch Arch
	}{
		{"zero issue", with(func(a *Arch) { a.Issue = 0 })},
		{"negative issue", with(func(a *Arch) { a.Issue = -4 })},
		{"negative channels", with(func(a *Arch) { a.MemChannels = -1 })},
		{"negative load latency", with(func(a *Arch) { a.LoadLatency = -1 })},
		{"negative connect latency", with(func(a *Arch) { a.ConnectLatency = -1 })},
		{"negative read ports", with(func(a *Arch) { a.ReadPorts = -1 })},
		{"int core below min", with(func(a *Arch) { a.IntCore = 4 })},
		{"negative int core", with(func(a *Arch) { a.IntCore = -8 })},
		{"int core above total", with(func(a *Arch) { a.IntCore = 300 })},
		{"fp core below min", with(func(a *Arch) { a.FPCore = 7 })},
		{"fp core above total", with(func(a *Arch) { a.FPCore = TotalRegs + 1 })},
		{"negative memory size", with(func(a *Arch) { a.MemSize = -8 })},
		{"memory size above cap", with(func(a *Arch) { a.MemSize = mem.MaxSize + 1 })},
		{"unregistered backend", with(func(a *Arch) { a.Backend = "nosuch" })},
		{"unregistered mode", with(func(a *Arch) { a.Mode = 99 })},
		// A 1e9 issue rate built, then allocated an 8 GB issue histogram
		// on its first run; a 1e12 latency made a Build that never
		// returned; a negative handler ran the cycle loop backwards.
		{"issue above cap", with(func(a *Arch) { a.Issue = 1000000000 })},
		{"load latency above cap", with(func(a *Arch) { a.LoadLatency = MaxLatency + 1 })},
		{"connect latency above cap", with(func(a *Arch) { a.ConnectLatency = MaxLatency + 1 })},
		{"negative handler cycles", with(func(a *Arch) { a.Trap = TrapConfig{Interval: 1, HandlerCycles: -5000} })},
		{"negative handler registers", with(func(a *Arch) { a.Trap = TrapConfig{Interval: 1, HandlerRegs: -1} })},
		{"handler registers above cap", with(func(a *Arch) { a.Trap.HandlerRegs = machine.MaxTrapHandler + 1 })},
	} {
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) {
			if err := c.arch.Validate(); err == nil {
				t.Fatalf("%+v validated", c.arch)
			}
			if _, err := Build(buildLoopSum(), c.arch); err == nil || !strings.HasPrefix(err.Error(), "regconn: arch: ") {
				t.Fatalf("Build error %v, want the Validate error", err)
			}
		})
	}
}
