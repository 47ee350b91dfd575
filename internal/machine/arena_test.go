package machine

import (
	"reflect"
	"testing"

	"regconn/internal/isa"
)

// connProg is a small program exercising the paths that matter for arena
// reuse: connects (map-table telemetry with per-index breakdowns), memory
// traffic (dirty pages), data stalls, and a branch.
func connProg() []isa.Instr {
	return []isa.Instr{
		movi(3, 64),
		{Op: isa.ST, A: isa.IntReg(3), B: isa.IntReg(3), Imm: 0},
		{Op: isa.CONDEF, CIdx: [2]uint16{4}, CPhys: [2]uint16{10}, CClass: isa.ClassInt},
		{Op: isa.LD, Dst: isa.IntReg(4), A: isa.IntReg(3), Imm: 0},
		addi(2, 4, 0),
		{Op: isa.BEQ, A: isa.IntReg(2), Imm: 0, UseImm: true, Target: 7, Pred: false},
		addi(2, 2, 1),
		halt(),
	}
}

func smallCfg() Config {
	c := DefaultConfig()
	c.IntCore, c.IntTotal = 8, 16
	c.FPCore, c.FPTotal = 8, 16
	return c
}

// mustRunArena resets and runs the arena, failing the test on any error.
func mustRunArena(t *testing.T, m *Machine, img *Image, c Config) *Result {
	t.Helper()
	if err := m.Reset(img, c); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareResults checks that an arena run is bit-identical to a fresh one:
// the full exported statistics (ledger, histograms, map telemetry, op mix)
// and the architectural result must match.
func compareResults(t *testing.T, fresh, reused *Result) {
	t.Helper()
	if fresh.RetInt != reused.RetInt {
		t.Errorf("RetInt: fresh %d, reused %d", fresh.RetInt, reused.RetInt)
	}
	fs, rs := fresh.Stats(), reused.Stats()
	if !reflect.DeepEqual(fs, rs) {
		t.Errorf("stats diverge:\nfresh:  %+v\nreused: %+v", fs, rs)
	}
}

func TestMachineResetRerunBitIdentical(t *testing.T) {
	img := asm(connProg()...)
	c := smallCfg()
	fresh := run(t, img, c)

	m := NewMachine()
	for i := 0; i < 3; i++ {
		compareResults(t, fresh, mustRunArena(t, m, img, c))
	}
}

func TestMachineResetAcrossImagesAndConfigs(t *testing.T) {
	imgA := asm(connProg()...)
	imgB := asm(
		movi(2, 20),
		addi(2, 2, 22),
		halt(),
	)
	c2 := smallCfg()
	c4 := smallCfg()
	c4.Lat = isa.DefaultLatencies(4) // changes every micro-op's latency
	cPorts := smallCfg()
	cPorts.ReadPorts = 2
	cWide := DefaultConfig() // back to the 64/64 geometry
	cTrap := smallCfg()
	cTrap.Trap = TrapConfig{Interval: 8, HandlerCycles: 3, HandlerRegs: 2}

	points := []struct {
		name string
		img  *Image
		cfg  Config
	}{
		{"connects/lat2", imgA, c2},
		{"connects/lat4", imgA, c4},
		{"connects/ports", imgA, cPorts},
		{"plain/wide", imgB, cWide},
		{"connects/trap", imgA, cTrap},
		{"connects/lat2-again", imgA, c2},
	}
	m := NewMachine()
	for _, p := range points {
		fresh := run(t, p.img, p.cfg)
		got := mustRunArena(t, m, p.img, p.cfg)
		t.Run(p.name, func(t *testing.T) { compareResults(t, fresh, got) })
	}
}

// TestMachineMemoryResetIsComplete verifies the dirty-page wipe: a store
// from one run must not be visible to the next, including across a memory
// size change.
func TestMachineMemoryResetIsComplete(t *testing.T) {
	const addr = 1 << 16 // in a page the second program never writes
	writer := asm(
		movi(3, addr),
		movi(4, 77),
		isa.Instr{Op: isa.ST, A: isa.IntReg(3), B: isa.IntReg(4), Imm: 0},
		halt(),
	)
	reader := asm(
		movi(3, addr),
		isa.Instr{Op: isa.LD, Dst: isa.IntReg(2), A: isa.IntReg(3), Imm: 0},
		halt(),
	)
	m := NewMachine()
	c := smallCfg()
	if res := mustRunArena(t, m, writer, c); res.Mem.LoadI(addr) != 77 {
		t.Fatalf("store lost: mem[%#x] = %d", addr, res.Mem.LoadI(addr))
	}
	if res := mustRunArena(t, m, reader, c); res.RetInt != 0 {
		t.Errorf("stale memory across Reset: read %d, want 0", res.RetInt)
	}
	// Size change reallocates; the wipe must still hold in both directions.
	cBig := c
	cBig.MemSize = 1 << 25
	mustRunArena(t, m, writer, cBig)
	if res := mustRunArena(t, m, reader, c); res.RetInt != 0 {
		t.Errorf("stale memory across size change: read %d, want 0", res.RetInt)
	}
}

func TestMachineRunRequiresReset(t *testing.T) {
	m := NewMachine()
	if _, err := m.Run(); err == nil {
		t.Fatal("run on unarmed arena should fail")
	}
	img := asm(movi(2, 1), halt())
	mustRunArena(t, m, img, smallCfg())
	if _, err := m.Run(); err == nil {
		t.Fatal("second run without a new Reset should fail")
	}
}

// TestMachineSteadyStateZeroAllocs pins the arena contract: once warm, a
// Reset+Run cycle performs no heap allocation. This is the invariant the
// batch sweep path (internal/exp, cmd/rcbench) depends on; scripts/
// benchgate.sh enforces the same property on the recorded benchmark.
func TestMachineSteadyStateZeroAllocs(t *testing.T) {
	img := asm(connProg()...)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", smallCfg()},
		{"ports", func() Config { c := smallCfg(); c.ReadPorts = 2; return c }()},
		{"trap-switch", func() Config {
			c := smallCfg()
			c.Trap = TrapConfig{Interval: 8, ContextSwitch: true}
			return c
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine()
			mustRunArena(t, m, img, tc.cfg) // warm the arena
			allocs := testing.AllocsPerRun(20, func() {
				if err := m.Reset(img, tc.cfg); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Reset+Run allocates %.1f times, want 0", allocs)
			}
		})
	}
}

func TestMachineMultiprogrammedReuse(t *testing.T) {
	imgs := []*Image{asm(connProg()...), asm(
		movi(2, 20),
		addi(2, 2, 22),
		halt(),
	)}
	c := smallCfg()
	fresh, err := RunMultiprogrammed(imgs, c, 16, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	// A single-process run in between must not disturb the multi path.
	mustRunArena(t, m, imgs[0], c)
	for i := 0; i < 2; i++ {
		got, err := m.RunMultiprogrammedContext(t.Context(), imgs, c, 16, FullSave)
		if err != nil {
			t.Fatal(err)
		}
		if got.Switches != fresh.Switches || got.SwitchCycles != fresh.SwitchCycles ||
			got.Cycles != fresh.Cycles {
			t.Errorf("scheduler diverges: got %d/%d/%d, want %d/%d/%d",
				got.Switches, got.SwitchCycles, got.Cycles,
				fresh.Switches, fresh.SwitchCycles, fresh.Cycles)
		}
		for p := range imgs {
			compareResults(t, fresh.Results[p], got.Results[p])
		}
		if !reflect.DeepEqual(fresh.MapInt, got.MapInt) || !reflect.DeepEqual(fresh.MapFP, got.MapFP) {
			t.Error("shared map telemetry diverges")
		}
	}
}

// BenchmarkArenaResetRun times the Reset+Run cycle on a warm arena — the
// per-point cost a batched sweep pays once slice growth has been
// amortized (Reset still predecodes). Run with -benchmem: the contract is
// 0 allocs/op.
func BenchmarkArenaResetRun(b *testing.B) {
	img := asm(connProg()...)
	c := smallCfg()
	m := NewMachine()
	if err := m.Reset(img, c); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(img, c); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
