package regconn

import (
	"fmt"
	"testing"

	"regconn/internal/core"
	"regconn/internal/ir"
	"regconn/internal/isa"
)

// testPrograms returns named fresh-program builders exercising distinct
// compiler/machine paths: loops, calls, recursion, FP kernels, register
// pressure, memory traffic.
func testPrograms() map[string]func() *ir.Program {
	return map[string]func() *ir.Program{
		"loop-sum":     buildLoopSum,
		"calls-fib":    buildCallsFib,
		"array-kernel": buildArrayKernel,
		"fp-dot":       buildFPDot,
		"pressure-int": buildPressureInt,
	}
}

// expected results of the test programs (checked against the interpreter
// inside Build, and against these constants here).
var testExpect = map[string]int64{
	"loop-sum":     4950,
	"calls-fib":    144,
	"array-kernel": 6048,
	"fp-dot":       10912,
	"pressure-int": 1395,
}

func buildLoopSum() *ir.Program {
	p := ir.NewProgram()
	b := ir.NewFunc(p, "main", 0, 0)
	s := b.Const(0)
	i := b.Const(0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	b.MovTo(s, b.Add(s, i))
	b.MovTo(i, b.AddI(i, 1))
	b.BltI(i, 100, loop)
	done := b.NewBlock()
	b.SetBlock(done)
	b.Ret(s)
	return p
}

func buildCallsFib() *ir.Program {
	p := ir.NewProgram()
	fb := ir.NewFunc(p, "fib", 1, 0)
	n := fb.Param(0)
	base := fb.NewBlock()
	rec := fb.NewBlock()
	fb.BgtI(n, 1, rec)
	fb.SetBlock(base)
	fb.Ret(n)
	fb.SetBlock(rec)
	a := fb.Call("fib", fb.SubI(n, 1))
	c := fb.Call("fib", fb.SubI(n, 2))
	fb.Ret(fb.Add(a, c))
	b := ir.NewFunc(p, "main", 0, 0)
	b.Ret(b.Call("fib", b.Const(12)))
	return p
}

func buildArrayKernel() *ir.Program {
	p := ir.NewProgram()
	g := p.AddGlobal("a", 64*8)
	res := p.AddGlobal("res", 8)
	b := ir.NewFunc(p, "main", 0, 0)
	base := b.Addr(g, 0)
	i := b.Const(0)
	ptr := b.Mov(base)
	init := b.NewBlock()
	b.Br(init)
	b.SetBlock(init)
	b.St(b.MulI(i, 3), ptr, 0)
	b.MovTo(ptr, b.AddI(ptr, 8))
	b.MovTo(i, b.AddI(i, 1))
	b.BltI(i, 64, init)
	mid := b.NewBlock()
	b.SetBlock(mid)
	a0, a1, a2, a3 := b.Const(0), b.Const(0), b.Const(0), b.Const(0)
	j := b.Const(0)
	q := b.Mov(base)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	v0 := b.Ld(q, 0)
	v1 := b.Ld(q, 8)
	v2 := b.Ld(q, 16)
	v3 := b.Ld(q, 24)
	b.MovTo(a0, b.Add(a0, v0))
	b.MovTo(a1, b.Add(a1, v1))
	b.MovTo(a2, b.Add(a2, v2))
	b.MovTo(a3, b.Add(a3, v3))
	b.MovTo(q, b.AddI(q, 32))
	b.MovTo(j, b.AddI(j, 4))
	b.BltI(j, 64, loop)
	out := b.NewBlock()
	b.SetBlock(out)
	t := b.Add(b.Add(a0, a1), b.Add(a2, a3))
	b.St(t, b.Addr(res, 0), 0)
	b.Ret(t)
	return p
}

func buildFPDot() *ir.Program {
	p := ir.NewProgram()
	x := p.AddGlobal("x", 32*8)
	y := p.AddGlobal("y", 32*8)
	b := ir.NewFunc(p, "main", 0, 0)
	i := b.Const(0)
	px := b.Addr(x, 0)
	py := b.Addr(y, 0)
	init := b.NewBlock()
	b.Br(init)
	b.SetBlock(init)
	fi := b.IToF(i)
	b.FSt(fi, px, 0)
	b.FSt(b.FAdd(fi, b.FConst(1)), py, 0)
	b.MovTo(px, b.AddI(px, 8))
	b.MovTo(py, b.AddI(py, 8))
	b.MovTo(i, b.AddI(i, 1))
	b.BltI(i, 32, init)
	mid := b.NewBlock()
	b.SetBlock(mid)
	acc := b.FConst(0)
	j := b.Const(0)
	qx := b.Addr(x, 0)
	qy := b.Addr(y, 0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	vx := b.FLd(qx, 0)
	vy := b.FLd(qy, 0)
	b.MovTo(acc, b.FAdd(acc, b.FMul(vx, vy)))
	b.MovTo(qx, b.AddI(qx, 8))
	b.MovTo(qy, b.AddI(qy, 8))
	b.MovTo(j, b.AddI(j, 1))
	b.BltI(j, 32, loop)
	out := b.NewBlock()
	b.SetBlock(out)
	b.Ret(b.FToI(acc))
	return p
}

func buildPressureInt() *ir.Program {
	// Twenty simultaneously live loaded values across a call: stresses
	// spilling, callee-save allocation, and extended save/restore.
	// (Values come from memory so classical optimization cannot fold them
	// into immediates.)
	p := ir.NewProgram()
	g := p.AddGlobal("arr", 32*8)
	id := ir.NewFunc(p, "id", 1, 0)
	id.Ret(id.Param(0))
	b := ir.NewFunc(p, "main", 0, 0)
	base := b.Addr(g, 0)
	i := b.Const(0)
	q := b.Mov(base)
	init := b.NewBlock()
	b.Br(init)
	b.SetBlock(init)
	b.St(b.AddI(b.MulI(i, 7), 3), q, 0)
	b.MovTo(q, b.AddI(q, 8))
	b.MovTo(i, b.AddI(i, 1))
	b.BltI(i, 32, init)
	body := b.NewBlock()
	b.SetBlock(body)
	var lv []isa.Reg
	for k := int64(0); k < 20; k++ {
		lv = append(lv, b.Ld(base, k*8))
	}
	acc := b.Mov(b.Call("id", b.Const(5)))
	for _, r := range lv {
		b.MovTo(acc, b.Add(acc, r))
	}
	b.Ret(acc) // 5 + sum_{k<20}(7k+3) = 5 + 1330 + 60 = 1395
	return p
}

// archMatrix returns the architecture grid every test program is verified
// on: every register backend, small and large cores, all four RC models,
// issue rates, connect latencies, and the extra decode stage.
func archMatrix() []Arch {
	var out []Arch
	for _, mode := range []RegMode{Unlimited, WithoutRC, WithRC} {
		for _, m := range []int{8, 16, 64} {
			for _, issue := range []int{1, 4} {
				out = append(out, Arch{
					Issue: issue, LoadLatency: 2,
					IntCore: m, FPCore: max(m, 16),
					Mode: mode, CombineConnects: true,
				})
			}
		}
	}
	// RC implementation scenarios (Figure 12) and models (§2.3).
	for _, model := range []core.Model{core.NoReset, core.WriteReset, core.WriteResetReadUpdate, core.ReadWriteReset} {
		out = append(out, Arch{
			Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
			Mode: WithRC, Model: model, CombineConnects: true,
		})
	}
	out = append(out,
		Arch{Issue: 4, LoadLatency: 4, IntCore: 16, FPCore: 32, Mode: WithRC, ConnectLatency: 1, CombineConnects: true},
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC, ExtraDecodeStage: true, CombineConnects: true},
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC}, // single connects
		Arch{Issue: 8, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC, CombineConnects: true},
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: WithRC, CombineConnects: true, NoSchedule: true},
		Arch{Issue: 1, LoadLatency: 2, IntCore: 8, FPCore: 16, Mode: WithoutRC, ScalarOnly: true},
	)
	// Extension backends: the reduced-read-port file at both widths, and
	// chaining with and without the scheduler (MarkChains runs either way).
	out = append(out,
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: PortReduce},
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: PortReduce, ReadPorts: 2},
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: Chain},
		Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Mode: Chain, NoSchedule: true},
	)
	for i := range out {
		out[i].Verify = true
	}
	return out
}

// TestEndToEnd compiles every test program under every architecture in the
// matrix and verifies the machine result and memory image against the IR
// interpreter.
func TestEndToEnd(t *testing.T) {
	for name, build := range testPrograms() {
		for i, arch := range archMatrix() {
			arch := arch
			t.Run(fmt.Sprintf("%s/%02d-%v-m%d-i%d", name, i, arch.Mode, arch.IntCore, arch.Issue), func(t *testing.T) {
				ex, err := Build(build(), arch)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				if ex.Golden.Ret != testExpect[name] {
					t.Fatalf("interpreter golden = %d, want %d", ex.Golden.Ret, testExpect[name])
				}
				res, err := ex.Verify()
				if err != nil {
					t.Fatalf("verify: %v", err)
				}
				if res.Cycles <= 0 || res.Instrs <= 0 {
					t.Fatalf("degenerate result: %+v", res)
				}
			})
		}
	}
}

// TestRCBeatsSpillUnderPressure checks the paper's core claim on a small
// machine: with few core registers, the with-RC model runs in fewer cycles
// than the without-RC model and close to the unlimited model.
func TestRCBeatsSpillUnderPressure(t *testing.T) {
	run := func(mode RegMode) *machineResult {
		arch := Arch{Issue: 4, LoadLatency: 2, IntCore: 8, FPCore: 16, Mode: mode, CombineConnects: true, Verify: true}
		ex, err := Build(buildPressureInt(), arch)
		if err != nil {
			t.Fatalf("build %v: %v", mode, err)
		}
		res, err := ex.Verify()
		if err != nil {
			t.Fatalf("verify %v: %v", mode, err)
		}
		return &machineResult{res.Cycles, res.Instrs}
	}
	unl := run(Unlimited)
	rc := run(WithRC)
	spill := run(WithoutRC)
	t.Logf("cycles: unlimited=%d with-RC=%d without-RC=%d", unl.cycles, rc.cycles, spill.cycles)
	if rc.cycles >= spill.cycles {
		t.Errorf("with-RC (%d cycles) should beat without-RC (%d cycles) at 8 core registers",
			rc.cycles, spill.cycles)
	}
	// Unlimited is the idealized lower bound, modulo small scheduling
	// noise on tiny programs; allow 5% slack.
	if float64(unl.cycles) > 1.05*float64(rc.cycles) {
		t.Errorf("unlimited (%d) should not be materially slower than RC (%d)", unl.cycles, rc.cycles)
	}
}

type machineResult struct{ cycles, instrs int64 }

// TestConnectsOnlyWithRC checks that connect instructions appear exactly in
// with-RC builds that use extended registers.
func TestConnectsOnlyWithRC(t *testing.T) {
	for _, mode := range []RegMode{Unlimited, WithoutRC} {
		ex, err := Build(buildPressureInt(), Arch{Issue: 4, IntCore: 8, FPCore: 16, Mode: mode, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if ex.ConnectInstrs != 0 {
			t.Errorf("%v build has %d connects", mode, ex.ConnectInstrs)
		}
	}
	ex, err := Build(buildPressureInt(), Arch{Issue: 4, IntCore: 8, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if ex.ConnectInstrs == 0 {
		t.Error("with-RC build under pressure has no connects")
	}
	if ex.SpillInstrs != 0 {
		t.Errorf("with-RC build should not spill here, got %d spill ops", ex.SpillInstrs)
	}
}

// TestCodeGrowth checks the Figure 9 accounting: without-RC code growth
// comes from spills, with-RC growth from connects plus save/restore.
func TestCodeGrowth(t *testing.T) {
	spill, err := Build(buildPressureInt(), Arch{Issue: 4, IntCore: 8, FPCore: 16, Mode: WithoutRC, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if spill.SpillInstrs == 0 {
		t.Error("without-RC at 8 registers must spill")
	}
	if spill.CodeGrowth() <= 0 {
		t.Errorf("without-RC growth = %v", spill.CodeGrowth())
	}
	rc, err := Build(buildPressureInt(), Arch{Issue: 4, IntCore: 8, FPCore: 16, Mode: WithRC, CombineConnects: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rc.SaveRestoreExts == 0 {
		t.Error("pressure across a call must trigger extended save/restore")
	}
	if g := rc.CodeGrowth(); g <= 0 {
		t.Errorf("with-RC growth = %v", g)
	}
}
