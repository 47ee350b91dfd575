package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"regconn/internal/codegen"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/machine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture hand-assembles a tiny RC program — a connect-fed loop followed
// by a connect-use epilogue — and runs it with profiling on. The program
// is fully deterministic, so the rendered report is golden-testable.
func fixture(t *testing.T) (*machine.Image, *machine.Result) {
	t.Helper()
	ann := func(v int32) codegen.Annot {
		return codegen.Annot{PDst: codegen.NoPhys, PA: codegen.NoPhys, PB: codegen.NoPhys,
			CVReg: [2]int32{v, codegen.NoVReg}}
	}
	code := []isa.Instr{
		{Op: isa.MOVI, Dst: isa.IntReg(2), Imm: 0},
		{Op: isa.MOVI, Dst: isa.IntReg(3), Imm: 3},
		{Op: isa.CONDEF, CIdx: [2]uint16{4}, CPhys: [2]uint16{12}, CClass: isa.ClassInt},
		{Op: isa.MOVI, Dst: isa.IntReg(4), Imm: 7}, // writes extended r12
		// loop: r2 += r12 (via the read map), three iterations.
		{Op: isa.ADD, Dst: isa.IntReg(2), A: isa.IntReg(2), B: isa.IntReg(4)},
		{Op: isa.SUB, Dst: isa.IntReg(3), A: isa.IntReg(3), Imm: 1, UseImm: true},
		{Op: isa.BNE, A: isa.IntReg(3), Imm: 0, UseImm: true, Target: 4},
		{Op: isa.CONUSE, CIdx: [2]uint16{5}, CPhys: [2]uint16{12}, CClass: isa.ClassInt},
		{Op: isa.ADD, Dst: isa.IntReg(2), A: isa.IntReg(2), B: isa.IntReg(5)},
		{Op: isa.HALT},
	}
	anns := make([]codegen.Annot, len(code))
	for i := range anns {
		anns[i] = ann(codegen.NoVReg)
	}
	anns[2] = ann(7) // the connect-def serves vreg r7
	anns[7] = ann(9) // the connect-use serves vreg r9
	mp := &codegen.MProg{Entry: "t", IR: ir.NewProgram()}
	mp.Funcs = append(mp.Funcs, &codegen.MFunc{Name: "t", Code: code, Ann: anns})
	img, err := machine.Load(mp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.IssueRate = 2
	cfg.IntCore, cfg.IntTotal = 8, 16
	cfg.FPCore, cfg.FPTotal = 8, 16
	cfg.Probe = new(machine.PCProf)
	res, err := machine.Run(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RetInt != 28 {
		t.Fatalf("fixture returns %d, want 28", res.RetInt)
	}
	return img, res
}

func TestNewRequiresAttribution(t *testing.T) {
	img, res := fixture(t)
	if _, err := New(img, &machine.Result{}); err == nil {
		t.Error("New accepted a result without attribution")
	}
	if _, err := New(img, res); err != nil {
		t.Errorf("New rejected a profiled result: %v", err)
	}
}

func TestRollupsPartitionCycles(t *testing.T) {
	img, res := fixture(t)
	p, err := New(img, res)
	if err != nil {
		t.Fatal(err)
	}
	// Function rows partition the active cycles exactly: every attributed
	// cycle belongs to exactly one PC, hence one function.
	var fn int64
	for _, r := range p.Funcs() {
		fn += r.Cycles
	}
	if fn != res.ActiveCycles {
		t.Errorf("function rollup covers %d cycles, run has %d", fn, res.ActiveCycles)
	}
	var blk int64
	for _, r := range p.Blocks(0) {
		blk += r.Cycles
	}
	if blk != res.ActiveCycles {
		t.Errorf("block rollup covers %d cycles, run has %d", blk, res.ActiveCycles)
	}
}

func TestVRegAttribution(t *testing.T) {
	img, res := fixture(t)
	p, err := New(img, res)
	if err != nil {
		t.Fatal(err)
	}
	rows := p.VRegs()
	if len(rows) != 2 {
		t.Fatalf("vreg rows = %+v, want r7 and r9", rows)
	}
	seen := map[string]int64{}
	for _, r := range rows {
		seen[r.Name] = r.Instrs
	}
	// Each connect executes once (neither is inside the loop).
	if seen["t/r7"] != 1 || seen["t/r9"] != 1 {
		t.Errorf("vreg pair counts = %v, want t/r7:1 t/r9:1", seen)
	}
	// The vreg table's cycles are exactly the connect instructions' share.
	var vr int64
	for _, r := range rows {
		vr += r.Cycles
	}
	if co := p.ConnectOverhead(); vr != co.Cycles {
		t.Errorf("vreg cycles %d != connect overhead %d", vr, co.Cycles)
	}
}

func TestGoldenReport(t *testing.T) {
	img, res := fixture(t)
	p, err := New(img, res)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteReport(&buf, 5); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
