package machine

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"regconn/internal/isa"
)

// mispredictProg is a single guaranteed-mispredicted branch.
func mispredictProg() []isa.Instr {
	return []isa.Instr{
		movi(2, 1),
		{Op: isa.BEQ, A: isa.IntReg(2), Imm: 1, UseImm: true, Target: 3, Pred: false},
		movi(2, 99), // skipped
		halt(),
	}
}

// TestStallBranchCountsPenalty: the mispredict refill penalty must land in
// StallBranch (basePenalty cycles, +1 with the extra decode stage), and
// the ledger must close either way.
func TestStallBranchCountsPenalty(t *testing.T) {
	c := DefaultConfig()
	base := run(t, asm(mispredictProg()...), c)
	if base.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d", base.Mispredicts)
	}
	if base.StallBranch != basePenalty {
		t.Errorf("StallBranch = %d, want %d", base.StallBranch, int64(basePenalty))
	}
	cs := c
	cs.ExtraDecodeStage = true
	stage := run(t, asm(mispredictProg()...), cs)
	if stage.StallBranch != basePenalty+1 {
		t.Errorf("extra-stage StallBranch = %d, want %d", stage.StallBranch, int64(basePenalty+1))
	}
	for _, r := range []*Result{base, stage} {
		if err := r.CheckLedger(); err != nil {
			t.Error(err)
		}
		if r.ActiveCycles != r.Cycles {
			t.Errorf("active %d != cycles %d", r.ActiveCycles, r.Cycles)
		}
	}
}

// TestCheckAgainstCatchesDrift: a profiled run's per-PC columns sum to
// their ledger buckets, and drift between any column and its bucket is
// caught and named.
func TestCheckAgainstCatchesDrift(t *testing.T) {
	c := DefaultConfig()
	c.Probe = new(PCProf)
	res := run(t, asm(mispredictProg()...), c)
	p := res.Prof
	if err := p.CheckAgainst(res); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	for name, col := range map[string][]int64{
		"instrs": p.Instrs, "issue-cycles": p.IssueCycles, "stall-data": p.StallData,
		"stall-mem": p.StallMem, "stall-connect": p.StallConn, "stall-branch": p.StallBranch,
		"trap-overhead": p.TrapOverhead, "halt": p.Halt,
	} {
		col[1]++
		if err := p.CheckAgainst(res); err == nil || !strings.Contains(err.Error(), " "+name+" ") {
			t.Errorf("a corrupted %s column: err = %v", name, err)
		}
		col[1]--
	}
}

// TestIssueHistogram pins the per-cycle issue-slot utilization: four
// independent MOVIs at 4-issue fill one cycle completely, and the HALT
// fetch occupies a final zero-issue cycle attributed to HaltCycles.
func TestIssueHistogram(t *testing.T) {
	img := asm(movi(2, 1), movi(3, 2), movi(4, 3), movi(5, 4), halt())
	res := run(t, img, DefaultConfig())
	if res.Cycles != 2 {
		t.Fatalf("cycles = %d, want 2", res.Cycles)
	}
	if res.IssueHist[4] != 1 || res.IssueHist[0] != 1 {
		t.Errorf("issue hist = %v, want one full cycle and one halt cycle", res.IssueHist)
	}
	if res.HaltCycles != 1 {
		t.Errorf("halt cycles = %d, want 1", res.HaltCycles)
	}
	if err := res.CheckLedger(); err != nil {
		t.Error(err)
	}
}

// TestMapTelemetryCaptured: connects and model-3 automatic resets must
// show up in the map-table snapshot of the result.
func TestMapTelemetryCaptured(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.CONDEF, CIdx: [2]uint16{3}, CPhys: [2]uint16{10}, CClass: isa.ClassInt},
		movi(3, 7), // write through the diverted entry: model-3 auto reset
		add(2, 3, 0),
		halt(),
	}
	c := DefaultConfig()
	c.IntCore, c.IntTotal = 8, 16
	c.FPCore, c.FPTotal = 8, 16
	res := run(t, asm(prog...), c)
	if res.MapInt.ConnectDefs != 1 {
		t.Errorf("connect defs = %d, want 1", res.MapInt.ConnectDefs)
	}
	if res.MapInt.AutoResets == 0 {
		t.Error("model-3 write should have auto-reset the map")
	}
	if res.MapInt.GenAdvances == 0 {
		t.Error("generation counter never advanced")
	}
}

// TestMultiprogrammedLedger: the global clock must equal the processes'
// own active cycles plus switch overhead, with per-process ledgers closed.
func TestMultiprogrammedLedger(t *testing.T) {
	imgs := []*Image{rcProg(111, 2000), rcProg(222, 2000), coreProg(2000)}
	res, err := RunMultiprogrammed(imgs, multiCfg(), 300, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckLedger(); err != nil {
		t.Fatal(err)
	}
	if res.MapInt.Restores == 0 {
		t.Error("full-save switching should restore map contexts")
	}
}

// TestNoSwitchChargeAfterFinalHalt: once the last runnable process halts
// there is nothing to switch to, so the OS charges no further save cost.
// A single process that finishes inside its first quantum pays for no
// context switch at all.
func TestNoSwitchChargeAfterFinalHalt(t *testing.T) {
	res, err := RunMultiprogrammed([]*Image{coreProg(100)}, multiCfg(), 1<<20, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches != 0 || res.SwitchCycles != 0 {
		t.Errorf("lone process charged %d switches (%d cycles)", res.Switches, res.SwitchCycles)
	}
	if res.Cycles != res.Results[0].ActiveCycles {
		t.Errorf("global clock %d != process active cycles %d", res.Cycles, res.Results[0].ActiveCycles)
	}
	if err := res.CheckLedger(); err != nil {
		t.Error(err)
	}

	// Two processes that both halt in their first quantum: only the switch
	// away from the first is charged.
	two, err := RunMultiprogrammed([]*Image{coreProg(100), coreProg(100)}, multiCfg(), 1<<20, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	if two.Switches != 1 {
		t.Errorf("switches = %d, want 1 (no charge after the final halt)", two.Switches)
	}
	if err := two.CheckLedger(); err != nil {
		t.Error(err)
	}
}

// TestTraceStampsPrePenaltyCycle pins the mispredict trace fix: the
// branch's trace line carries the cycle it issued in, and the next line
// resumes after the penalty, keeping stamps strictly increasing.
func TestTraceStampsPrePenaltyCycle(t *testing.T) {
	img := asm(mispredictProg()...)
	if res := run(t, img, cfg1()); res.Mispredicts != 1 {
		t.Fatalf("mispredicts = %d", res.Mispredicts)
	}
	var stamps []int64
	for _, line := range strings.Split(strings.TrimSpace(textTrace(context.Background(), img, cfg1(), 0)), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		cyc, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		stamps = append(stamps, cyc)
	}
	// 1-issue: movi at 0, branch issues at 1 (penalty pushes the clock to
	// 4), halt fetched at 4.
	want := []int64{0, 1, 4}
	if len(stamps) != len(want) {
		t.Fatalf("trace stamps %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("trace stamps %v, want %v (branch line must carry the pre-penalty cycle)", stamps, want)
		}
	}
}
