package exp

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/core"
)

// gridPoint is one named point of the simulator grid.
type gridPoint struct {
	name string
	bm   bench.Benchmark
	arch regconn.Arch
}

// simulatorGrid is the grid testdata/simulator_grid.golden pins, 30 points
// per benchmark: the §5.3 baseline and issue {1,2,4,8} × every backend at
// the per-class 16/32 cores (perfbench's sweep-cold pass), then models 1,
// 2 and 4 and the extra decode stage at the center RC point, and the OS
// ablation's three context-switch and two trap cells. Together they reach
// the read-port hazard, chain forwarding, every issue width, every
// automatic-reset model, the mispredict penalty's extra stage and both
// trap paths.
func simulatorGrid() []gridPoint {
	var pts []gridPoint
	for _, bm := range bench.All() {
		add := func(name string, a regconn.Arch) {
			pts = append(pts, gridPoint{bm.Name + "/" + name, bm, a})
		}
		cores := core1632(bm)
		add("baseline", regconn.Baseline())
		for _, issue := range []int{1, 2, 4, 8} {
			for _, be := range []string{"spill", "rc", "portreduce", "chain", "unlimited"} {
				add(fmt.Sprintf("i%d/%s", issue, be), archFor(bm, cores, regconn.Arch{Issue: issue, LoadLatency: 2,
					Backend: be, CombineConnects: true}))
			}
		}
		rc := archFor(bm, cores, regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true})
		for _, m := range []core.Model{core.NoReset, core.WriteReset, core.ReadWriteReset} {
			a := rc
			a.Model = m
			add(fmt.Sprintf("model%d", m), a)
		}
		stage := rc
		stage.ExtraDecodeStage = true
		add("extra-stage", stage)
		orig := archFor(bm, cores, regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithoutRC})
		for _, sw := range []struct {
			name string
			base regconn.Arch
			psw  bool
		}{{"sw-orig", orig, true}, {"sw-rc", rc, true}, {"sw-noflag", orig, false}} {
			a := sw.base
			a.Trap = regconn.TrapConfig{Interval: 10000, ContextSwitch: true, PSWFlag: sw.psw}
			add("os/"+sw.name, a)
		}
		for _, tr := range []struct {
			name string
			flag bool
		}{{"trap-flag", true}, {"trap-naive", false}} {
			a := rc
			a.Trap = regconn.TrapConfig{Interval: 2000, HandlerCycles: 30, HandlerRegs: 8, UseEnableFlag: tr.flag}
			add("os/"+tr.name, a)
		}
	}
	return pts
}

// TestSimulatorGridGolden pins every simulated number of the grid: each
// line of testdata/simulator_grid.golden holds a point's name, its cycles
// and the SHA-256 of its machine.Stats JSON (ledger, issue histogram, op
// mix, map-table telemetry, chain and port counters). Each point is an
// oracle-checked RunPoint. Regenerate with
// `go test ./internal/exp -run SimulatorGridGolden -update` only for an
// intended change to simulated timing, and say why in the commit message.
func TestSimulatorGridGolden(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the 360-point grid is not -short and too slow under the race detector")
	}
	pts := simulatorGrid()
	lines := make([]string, len(pts))
	errs := make([]error, len(pts))
	r := &Runner{}
	ForEach(r.workers(), len(pts), func(i int) {
		res, err := RunPoint(context.Background(), pts[i].bm, pts[i].arch)
		if err != nil {
			errs[i] = err
			return
		}
		js, err := json.Marshal(res.Stats)
		if err != nil {
			errs[i] = err
			return
		}
		lines[i] = fmt.Sprintf("%s %d %x", pts[i].name, res.Cycles, sha256.Sum256(js))
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", pts[i].name, err)
		}
	}
	path := filepath.Join("testdata", "simulator_grid.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d points to %s", len(lines), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d points, grid has %d", len(want), len(lines))
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("drift:\n got %s\nwant %s", lines[i], want[i])
		}
	}
}

// BenchmarkSimulatorGrid times the cycle loop alone: every executable of
// the simulator grid is built before the timer starts, and each iteration
// runs all 360 of them, oracle-checked, on one warm arena. It reports
// simulated instructions per second of host time.
func BenchmarkSimulatorGrid(b *testing.B) {
	ctx := context.Background()
	var exes []*regconn.Executable
	for _, p := range simulatorGrid() {
		a := p.arch
		a.Verify = true
		ex, err := Build(ctx, p.bm, a)
		if err != nil {
			b.Fatalf("%s: %v", p.name, err)
		}
		exes = append(exes, ex)
	}
	arena := regconn.NewArena()
	var instrs int64
	for _, ex := range exes {
		res, err := arena.VerifyContext(ctx, ex)
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Instrs
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ex := range exes {
			if _, err := arena.VerifyContext(ctx, ex); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "sim-instrs/s")
}
