package machine

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regconn/internal/isa"
	"regconn/internal/mem"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update. A mismatch reports the first differing line.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s differs from the golden at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// CheckGolden exports checkGolden to the package's external tests.
var CheckGolden = checkGolden

// textTrace runs img under c with the per-cycle text trace attached for
// the first cycles cycles (0 = all) and returns what the trace wrote,
// whatever the run's outcome.
func textTrace(ctx context.Context, img *Image, c Config, cycles int64) string {
	var buf bytes.Buffer
	tt := NewTextTrace(&buf, cycles, img)
	c.Probe = tt
	_, err := RunContext(ctx, img, c)
	_ = tt.Close(err) // a failure shows as the trace's tail
	return buf.String()
}

// kindsProg exercises the text-trace lines the cycle loop produces: issue
// groups cut short by a data dependence, by the single memory channel and
// by the 1-cycle connect interlock (neither of the last two can open a
// zero-issue cycle, because both only bind after something issued), a
// zero-issue data stall, a mispredicted branch whose successor line
// resumes after the refill penalty, trap gaps in the cycle stamps, and
// the HALT fetch in the same cycle as the final add.
func kindsProg() []isa.Instr {
	return []isa.Instr{
		movi(3, 64),
		{Op: isa.ST, A: isa.IntReg(3), B: isa.IntReg(3), Imm: 0}, // waits for r3
		{Op: isa.ST, A: isa.IntReg(3), B: isa.IntReg(3), Imm: 8}, // one memory channel
		{Op: isa.LD, Dst: isa.IntReg(4), A: isa.IntReg(3), Imm: 8},
		add(5, 4, 4), // load-use: a zero-issue data stall
		{Op: isa.CONDEF, CIdx: [2]uint16{6}, CPhys: [2]uint16{40}, CClass: isa.ClassInt},
		movi(6, 5), // same map entry as the connect: waits a cycle
		{Op: isa.BEQ, A: isa.IntReg(5), Imm: 128, UseImm: true, Target: 9, Pred: false},
		movi(2, 99), // skipped by the taken, mispredicted branch
		add(2, 6, 5),
		halt(),
	}
}

func kindsCfg() Config {
	c := DefaultConfig()
	c.IssueRate = 2
	c.MemChannels = 1
	c.ConnectLatency = 1
	c.Lat.Connect = 1
	c.Trap = TrapConfig{Interval: 5, HandlerCycles: 3}
	return c
}

// TestTextTraceGolden pins the text trace's output: every line kind of a
// hand-assembled program, the fault tail of a wild store, and the tail of
// a run canceled before it started (the cycle loop polls its context
// every cancelCheckInterval cycles, so it stops at cycle 4096).
func TestTextTraceGolden(t *testing.T) {
	bg := context.Background()
	var out strings.Builder
	out.WriteString("== line kinds (2-issue, 1 memory channel, 1-cycle connects, trap every 5 cycles) ==\n")
	out.WriteString(textTrace(bg, asm(kindsProg()...), kindsCfg(), 0))
	out.WriteString("== wild store fault tail ==\n")
	out.WriteString(textTrace(bg, wildStoreImg(mem.DefaultSize+8), cfg1(), 0))
	out.WriteString("== pre-canceled run, last two lines ==\n")
	ctx, cancel := context.WithCancel(bg)
	cancel()
	lines := strings.SplitAfter(textTrace(ctx, loopImg(100_000), cfg1(), 0), "\n")
	if len(lines) < 3 {
		t.Fatalf("canceled run traced %d lines", len(lines))
	}
	out.WriteString(strings.Join(lines[len(lines)-3:], ""))
	checkGolden(t, "text_trace.golden", []byte(out.String()))
}

// TestTraceHaltCycleLine: instructions issued before the HALT in its
// cycle stay on the trace's last line.
func TestTraceHaltCycleLine(t *testing.T) {
	c := DefaultConfig()
	c.IssueRate = 4
	out := textTrace(context.Background(), asm(movi(2, 1), movi(3, 5), add(4, 2, 3), halt()), c, 0)
	want := "       0  0:movi r2, #1 | 1:movi r3, #5\n       1  2:add r4, r2, r3 | halt\n"
	if out != want {
		t.Errorf("trace:\n%s\nwant:\n%s", out, want)
	}
}

// TestMultiprogrammedEventsGolden pins the Chrome trace-event export of a
// two-process run, including its context-switch events.
func TestMultiprogrammedEventsGolden(t *testing.T) {
	ring := NewEventRing(0)
	c := multiCfg()
	c.Probe = ring
	imgs := []*Image{rcProg(111, 12), coreProg(12)}
	res, err := RunMultiprogrammed(imgs, c, 16, FullSave)
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 || ring.Dropped() != 0 {
		t.Fatalf("%d switches, %d dropped events: want switches and no drops", res.Switches, ring.Dropped())
	}
	var buf bytes.Buffer
	if err := ring.WriteTraceJSON(&buf, imgs...); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "multi_events.json", buf.Bytes())
}
