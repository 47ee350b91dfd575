package machine_test

import (
	"bytes"
	"testing"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/exp"
	"regconn/internal/machine"
)

// centerGrep builds grep at the golden grid's center point (4-issue,
// 2-cycle loads, 16 integer core registers, model-3 RC).
func centerGrep(t *testing.T) *regconn.Executable {
	t.Helper()
	bm, err := bench.ByName("grep")
	if err != nil {
		t.Fatal(err)
	}
	ex, err := regconn.Build(bm.Build(), exp.LedgerConfigs(bm)[0].Arch)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestGrepTextTraceGolden pins the first 200 cycles of grep's text trace.
func TestGrepTextTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if _, err := centerGrep(t).RunWithTrace(&buf, 200); err != nil {
		t.Fatal(err)
	}
	machine.CheckGolden(t, "grep_rc_200.txt", buf.Bytes())
}

// TestGrepEventRingGolden pins the Chrome trace-event export of a ring
// that wrapped: the last 256 events of grep's run.
func TestGrepEventRingGolden(t *testing.T) {
	ex := centerGrep(t)
	ring := machine.NewEventRing(256)
	if _, err := ex.RunWithEvents(ring); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() == 0 {
		t.Fatal("ring did not wrap")
	}
	var buf bytes.Buffer
	if err := ring.WriteTraceJSON(&buf, ex.Image); err != nil {
		t.Fatal(err)
	}
	machine.CheckGolden(t, "grep_rc_ring256.json", buf.Bytes())
}
