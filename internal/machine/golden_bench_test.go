package machine_test

import (
	"bytes"
	"reflect"
	"strings"
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
	ex := centerGrep(t)
	var buf bytes.Buffer
	tt := machine.NewTextTrace(&buf, 200, ex.Image)
	_, err := ex.Verify(tt)
	if err := tt.Close(err); err != nil {
		t.Fatal(err)
	}
	machine.CheckGolden(t, "grep_rc_200.txt", buf.Bytes())
}

// TestGrepEventRingGolden pins the Chrome trace-event export of a ring
// that wrapped: the last 256 events of grep's run.
func TestGrepEventRingGolden(t *testing.T) {
	ex := centerGrep(t)
	ring := machine.NewEventRing(256)
	if _, err := ex.Verify(ring); err != nil {
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

// TestComposedProbesGolden: one verified run carries every observer at
// once (machine.Probes), and each renders exactly what it renders alone:
// the text trace and the wrapped ring reproduce their goldens, and the
// PCProf, exported as Result.Prof, equals a lone PCProf's. A
// multiprogrammed run refuses a PCProf inside Probes as it refuses a lone
// one.
func TestComposedProbesGolden(t *testing.T) {
	ex := centerGrep(t)
	var text bytes.Buffer
	tt := machine.NewTextTrace(&text, 200, ex.Image)
	ring := machine.NewEventRing(256)
	pp := new(machine.PCProf)
	res, err := ex.Verify(tt, ring, pp)
	if err := tt.Close(err); err != nil {
		t.Fatal(err)
	}
	machine.CheckGolden(t, "grep_rc_200.txt", text.Bytes())
	var js bytes.Buffer
	if err := ring.WriteTraceJSON(&js, ex.Image); err != nil {
		t.Fatal(err)
	}
	machine.CheckGolden(t, "grep_rc_ring256.json", js.Bytes())
	if res.Prof != pp {
		t.Fatal("Result.Prof is not the PCProf among the probes")
	}
	alone := new(machine.PCProf)
	if _, err := ex.Verify(alone); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pp, alone) {
		t.Error("the composed PCProf differs from a lone PCProf of the same run")
	}

	// The executable's own machine configuration, as its trace records it.
	tr, err := ex.Trace("grep")
	if err != nil {
		t.Fatal(err)
	}
	cfg := tr.Config
	cfg.Probe = machine.Probes{machine.NewEventRing(0), new(machine.PCProf)}
	if _, err := machine.RunMultiprogrammed([]*machine.Image{ex.Image, ex.Image}, cfg, 1000, machine.FullSave); err == nil ||
		!strings.Contains(err.Error(), "PCProf") {
		t.Errorf("multiprogrammed run under Probes holding a PCProf: err %v, want the single-process refusal", err)
	}
}
