package machine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"regconn/internal/codegen"
	"regconn/internal/core"
	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/mem"
)

// loopImg counts r3 down from n: a program whose runtime scales with n, for
// cancellation and long-trace tests.
func loopImg(n int64) *Image {
	return asm(
		movi(3, n),
		movi(4, 0),
		addi(3, 3, -1),
		isa.Instr{Op: isa.BNE, A: isa.IntReg(3), B: isa.IntReg(4), Target: 2},
		halt(),
	)
}

// wildStoreImg stores to addr (pc=1 is the faulting instruction).
func wildStoreImg(addr int64) *Image {
	return asm(
		movi(2, addr),
		isa.Instr{Op: isa.ST, A: isa.IntReg(2), B: isa.IntReg(2), Imm: 0},
		halt(),
	)
}

func TestWildStoreReturnsRuntimeError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		addr   int64
		reason string
	}{
		{"out-of-range", mem.DefaultSize + 8, "out of range"},
		{"negative", -16, "out of range"},
		{"unaligned", 1001, "unaligned access"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(wildStoreImg(tc.addr), cfg1())
			if res != nil {
				t.Fatalf("got result %+v alongside fault", res)
			}
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("error is %T (%v), want *RuntimeError", err, err)
			}
			if re.Func != "t" || re.PC != 1 {
				t.Errorf("fault located at %s pc=%d, want t pc=1", re.Func, re.PC)
			}
			var f *mem.Fault
			if !errors.As(err, &f) {
				t.Fatalf("RuntimeError does not wrap *mem.Fault: %v", err)
			}
			if f.Reason != tc.reason || f.Addr != tc.addr {
				t.Errorf("fault = %v, want addr %#x %s", f, tc.addr, tc.reason)
			}
		})
	}
}

// TestMemSizeBounds pins mem.MaxSize at the simulator's config check: a
// negative size or one above the cap is a config error before any image
// exists, never a guest fault, and the cap itself runs (its last word
// stores).
func TestMemSizeBounds(t *testing.T) {
	for _, tc := range []struct {
		size int64
		ok   bool
	}{{-8, false}, {mem.MaxSize + 8, false}, {1 << 40, false}, {mem.MaxSize, true}} {
		c := cfg1()
		c.MemSize = tc.size
		_, err := Run(wildStoreImg(tc.size-8), c)
		if (err == nil) != tc.ok {
			t.Errorf("MemSize %d: error %v, want ok=%v", tc.size, err, tc.ok)
		}
		var re *RuntimeError
		if errors.As(err, &re) {
			t.Errorf("MemSize %d: %v is a guest fault, want a config error", tc.size, err)
		}
	}
}

// TestResetRejectsInadmissibleCode pins the simulator's admission check:
// code or a configuration it cannot run — an operand outside its map or of
// the wrong class, a target outside the code, IR call arguments, a register
// file outside 1 <= core <= total <= core.MaxRegs — fails Check and Reset
// with an error before any state is touched, never a host panic, and the
// arena stays usable afterwards.
func TestResetRejectsInadmissibleCode(t *testing.T) {
	cfg := cfg1()
	cfg.IntCore, cfg.FPCore = 8, 8
	ok := asm(movi(2, 5), halt())
	for _, tc := range []struct {
		name string
		img  *Image
		edit func(*Config)
	}{
		{"register beyond map", asm(movi(20, 5), halt()), nil},
		{"float base for ld", asm(isa.Instr{Op: isa.LD, Dst: isa.IntReg(2), A: isa.FloatReg(3)}, halt()), nil},
		{"float dst for add", asm(isa.Instr{Op: isa.ADD, Dst: isa.FloatReg(7), A: isa.IntReg(2), B: isa.IntReg(2)}, halt()), nil},
		{"missing source", asm(isa.Instr{Op: isa.ADD, Dst: isa.IntReg(2), A: isa.IntReg(2)}, halt()), nil},
		{"unknown opcode", asm(isa.Instr{Op: isa.Op(isa.NumOps)}, halt()), nil},
		{"connect beyond file", asm(isa.Instr{Op: isa.CONUSE, CIdx: [2]uint16{1}, CPhys: [2]uint16{300}}, halt()), nil},
		{"branch outside code", asm(isa.Instr{Op: isa.BR, Target: 9}, halt()), nil},
		{"call arguments", asm(isa.Instr{Op: isa.CALL, Sym: "t", Args: []isa.Reg{isa.IntReg(2)}}, halt()), nil},
		{"zero int core", ok, func(c *Config) { c.IntCore = 0 }},
		{"total below core", ok, func(c *Config) { c.IntTotal = 4 }},
		{"total above cap", ok, func(c *Config) { c.FPTotal = core.MaxRegs + 1 }},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			c := cfg
			if tc.edit != nil {
				tc.edit(&c)
			}
			if err := Check(tc.img.Code, c); err == nil {
				t.Error("Check admitted it")
			}
			if _, err := RunMultiprogrammed([]*Image{ok, tc.img}, c, 50, FullSave); err == nil {
				t.Error("the multiprogrammed entry admitted it")
			}
			m := NewMachine()
			if err := m.Reset(tc.img, c); err == nil {
				t.Fatal("Reset admitted it")
			}
			if _, err := m.Run(); !errors.Is(err, errNotReset) {
				t.Fatalf("run after a rejected Reset: %v, want errNotReset", err)
			}
			if err := m.Reset(ok, cfg); err != nil {
				t.Fatalf("Reset after a rejection: %v", err)
			}
			if res, err := m.Run(); err != nil || res.RetInt != 5 {
				t.Fatalf("run after a rejection: %v, %v", res, err)
			}
		})
	}
}

func TestInitFaultReturnsRuntimeError(t *testing.T) {
	// A global whose initializer lands beyond MemSize makes image setup
	// itself fault, before any instruction issues.
	p := ir.NewProgram()
	g := p.AddGlobal("big", 64)
	g.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	mp := &codegen.MProg{Entry: "t", IR: p}
	mp.Funcs = append(mp.Funcs, &codegen.MFunc{Name: "t", Code: []isa.Instr{halt()}, Ann: make([]codegen.Annot, 1)})
	img, err := Load(mp)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg1()
	c.MemSize = mem.GlobalBase // global data starts exactly at the end: first store faults
	res, err := Run(img, c)
	if res != nil || err == nil {
		t.Fatalf("Run = %v, %v; want nil result and an error", res, err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("init fault surfaced as %T (%v), want *RuntimeError", err, err)
	}
	if re.Func != "(init)" || re.PC != -1 {
		t.Errorf("init fault located at %q pc=%d, want (init) pc=-1", re.Func, re.PC)
	}
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Fatalf("init RuntimeError does not wrap *mem.Fault: %v", err)
	}
	mres, err := RunMultiprogrammed([]*Image{img}, c, 100, FullSave)
	if mres != nil || !errors.As(err, &re) || re.Func != "(init)" {
		t.Fatalf("RunMultiprogrammed = %v, %v; want nil result and an (init) RuntimeError", mres, err)
	}
}

func TestRunContextCancelStopsEarly(t *testing.T) {
	const n = 100_000
	full, err := Run(loopImg(n), cfg1())
	if err != nil {
		t.Fatal(err)
	}
	if full.Cycles < 2*n {
		t.Fatalf("loop program too short to observe cancellation: %d cycles", full.Cycles)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, loopImg(n), cfg1())
	if res != nil || err == nil {
		t.Fatalf("RunContext = %v, %v; want nil result and an error", res, err)
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation error = %v; want to match ErrCanceled and context.Canceled", err)
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("cancellation surfaced as %T, want *RuntimeError", err)
	}
	if re.Cycle > 2*cancelCheckInterval {
		t.Errorf("run canceled at cycle %d, want within %d (poll stride %d)",
			re.Cycle, 2*cancelCheckInterval, cancelCheckInterval)
	}
	if full.Cycles <= re.Cycle {
		t.Errorf("canceled run (%d cycles) did not stop before the full run (%d)", re.Cycle, full.Cycles)
	}
}

func TestRunContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	_, err := RunContext(ctx, loopImg(100_000), cfg1())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want to match context.DeadlineExceeded", err)
	}
}

func TestRunMultiprogrammedContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	imgs := []*Image{loopImg(100_000), loopImg(100_000)}
	res, err := RunMultiprogrammedContext(ctx, imgs, cfg1(), 1000, FullSave)
	if res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("RunMultiprogrammedContext = %v, %v; want nil and ErrCanceled", res, err)
	}
}

func TestTraceTailOnFault(t *testing.T) {
	out := textTrace(context.Background(), wildStoreImg(mem.DefaultSize+8), cfg1(), 0)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "!!") || !strings.Contains(last, "memory fault") {
		t.Fatalf("trace tail does not show the fault:\n%s", out)
	}
	if !strings.Contains(last, "1:") || !strings.Contains(last, "st") {
		t.Errorf("trace tail does not name the faulting instruction: %q", last)
	}
}

func TestTraceFileSyncedOnFault(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "trace-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	img := wildStoreImg(mem.DefaultSize + 8)
	tt := NewTextTrace(f, 0, img)
	c := cfg1()
	c.Probe = tt
	_, err = Run(img, c)
	if err = tt.Close(err); err == nil {
		t.Fatal("wild store did not fail")
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "memory fault") {
		t.Fatalf("file trace lost its tail:\n%s", data)
	}
}

// failWriter rejects every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestTextTraceFlushError: a trace that cannot be written fails an
// otherwise successful run through Close, which keeps the run's own error
// when there is one.
func TestTextTraceFlushError(t *testing.T) {
	img := asm(movi(2, 1), halt())
	tt := NewTextTrace(failWriter{}, 0, img)
	c := cfg1()
	c.Probe = tt
	res, err := Run(img, c)
	if res == nil || err != nil {
		t.Fatalf("run = %v, %v; want a result", res, err)
	}
	if err := tt.Close(nil); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close = %v, want the write failure", err)
	}
	runErr := errors.New("run failed")
	if err := tt.Close(runErr); err != runErr {
		t.Errorf("Close(runErr) = %v, want runErr", err)
	}
}

func TestEventRingZeroValue(t *testing.T) {
	// Config.Probe = &EventRing{} must behave like a default-capacity ring,
	// not panic on the first event.
	ring := &EventRing{}
	c := cfg1()
	c.Probe = ring
	img := asm(movi(2, 1), add(3, 2, 2), halt())
	if _, err := Run(img, c); err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("zero-value ring recorded no events")
	}
	if ring.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", ring.Dropped())
	}
	if evs[len(evs)-1].Kind != EvHalt {
		t.Errorf("last event kind = %d, want EvHalt", evs[len(evs)-1].Kind)
	}
}

func TestEventRingWraparound(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 7; i++ {
		r.Event(Event{Kind: EvIssue, Cycle: int64(i), PC: int32(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d entries, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(i + 3); e.Cycle != want {
			t.Errorf("event %d has cycle %d, want %d (oldest retained is event 3)", i, e.Cycle, want)
		}
	}
	if r.Dropped() != 3 {
		t.Errorf("Dropped = %d, want 3", r.Dropped())
	}
}

func TestEventRingPartialFill(t *testing.T) {
	r := NewEventRing(8)
	for i := 0; i < 3; i++ {
		r.Event(Event{Cycle: int64(i)})
	}
	if evs := r.Events(); len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Fatalf("partial ring Events = %v", evs)
	}
	if r.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", r.Dropped())
	}
	if evs := NewEventRing(4).Events(); len(evs) != 0 {
		t.Errorf("empty ring Events = %v, want none", evs)
	}
}

func TestWriteTraceJSONAfterWraparound(t *testing.T) {
	// Drive a real run into a tiny ring so it wraps, then check the exported
	// Chrome trace: timestamps must be monotonic and must not predate the
	// oldest retained event.
	ring := NewEventRing(16)
	c := cfg1()
	c.Probe = ring
	img := loopImg(50)
	if _, err := Run(img, c); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() == 0 {
		t.Fatal("ring did not wrap; enlarge the loop")
	}
	oldest := ring.Events()[0].Cycle

	var buf bytes.Buffer
	if err := ring.WriteTraceJSON(&buf, img); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			Ts int64  `json:"ts"`
		} `json:"traceEvents"`
		OtherData struct {
			Dropped int64 `json:"events_dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.Dropped != ring.Dropped() {
		t.Errorf("exported dropped count %d, want %d", doc.OtherData.Dropped, ring.Dropped())
	}
	prev := int64(-1)
	for _, te := range doc.TraceEvents {
		if te.Ph == "M" {
			continue
		}
		if te.Ts < oldest {
			t.Fatalf("exported event at ts=%d predates the oldest retained event (cycle %d): overwritten slot leaked", te.Ts, oldest)
		}
		if te.Ts < prev {
			t.Fatalf("trace timestamps not monotonic: %d after %d", te.Ts, prev)
		}
		prev = te.Ts
	}
}
