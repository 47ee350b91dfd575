package workload_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"regconn"
	"regconn/internal/isa"
	"regconn/internal/machine"
	"regconn/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenArch is the fixed configuration the golden-scenario pins run
// under: a representative wide-issue RC point.
func goldenArch() regconn.Arch {
	return regconn.Arch{Issue: 4, LoadLatency: 2, IntCore: 8, FPCore: 16,
		Mode: regconn.WithRC, Verify: true}
}

func TestProfileRegistry(t *testing.T) {
	names := workload.ProfileNames()
	if len(names) < 6 {
		t.Fatalf("only %d profiles registered: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate profile %q", n)
		}
		seen[n] = true
		if _, err := workload.ProfileByName(n); err != nil {
			t.Fatalf("ProfileByName(%q): %v", n, err)
		}
	}
	for _, want := range []string{"mixed", "call-heavy", "connect-heavy",
		"mispredict-heavy", "trap-heavy", "fp-heavy", "multiprogrammed"} {
		if !seen[want] {
			t.Errorf("profile %q missing from registry %v", want, names)
		}
	}
	if _, err := workload.ProfileByName("no-such-profile"); !errors.Is(err, workload.ErrBadSpec) {
		t.Errorf("unknown profile: got %v, want ErrBadSpec", err)
	}
}

func TestParseName(t *testing.T) {
	cases := []struct {
		name    string
		ok      bool
		wantErr bool
		spec    workload.Spec
	}{
		{"grep", false, false, workload.Spec{}},
		{"gen/mixed/42", true, false, workload.Spec{Profile: "mixed", Seed: 42}},
		{"gen/connect-heavy/0", true, false, workload.Spec{Profile: "connect-heavy", Seed: 0}},
		{"gen/", true, true, workload.Spec{}},
		{"gen/mixed", true, true, workload.Spec{}},
		{"gen/mixed/abc", true, true, workload.Spec{}},
		{"gen/mixed/-3", true, true, workload.Spec{}},
		{"gen/no-such/1", true, true, workload.Spec{}},
	}
	for _, c := range cases {
		s, ok, err := workload.ParseName(c.name)
		if ok != c.ok {
			t.Errorf("ParseName(%q): ok=%v, want %v", c.name, ok, c.ok)
			continue
		}
		if (err != nil) != c.wantErr {
			t.Errorf("ParseName(%q): err=%v, wantErr=%v", c.name, err, c.wantErr)
			continue
		}
		if c.wantErr && !errors.Is(err, workload.ErrBadSpec) {
			t.Errorf("ParseName(%q): err=%v, want ErrBadSpec", c.name, err)
		}
		if !c.wantErr && c.ok {
			if s != c.spec {
				t.Errorf("ParseName(%q) = %+v, want %+v", c.name, s, c.spec)
			}
			if got := s.Name(); got != c.name {
				t.Errorf("Spec.Name() = %q, want %q", got, c.name)
			}
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	for _, s := range []workload.Spec{
		{Profile: "no-such", Seed: 1},
		{Profile: "mixed", Seed: -1},
	} {
		if _, err := s.Generate(); !errors.Is(err, workload.ErrBadSpec) {
			t.Errorf("Generate(%+v): got %v, want ErrBadSpec", s, err)
		}
	}
}

// TestGenerateDeterminism pins the generator: one {profile, seed} names
// exactly one program, byte-identical however many times it is generated
// or built — the property every cache key and every golden file depends
// on.
func TestGenerateDeterminism(t *testing.T) {
	for _, pr := range workload.Profiles() {
		pr := pr
		t.Run(pr.Name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				s := workload.Spec{Profile: pr.Name, Seed: seed}
				b1, err := s.Generate()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				b2, err := s.Generate()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if b1.Expect != b2.Expect {
					t.Fatalf("seed %d: expect %d vs %d across generations", seed, b1.Expect, b2.Expect)
				}
				p1, p2 := b1.Build().String(), b2.Build().String()
				if p1 != p2 {
					t.Fatalf("seed %d: programs differ across generations", seed)
				}
				if again := b1.Build().String(); again != p1 {
					t.Fatalf("seed %d: repeated Build on one benchmark differs", seed)
				}
				if b1.FP != pr.FP {
					t.Fatalf("seed %d: FP class %v, profile says %v", seed, b1.FP, pr.FP)
				}
			}
		})
	}
}

func TestByNameResolvesBothNamespaces(t *testing.T) {
	if _, err := workload.ByName("grep"); err != nil {
		t.Errorf("paper benchmark: %v", err)
	}
	b, err := workload.ByName("gen/fp-heavy/5")
	if err != nil {
		t.Fatalf("generated workload: %v", err)
	}
	if b.Name != "gen/fp-heavy/5" || !b.FP {
		t.Errorf("resolved %q FP=%v, want gen/fp-heavy/5 FP=true", b.Name, b.FP)
	}
	if _, err := workload.ByName("gen/fp-heavy/oops"); !errors.Is(err, workload.ErrBadSpec) {
		t.Errorf("malformed gen name: got %v, want ErrBadSpec", err)
	}
	if _, err := workload.ByName("no-such-benchmark"); err == nil {
		t.Errorf("unknown plain name resolved")
	}
}

// encodeTrace builds a workload under the golden architecture and encodes
// its trace, returning the trace, the encoded bytes, and the key.
func encodeTrace(t *testing.T, name string) (*workload.Trace, []byte, string) {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	ex, err := regconn.Build(bm.Build(), goldenArch())
	if err != nil {
		t.Fatalf("build %s: %v", name, err)
	}
	tr, err := ex.Trace(name)
	if err != nil {
		t.Fatalf("trace %s: %v", name, err)
	}
	var buf bytes.Buffer
	key, err := tr.Encode(&buf)
	if err != nil {
		t.Fatalf("encode %s: %v", name, err)
	}
	return tr, buf.Bytes(), key
}

// TestTraceRoundTrip pins the trace pipeline end to end: encode → decode
// reproduces the trace and its key; replay reproduces the recorded
// result (return value, memory digest, cycle count) through the
// simulator without touching the IR pipeline; and re-encoding the
// decoded trace is byte-stable.
func TestTraceRoundTrip(t *testing.T) {
	tr, raw, key := encodeTrace(t, "gen/connect-heavy/3")
	dt, gotKey, err := workload.DecodeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotKey != key {
		t.Fatalf("decoded key %s, encoded %s", gotKey, key)
	}
	if dt.Name != tr.Name || dt.Expect != tr.Expect || dt.Cycles != tr.Cycles {
		t.Fatalf("decoded trace differs: %+v vs %+v", dt, tr)
	}
	res, err := dt.Replay(context.Background())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.RetInt != tr.Expect || res.Cycles != tr.Cycles {
		t.Fatalf("replay ret=%d cycles=%d, trace recorded ret=%d cycles=%d",
			res.RetInt, res.Cycles, tr.Expect, tr.Cycles)
	}
	var buf2 bytes.Buffer
	key2, err := dt.Encode(&buf2)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if key2 != key || !bytes.Equal(buf2.Bytes(), raw) {
		t.Fatalf("re-encode not byte-stable (key %s vs %s)", key2, key)
	}
}

// TestTraceV1Compat pins format-1 compatibility with a checked-in trace of
// gen/mixed/0 (`rcrun -bench gen/mixed/0 -emit-trace`) whose config
// payload carries the observer fields machine.Config serialized at the
// time. However the config struct evolves, DecodeTrace ignores fields it
// no longer knows, so the file must keep decoding under its original key,
// replay against its recorded oracle, and reproduce its recorded cycle and
// instruction counts.
func TestTraceV1Compat(t *testing.T) {
	raw := readFixture(t, "v1_mixed0.rctrace")
	if !bytes.Contains(raw, []byte(`"Trace":null,"TraceCycles":0,"Prof":false,"Events":null`)) {
		t.Fatal("fixture lacks the observer fields it exists to cover")
	}
	tr, key, err := workload.DecodeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	const wantKey = "6cfe5231fe7800d144bb43351c9e8fed1334c181d8938609d94f313df1a7d2d7"
	if key != wantKey {
		t.Errorf("key %s, want the original %s", key, wantKey)
	}
	if tr.Name != "gen/mixed/0" || tr.Cycles != 10 || tr.Instrs != 30 {
		t.Fatalf("decoded %s with %d cycles / %d instrs, want gen/mixed/0 with 10 / 30", tr.Name, tr.Cycles, tr.Instrs)
	}
	// Replay checks the oracle's return value and memory digest, the
	// recorded counts, and the cycle ledger.
	res, err := tr.Replay(context.Background())
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.RetInt != tr.Expect || res.Cycles != tr.Cycles || res.Instrs != tr.Instrs {
		t.Fatalf("replay ret=%d cycles=%d instrs=%d, recorded %d/%d/%d",
			res.RetInt, res.Cycles, res.Instrs, tr.Expect, tr.Cycles, tr.Instrs)
	}
}

// TestTraceReplayOnPaperBenchmark replays a hand-written benchmark's
// trace, proving the format is not generator-specific.
func TestTraceReplayOnPaperBenchmark(t *testing.T) {
	_, raw, _ := encodeTrace(t, "grep")
	dt, _, err := workload.DecodeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if _, err := dt.Replay(context.Background()); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// TestTraceCorruption pins the decoder's failure behavior: corrupt,
// truncated, or structurally invalid inputs return structured ErrBadTrace
// errors — never a panic, never a silent success.
func TestTraceCorruption(t *testing.T) {
	tr, raw, _ := encodeTrace(t, "gen/mixed/0")
	headerLen := bytes.IndexByte(raw, '\n') + 1

	reencode := func(mutate func(c workload.Trace) workload.Trace) []byte {
		c := mutate(*tr)
		var buf bytes.Buffer
		if _, err := c.Encode(&buf); err != nil {
			t.Fatalf("re-encode mutant: %v", err)
		}
		return buf.Bytes()
	}
	// instr re-encodes the trace with the first instruction pick accepts
	// edited, on a copy of the code so the cases stay independent.
	instr := func(pick func(*isa.Instr) bool, edit func(*isa.Instr)) []byte {
		return reencode(func(c workload.Trace) workload.Trace {
			c.Code = append([]isa.Instr(nil), c.Code...)
			for i := range c.Code {
				if pick(&c.Code[i]) {
					edit(&c.Code[i])
					return c
				}
			}
			t.Fatal("no instruction to edit")
			return c
		})
	}
	connect := func(in *isa.Instr) bool { return in.Op.Meta().NPairs > 0 }

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"no newline", []byte("rctrace 1 10 abcd")},
		{"bad magic", append([]byte("nottrace 1 5 abcde\n"), raw[headerLen:]...)},
		{"bad version", append([]byte(fmt.Sprintf("rctrace 99 %d deadbeef\n", len(raw)-headerLen)), raw[headerLen:]...)},
		{"garbage header", []byte("rctrace one two three\n")},
		{"negative length", []byte("rctrace 1 -5 abcd\n")},
		{"huge length", []byte("rctrace 1 999999999999 abcd\n")},
		{"truncated payload", raw[:len(raw)-10]},
		{"bitflip in payload", func() []byte {
			b := append([]byte(nil), raw...)
			b[headerLen+len(b[headerLen:])/2] ^= 0x40
			return b
		}()},
		{"entry pc out of range", reencode(func(c workload.Trace) workload.Trace {
			c.EntryPC = len(c.Code) + 7
			return c
		})},
		{"annotation mismatch", reencode(func(c workload.Trace) workload.Trace {
			c.Ann = c.Ann[:len(c.Ann)-1]
			return c
		})},
		{"empty code", reencode(func(c workload.Trace) workload.Trace {
			c.Code = nil
			c.Ann = nil
			c.EntryPC = 0
			return c
		})},
		{"zero issue rate", reencode(func(c workload.Trace) workload.Trace {
			c.Config.IssueRate = 0
			return c
		})},
		// Operands outside the recorded register files used to pass the
		// checksum and then panic the simulator mid-replay.
		{"dst beyond map", instr(func(in *isa.Instr) bool { return in.Dst.Valid() },
			func(in *isa.Instr) { in.Dst.N = 250 })},
		{"negative src", instr(func(in *isa.Instr) bool { return in.A.Valid() },
			func(in *isa.Instr) { in.A.N = -1 })},
		{"src b beyond map", instr(func(in *isa.Instr) bool { return in.B.Valid() },
			func(in *isa.Instr) { in.B.N = 250 })},
		{"connect index beyond map", instr(connect, func(in *isa.Instr) { in.CIdx[0] = 250 })},
		{"connect phys beyond file", instr(connect, func(in *isa.Instr) { in.CPhys[0] = 60000 })},
		{"core above total", reencode(func(c workload.Trace) workload.Trace {
			c.Config.IntCore = c.Config.IntTotal + 1
			return c
		})},
		{"zero fp core", reencode(func(c workload.Trace) workload.Trace {
			c.Config.FPCore = 0
			return c
		})},
		{"memory size above cap", reencode(func(c workload.Trace) workload.Trace {
			c.Config.MemSize = 1 << 40
			return c
		})},
		{"negative memory size", reencode(func(c workload.Trace) workload.Trace {
			c.Config.MemSize = -8
			return c
		})},
		// A negative trap handler ran the replay's cycle loop backwards,
		// past its deadline; an issue rate of 1e9 allocated an 8 GB
		// issue histogram on the first replay.
		{"negative handler cycles", reencode(func(c workload.Trace) workload.Trace {
			c.Config.Trap = machine.TrapConfig{Interval: 1, HandlerCycles: -5000}
			return c
		})},
		{"handler registers above cap", reencode(func(c workload.Trace) workload.Trace {
			c.Config.Trap = machine.TrapConfig{Interval: 1000, HandlerRegs: machine.MaxTrapHandler + 1}
			return c
		})},
		{"issue rate above cap", reencode(func(c workload.Trace) workload.Trace {
			c.Config.IssueRate = 1000000000
			return c
		})},
		// Class-mismatched operands inside their class's map used to pass
		// and then panic replay: the simulator reads a slot by the class
		// its opcode implies (LD's base is an integer register).
		{"ld base of float class", readFixture(t, "bad_class.rctrace")},
		{"add dst of float class", instr(func(in *isa.Instr) bool { return in.Op == isa.ADD },
			func(in *isa.Instr) { in.Dst = isa.FloatReg(31) })},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) {
			_, _, err := workload.DecodeTrace(bytes.NewReader(c.data))
			if !errors.Is(err, workload.ErrBadTrace) {
				t.Fatalf("got %v, want ErrBadTrace", err)
			}
		})
	}
}

// readFixture returns a file under testdata.
func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestImagesAreSparse pins the memory images this package builds to the
// pages their programs store to: generating a workload (its oracle
// interpreter run) and replaying a trace (a fresh machine) each allocate
// under 1 MiB, not a 16 MiB image.
func TestImagesAreSparse(t *testing.T) {
	tr, _, err := workload.DecodeTrace(bytes.NewReader(readFixture(t, "v1_mixed0.rctrace")))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"generate gen/mixed/0", func() error {
			_, err := workload.ByName("gen/mixed/0")
			return err
		}},
		{"replay v1_mixed0", func() error {
			_, err := tr.Replay(context.Background())
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s allocates %d bytes, want under 1 MiB", c.name, n)
		}
	}
}

// TestGoldenScenarios pins one scenario per profile — program checksum,
// cycle count, and instruction count under a fixed architecture — against
// a golden file. Any change to the generator, the compiler, or the
// simulator that shifts a generated workload's behavior must consciously
// update the golden (go test ./internal/workload -run Golden -update).
func TestGoldenScenarios(t *testing.T) {
	var sb strings.Builder
	for _, pr := range workload.Profiles() {
		s := workload.Spec{Profile: pr.Name, Seed: 0}
		bm, err := s.Generate()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		ex, err := regconn.Build(bm.Build(), goldenArch())
		if err != nil {
			t.Fatalf("%s: build: %v", s.Name(), err)
		}
		res, err := ex.Verify()
		if err != nil {
			t.Fatalf("%s: verify: %v", s.Name(), err)
		}
		if err := res.CheckLedger(); err != nil {
			t.Fatalf("%s: ledger: %v", s.Name(), err)
		}
		fmt.Fprintf(&sb, "%s expect=%d cycles=%d instrs=%d\n",
			bm.Name, bm.Expect, res.Cycles, res.Instrs)
	}
	got := sb.String()
	golden := filepath.Join("testdata", "scenarios.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("golden scenarios drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
