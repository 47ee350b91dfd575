package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"regconn"
	"regconn/internal/isa"
	"regconn/internal/mem"
	"regconn/internal/workload"
)

// postRaw POSTs arbitrary bytes to a path and returns status + body.
func postRaw(t *testing.T, srv *httptest.Server, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Post(srv.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// TestRunWorkloadSpec pins the workload contract on /v1/run: a spec and
// its canonical gen/ name are one point — same key, one cache entry — and
// the warm hit is byte-identical.
func TestRunWorkloadSpec(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	spec := &workload.Spec{Profile: "connect-heavy", Seed: 7}
	resp, cold := postRun(t, srv, RunRequest{Workload: spec, Arch: fastArch()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spec run: status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("cold spec run: X-Cache %q", got)
	}
	var rr RunResponse
	if err := json.Unmarshal(cold, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Benchmark != "gen/connect-heavy/7" {
		t.Fatalf("response benchmark %q, want canonical gen name", rr.Benchmark)
	}
	if want := Key("gen/connect-heavy/7", fastArch()); rr.Key != want {
		t.Fatalf("key %s, want canonical name's key %s", rr.Key, want)
	}

	// The same workload by its gen/ name must be a warm, byte-identical hit.
	resp2, warm := postRun(t, srv, RunRequest{Benchmark: "gen/connect-heavy/7", Arch: fastArch()})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("name run: status %d: %s", resp2.StatusCode, warm)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("name spelling of the same point: X-Cache %q, want HIT", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("spec and name spellings returned different bytes")
	}
}

// TestRunWorkloadValidation pins the serve boundary's failure behavior for
// workload specs: every malformed spelling is a structured 400 with an
// error body, never a panic or a 500.
func TestRunWorkloadValidation(t *testing.T) {
	sv := newServer(t, Config{Workers: 1})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	cases := []struct {
		name string
		req  RunRequest
	}{
		{"unknown profile", RunRequest{Workload: &workload.Spec{Profile: "no-such", Seed: 1}, Arch: fastArch()}},
		{"negative seed", RunRequest{Workload: &workload.Spec{Profile: "mixed", Seed: -4}, Arch: fastArch()}},
		{"empty spec", RunRequest{Workload: &workload.Spec{}, Arch: fastArch()}},
		{"conflicting benchmark and workload", RunRequest{Benchmark: "grep",
			Workload: &workload.Spec{Profile: "mixed", Seed: 1}, Arch: fastArch()}},
		{"malformed gen name", RunRequest{Benchmark: "gen/mixed/xyz", Arch: fastArch()}},
		{"unknown gen profile", RunRequest{Benchmark: "gen/no-such/3", Arch: fastArch()}},
		{"memory size above cap", RunRequest{Benchmark: "grep", Arch: memSizeArch(1 << 40)}},
		{"negative memory size", RunRequest{Benchmark: "grep", Arch: memSizeArch(-8)}},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) {
			resp, body := postRun(t, srv, c.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("expected structured error body, got %s (err %v)", body, err)
			}
		})
	}
}

// TestSweepWorkloads pins workload specs in sweep requests: the Workloads
// cross product and explicit workload points both stream results keyed by
// canonical gen/ names, and a bad spec anywhere fails the sweep up front
// with a 400.
func TestSweepWorkloads(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"grep"},
		Workloads:  []workload.Spec{{Profile: "mixed", Seed: 0}, {Profile: "call-heavy", Seed: 1}},
		Archs:      []regconn.Arch{fastArch()},
	})
	resp, out := postRaw(t, srv, "/v1/sweep", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", resp.StatusCode, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3: %s", len(lines), out)
	}
	wantNames := []string{"grep", "gen/mixed/0", "gen/call-heavy/1"}
	for i, ln := range lines {
		var rr RunResponse
		if err := json.Unmarshal([]byte(ln), &rr); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if rr.Benchmark != wantNames[i] || rr.Result == nil {
			t.Fatalf("line %d: benchmark %q result %v, want %q", i, rr.Benchmark, rr.Result, wantNames[i])
		}
	}

	// Explicit points with workload specs.
	body, _ = json.Marshal(SweepRequest{Points: []SweepPoint{
		{Workload: &workload.Spec{Profile: "mixed", Seed: 0}, Arch: fastArch()},
	}})
	resp, out = postRaw(t, srv, "/v1/sweep", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("points sweep: status %d: %s", resp.StatusCode, out)
	}
	var rr RunResponse
	if err := json.Unmarshal(bytes.TrimSpace(out), &rr); err != nil || rr.Benchmark != "gen/mixed/0" {
		t.Fatalf("points sweep line %s (err %v)", out, err)
	}

	// A bad spec fails the whole sweep before any point runs.
	body, _ = json.Marshal(SweepRequest{
		Workloads: []workload.Spec{{Profile: "no-such", Seed: 0}},
		Archs:     []regconn.Arch{fastArch()},
	})
	resp, out = postRaw(t, srv, "/v1/sweep", "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec sweep: status %d, want 400: %s", resp.StatusCode, out)
	}

	// So does an arch whose memory image the simulator would refuse.
	body, _ = json.Marshal(SweepRequest{
		Benchmarks: []string{"grep"},
		Archs:      []regconn.Arch{fastArch(), memSizeArch(1 << 40)},
	})
	resp, out = postRaw(t, srv, "/v1/sweep", "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("memory size sweep: status %d, want 400: %s", resp.StatusCode, out)
	}
}

// memSizeArch is fastArch with the given memory image size.
func memSizeArch(size int64) regconn.Arch {
	a := fastArch()
	a.MemSize = size
	return a
}

// editedTrace decodes an encoded trace, applies edit and re-encodes it
// with a fresh checksum, as a hostile client could.
func editedTrace(t *testing.T, raw []byte, edit func(*workload.Trace)) []byte {
	t.Helper()
	tr, _, err := workload.DecodeTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tr.Code = append([]isa.Instr(nil), tr.Code...)
	edit(tr)
	var buf bytes.Buffer
	if _, err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodedTrace builds and encodes a trace for one workload under fastArch.
func encodedTrace(t *testing.T, name string) []byte {
	t.Helper()
	bm, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := regconn.Build(bm.Build(), fastArch())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ex.Trace(name)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReplayEndpoint pins POST /v1/replay: a valid trace replays to a 200
// whose Ret matches the recorded oracle, a second replay of the same trace
// is a warm byte-identical HIT, and corrupt, truncated or out-of-range
// traces are structured 400s that leave the daemon serving.
func TestReplayEndpoint(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	raw := encodedTrace(t, "gen/mispredict-heavy/2")
	resp, cold := postRaw(t, srv, "/v1/replay", "application/octet-stream", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("cold replay: X-Cache %q", got)
	}
	var rr ReplayResponse
	if err := json.Unmarshal(cold, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Name != "gen/mispredict-heavy/2" || rr.Stats.Cycles == 0 {
		t.Fatalf("replay response %+v", rr)
	}

	resp2, warm := postRaw(t, srv, "/v1/replay", "application/octet-stream", raw)
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("warm replay: X-Cache %q, want HIT", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm replay bytes differ from cold")
	}

	headerLen := bytes.IndexByte(raw, '\n') + 1
	// behindClaim is an upload of n bytes whose header alone is refused:
	// it claims a 256 MiB payload, past MaxTracePayload.
	behindClaim := func(n int) []byte {
		b := make([]byte, n)
		copy(b, fmt.Sprintf("rctrace 1 %d %s\n", 256<<20, strings.Repeat("0", 64)))
		return b
	}
	bad := []struct {
		name string
		data []byte
	}{
		{"empty body", nil},
		{"not a trace", []byte("GET me a sandwich\n")},
		{"truncated", raw[:len(raw)-25]},
		{"corrupt payload", func() []byte {
			b := append([]byte(nil), raw...)
			b[headerLen+32] ^= 0x01
			return b
		}()},
		{"wrong version", append([]byte(fmt.Sprintf("rctrace 999 %d deadbeef\n", len(raw)-headerLen)), raw[headerLen:]...)},
		// Both used to pass the checksum; the first then panicked the
		// simulator inside a flight goroutine and took the daemon down.
		{"register beyond map", editedTrace(t, raw, func(tr *workload.Trace) {
			for i := range tr.Code {
				if tr.Code[i].Dst.Valid() {
					tr.Code[i].Dst.N = 250
					return
				}
			}
		})},
		{"memory size above cap", editedTrace(t, raw, func(tr *workload.Trace) { tr.Config.MemSize = 1 << 40 })},
		// In range for its class but of the wrong class (the first LD's
		// base is f20): it too passed the checksum and then panicked the
		// daemon.
		{"operand class mismatch", func() []byte {
			b, err := os.ReadFile("../workload/testdata/bad_class.rctrace")
			if err != nil {
				t.Fatal(err)
			}
			return b
		}()},
		// A header claiming a MaxTracePayload payload that never arrives:
		// DecodeTrace used to allocate the whole claim before reading a
		// byte of it.
		{"claimed payload never sent", []byte(fmt.Sprintf("rctrace 1 %d %s\n",
			workload.MaxTracePayload, strings.Repeat("0", 64)))},
		// One byte past the payload cap is refused by its header alone.
		{"payload length past the cap", []byte(fmt.Sprintf("rctrace 1 %d %s\n",
			workload.MaxTracePayload+1, strings.Repeat("0", 64)))},
		// Refused by the header with the body still arriving: net/http
		// discards at most 256 KiB of an unread body, so an undrained
		// upload this long closed the connection after (or instead of)
		// the 400.
		{"300 KiB behind a 256 MiB claim", behindClaim(300 << 10)},
		{"2 MiB behind a 256 MiB claim", behindClaim(2 << 20)},
	}
	for _, c := range bad {
		c := c
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) {
			resp, body := postRaw(t, srv, "/v1/replay", "application/octet-stream", c.data)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("expected structured error body, got %s (err %v)", body, err)
			}
			// Every body is under the cap, so the handler reads it to the
			// end before answering and the connection stays open.
			if resp.Close {
				t.Error("connection closed after the 400: the upload was not drained")
			}
			if resp, body := postRaw(t, srv, "/v1/replay", "application/octet-stream", raw); resp.StatusCode != http.StatusOK {
				t.Fatalf("replay after the rejection: status %d: %s", resp.StatusCode, body)
			}
		})
	}

	// Globals laid out past the end of memory decode, and fault as Reset
	// loads them: a guest fault, a 422 as on every endpoint.
	pastMemory := editedTrace(t, raw, func(tr *workload.Trace) {
		tr.Globals = append(tr.Globals,
			workload.TraceGlobal{Name: "pad", Size: mem.MaxSize},
			workload.TraceGlobal{Name: "past", Size: 8, InitI: []int64{1}})
	})
	if resp, body := postRaw(t, srv, "/v1/replay", "application/octet-stream", pastMemory); resp.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(string(body), "fault") {
		t.Errorf("globals past memory: status %d: %s, want 422 with a fault", resp.StatusCode, body)
	}

	resp, body := postRaw(t, srv, "/v1/replay", "application/octet-stream", encodedTrace(t, "gen/mixed/0"))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("replay after rejected traces: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
}

// TestReplayMatchesRun pins cross-path determinism: replaying a trace
// reports exactly the cycles and result that running the same workload
// through /v1/run computes — the simulator is deterministic whether it is
// fed from the IR pipeline or from a trace file.
func TestReplayMatchesRun(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	const name = "gen/trap-heavy/1"
	resp, runBody := postRun(t, srv, RunRequest{Benchmark: name, Arch: fastArch()})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run: status %d: %s", resp.StatusCode, runBody)
	}
	var run RunResponse
	if err := json.Unmarshal(runBody, &run); err != nil {
		t.Fatal(err)
	}

	resp, repBody := postRaw(t, srv, "/v1/replay", "application/octet-stream", encodedTrace(t, name))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d: %s", resp.StatusCode, repBody)
	}
	var rep ReplayResponse
	if err := json.Unmarshal(repBody, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Cycles != run.Result.Cycles || rep.Stats.Instrs != run.Result.Instrs {
		t.Fatalf("replay cycles/instrs %d/%d, run %d/%d",
			rep.Stats.Cycles, rep.Stats.Instrs, run.Result.Cycles, run.Result.Instrs)
	}
}
