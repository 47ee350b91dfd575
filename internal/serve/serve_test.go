package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/core"
	"regconn/internal/exp"
	"regconn/internal/machine"
	"regconn/internal/mem"
	"regconn/internal/workload"
)

// fastArch is a cheap-to-simulate point used throughout these tests.
func fastArch() regconn.Arch {
	return regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 16, FPCore: 32}
}

// newServer builds a Server that is closed with the test.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	sv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	return sv
}

func postRun(t *testing.T, srv *httptest.Server, req RunRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
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

func getMetrics(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRunColdWarmByteIdentical(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	req := RunRequest{Benchmark: "matrix300", Arch: fastArch()}
	resp1, cold := postRun(t, srv, req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp1.StatusCode, cold)
	}
	if got := resp1.Header.Get("X-Cache"); got != "MISS" {
		t.Errorf("cold X-Cache = %q, want MISS", got)
	}
	resp2, warm := postRun(t, srv, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %d %s", resp2.StatusCode, warm)
	}
	if got := resp2.Header.Get("X-Cache"); got != "HIT" {
		t.Errorf("warm X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm response differs from cold:\ncold: %s\nwarm: %s", cold, warm)
	}

	// And both match a run on a completely fresh server — the cache entry
	// is bit-identical to an independent cold execution.
	sv2 := newServer(t, Config{Workers: 2})
	srv2 := httptest.NewServer(sv2)
	defer srv2.Close()
	_, fresh := postRun(t, srv2, req)
	if !bytes.Equal(cold, fresh) {
		t.Fatalf("cold runs on independent servers differ:\n%s\n%s", cold, fresh)
	}

	var rr RunResponse
	if err := json.Unmarshal(cold, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil || rr.Result.Cycles == 0 || rr.Result.Stats.Cycles != rr.Result.Cycles {
		t.Fatalf("malformed result: %+v", rr.Result)
	}
	if rr.Key != Key("matrix300", fastArch()) {
		t.Errorf("response key %q does not match canonical key", rr.Key)
	}
}

func TestConcurrentIdenticalRequestsCollapse(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	const n = 6
	req := RunRequest{Benchmark: "cpp", Arch: fastArch()}
	bodies := make([][]byte, n)
	caches := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postRun(t, srv, req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: %d %s", i, resp.StatusCode, body)
			}
			bodies[i] = body
			caches[i] = resp.Header.Get("X-Cache")
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	// Every request is exactly one of: cache hit, flight owner (the one
	// true MISS), or coalesced joiner — and the X-Cache header says which.
	headerCount := map[string]float64{}
	for i, c := range caches {
		if c != "MISS" && c != "HIT" && c != "COALESCED" {
			t.Fatalf("request %d: X-Cache = %q", i, c)
		}
		headerCount[c]++
	}
	if headerCount["MISS"] != 1 {
		t.Errorf("a cold key must have exactly one MISS owner, got %v (%v)", headerCount["MISS"], caches)
	}
	m := getMetrics(t, srv)
	if m["cache_misses"] != 1 {
		t.Errorf("cache_misses = %v, want 1 (only the flight owner is a true miss)", m["cache_misses"])
	}
	for header, metric := range map[string]string{"MISS": "cache_misses", "HIT": "cache_hits", "COALESCED": "coalesced"} {
		if m[metric] != headerCount[header] {
			t.Errorf("%s = %v but %v requests reported X-Cache: %s", metric, m[metric], headerCount[header], header)
		}
	}
	if got := m["cache_hits"] + m["coalesced"] + m["cache_misses"]; got != n {
		t.Errorf("hit+coalesced+miss = %v, want %d (each request counted once)", got, n)
	}
}

func TestDeadlineExceededDoesNotCorruptCache(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	// 1 ms expires during the build, long before the simulation would
	// finish; the cycle loop's context poll turns it into a clean error.
	req := RunRequest{Benchmark: "espresso", Arch: fastArch(), TimeoutMS: 1}
	resp, body := postRun(t, srv, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline-exceeded run: %d %s, want 504", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("error body %s (%v)", body, err)
	}

	// The deadline never corrupted the cache. Normally the point was
	// canceled mid-simulation and not cached (X-Cache: MISS here); on a
	// heavily loaded host the simulation can outrace the starved waiter and
	// complete — then the complete result is legitimately cached (HIT).
	// Either way the bytes served now must equal an independent cold run.
	req.TimeoutMS = 0
	resp2, good := postRun(t, srv, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("recomputation: %d %s", resp2.StatusCode, good)
	}
	resp3, warm := postRun(t, srv, req)
	if resp3.StatusCode != http.StatusOK || resp3.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("warm after recompute: %d X-Cache=%s", resp3.StatusCode, resp3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(good, warm) {
		t.Fatal("cached bytes differ from the recomputed cold run")
	}
	srv2 := httptest.NewServer(newServer(t, Config{Workers: 2}))
	defer srv2.Close()
	_, cold := postRun(t, srv2, req)
	if !bytes.Equal(good, cold) {
		t.Fatalf("bytes served after the deadline-exceeded request differ from an independent cold run:\n%s\nvs\n%s", good, cold)
	}
}

// TestCancellationStopsSimulationEarly proves — under -race, via the serve
// stack's execution primitive — that a canceled context stops the cycle
// loop within the poll stride rather than running the program out.
func TestCancellationStopsSimulationEarly(t *testing.T) {
	bm, err := bench.ByName("cpp")
	if err != nil {
		t.Fatal(err)
	}
	full, err := exp.RunPoint(context.Background(), bm, fastArch())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = exp.RunPoint(ctx, bm, fastArch())
	if !errors.Is(err, machine.ErrCanceled) {
		t.Fatalf("canceled point error = %v", err)
	}
	var re *machine.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("canceled point error is %T, want to wrap *machine.RuntimeError", err)
	}
	if re.Cycle >= full.Cycles {
		t.Errorf("cancellation at cycle %d did not stop early (full run = %d cycles)", re.Cycle, full.Cycles)
	}
	if re.Cycle > 8192 {
		t.Errorf("cancellation latency %d cycles exceeds two poll strides", re.Cycle)
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	sv := newServer(t, Config{Workers: 2, CacheSize: 1})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	a1, a2 := fastArch(), fastArch()
	a2.Issue = 2
	reqs := []RunRequest{
		{Benchmark: "matrix300", Arch: a1},
		{Benchmark: "matrix300", Arch: a2},
	}
	first := make([][]byte, 2)
	for i, rq := range reqs {
		resp, body := postRun(t, srv, rq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, body)
		}
		first[i] = body
	}
	if m := getMetrics(t, srv); m["cache_evictions"] < 1 {
		t.Errorf("cache_evictions = %v, want >= 1 with a 1-entry cache", m["cache_evictions"])
	}
	// The evicted point recomputes to identical bytes.
	resp, again := postRun(t, srv, reqs[0])
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("evicted point: %d X-Cache=%s", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(first[0], again) {
		t.Fatal("recomputed evicted point differs from its original bytes")
	}
}

func TestSweepStreamsNDJSON(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	good := fastArch()
	bad := memSizeArch(4096) // valid, but the program's data faults at run time
	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"matrix300"},
		Archs:      []regconn.Arch{good, bad},
	})
	resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("sweep streamed %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var ok RunResponse
	if err := json.Unmarshal([]byte(lines[0]), &ok); err != nil || ok.Result == nil || ok.Result.Cycles == 0 {
		t.Fatalf("line 0 is not a good point: %s (%v)", lines[0], err)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(lines[1]), &eb); err != nil || eb.Error == "" {
		t.Fatalf("line 1 is not an error line: %s (%v)", lines[1], err)
	}
	// The failed point is visible to observability even though the stream
	// carried a 200: one sweep_point_errors, but not an all-failed sweep.
	m := getMetrics(t, srv)
	if m["sweep_point_errors"] != 1 {
		t.Errorf("sweep_point_errors = %v, want 1", m["sweep_point_errors"])
	}
	if m["errors"] != 0 {
		t.Errorf("errors = %v, want 0 for a partially failed sweep", m["errors"])
	}
}

// TestSweepAllPointsFailedCountsError: a sweep whose every point fails
// streams only error lines after its 200 header — statusWriter never sees
// a failure status, so handleSweep itself must count the sweep as an
// error and each point in sweep_point_errors.
func TestSweepAllPointsFailedCountsError(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	// Valid archs (so the sweep starts) whose memory images are too small
	// for the program: each point faults at run time, under its own key.
	bad1 := memSizeArch(4096)
	bad2 := memSizeArch(8192)
	body, _ := json.Marshal(SweepRequest{
		Benchmarks: []string{"matrix300"},
		Archs:      []regconn.Arch{bad1, bad2},
	})
	resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d (errors stream after a 200 header)", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("streamed %d lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, line := range lines {
		var eb errorBody
		if err := json.Unmarshal([]byte(line), &eb); err != nil || eb.Error == "" {
			t.Fatalf("line %d is not an error line: %s", i, line)
		}
	}
	m := getMetrics(t, srv)
	if m["sweep_point_errors"] != 2 {
		t.Errorf("sweep_point_errors = %v, want 2", m["sweep_point_errors"])
	}
	if m["errors"] != 1 {
		t.Errorf("errors = %v, want 1 for an all-failed sweep", m["errors"])
	}
}

// TestFiguresStatusBranches pins statusFor's sentinel-based
// classification, which /v1/figures shares with the point endpoints: an
// unknown experiment id is the client's fault, a deadline a 504, a
// disconnect a 503, a guest fault a 422, anything else ours.
func TestFiguresStatusBranches(t *testing.T) {
	_, err := exp.NewRunner().Generate("bogus")
	if !errors.Is(err, exp.ErrUnknownExperiment) {
		t.Fatalf("Generate error %v does not wrap ErrUnknownExperiment", err)
	}
	for _, c := range []struct {
		err  error
		want int
	}{
		{err, http.StatusBadRequest},
		{errors.New("exp: this mentions unknown experiment but is not one"), http.StatusInternalServerError},
		{fmt.Errorf("fig8: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("fig8: %w", context.Canceled), http.StatusServiceUnavailable},
		{fmt.Errorf("cmp: %w", &machine.RuntimeError{Err: errors.New("fault")}), http.StatusUnprocessableEntity},
	} {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestFiguresHealthzMetricsAndBadRequests(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	// table1 is static (no simulations) so this stays fast.
	resp, err := srv.Client().Get(srv.URL + "/v1/figures/table1")
	if err != nil {
		t.Fatal(err)
	}
	var tables []exp.Table
	if err := json.NewDecoder(resp.Body).Decode(&tables); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(tables) != 1 || tables[0].ID != "table1" {
		t.Fatalf("figures/table1: %d %+v", resp.StatusCode, tables)
	}

	resp, err = srv.Client().Get(srv.URL + "/v1/figures/bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("figures/bogus: %d, want 400", resp.StatusCode)
	}

	resp, err = srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", resp.StatusCode)
	}

	for _, body := range []string{`{"benchmark":"nope","arch":{"Issue":4}}`, `not json`} {
		resp, err := srv.Client().Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %q: %d, want 400", body, resp.StatusCode)
		}
	}

	// A guest memory fault is the client's configuration, not our crash.
	tiny := fastArch()
	tiny.MemSize = 4096
	resp2, body := postRun(t, srv, RunRequest{Benchmark: "matrix300", Arch: tiny})
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("fault body: %s", body)
	}
	if resp2.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(eb.Error, "memory fault") {
		t.Errorf("guest fault: %d %q, want 422 with a memory fault", resp2.StatusCode, eb.Error)
	}

	if m := getMetrics(t, srv); m["requests"] == 0 || m["errors"] == 0 {
		t.Errorf("metrics not counting: %v", m)
	}
}

func TestGracefulShutdownWithInflightRequest(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: sv}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// A cold point that takes real work, started just before shutdown.
	reqBody, _ := json.Marshal(RunRequest{Benchmark: "espresso", Arch: fastArch()})
	type outcome struct {
		status int
		body   []byte
		err    error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/v1/run", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		done <- outcome{status: resp.StatusCode, body: b.Bytes()}
	}()

	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	sv.SetDraining()
	resp, err := http.Get(base + "/healthz")
	if err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("inflight request failed during drain: %v", o.err)
	}
	if o.status != http.StatusOK {
		t.Fatalf("inflight request got %d during drain: %s", o.status, o.body)
	}
}

func TestKeyCanonical(t *testing.T) {
	a := fastArch()
	if Key("cpp", a) != Key("cpp", a) {
		t.Error("identical points produced different keys")
	}
	b := a
	b.Issue = 8
	if Key("cpp", a) == Key("cpp", b) {
		t.Error("different archs collided")
	}
	if Key("cpp", a) == Key("lex", a) {
		t.Error("different benchmarks collided")
	}
	if len(Key("cpp", a)) != 64 {
		t.Errorf("key is not hex sha256: %q", Key("cpp", a))
	}
}

// legacyArch replicates the Arch struct exactly as it marshaled before the
// backend refactor added the Backend and ReadPorts fields: same Go-name
// keys, same order, no omitempty anywhere. Hashing a point through this
// struct reproduces the keys a pre-refactor daemon handed out.
type legacyArch struct {
	Issue              int
	MemChannels        int
	LoadLatency        int
	IntCore            int
	FPCore             int
	Mode               regconn.RegMode
	Model              core.Model
	ConnectLatency     int
	ExtraDecodeStage   bool
	CombineConnects    bool
	Windows            regconn.WindowPolicy
	ExpandAccumulators bool
	ScalarOnly         bool
	NoSchedule         bool
	Verify             bool
	Trap               regconn.TrapConfig
	Profile            bool
	MemSize            int64
}

func legacyKey(t *testing.T, benchmark string, a regconn.Arch) string {
	t.Helper()
	la := legacyArch{
		Issue:              a.Issue,
		MemChannels:        a.MemChannels,
		LoadLatency:        a.LoadLatency,
		IntCore:            a.IntCore,
		FPCore:             a.FPCore,
		Mode:               a.Mode,
		Model:              a.Model,
		ConnectLatency:     a.ConnectLatency,
		ExtraDecodeStage:   a.ExtraDecodeStage,
		CombineConnects:    a.CombineConnects,
		Windows:            a.Windows,
		ExpandAccumulators: a.ExpandAccumulators,
		ScalarOnly:         a.ScalarOnly,
		NoSchedule:         a.NoSchedule,
		Verify:             a.Verify,
		Trap:               a.Trap,
		Profile:            a.Profile,
		MemSize:            a.MemSize,
	}
	b, err := json.Marshal(struct {
		Benchmark string     `json:"benchmark"`
		Arch      legacyArch `json:"arch"`
	}{benchmark, la})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKeyStabilityAcrossBackendFields: the Backend/ReadPorts fields must not
// move any pre-existing (benchmark, arch) point to a new cache key — a
// daemon upgraded in place keeps every warm entry. Representative points
// from the paper's sweeps are hashed through a byte-for-byte replica of the
// pre-refactor Arch and must land on the same SHA-256.
func TestKeyStabilityAcrossBackendFields(t *testing.T) {
	archs := []regconn.Arch{
		{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 16, FPCore: 32},
		{Issue: 1, LoadLatency: 4, Mode: regconn.WithoutRC, IntCore: 8, FPCore: 16, CombineConnects: true},
		{Issue: 8, LoadLatency: 2, Mode: regconn.Unlimited},
		{Issue: 4, MemChannels: 4, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 32, FPCore: 64,
			Model: core.WriteResetReadUpdate, ConnectLatency: 1, ExtraDecodeStage: true,
			CombineConnects: true, Verify: true, Profile: true, MemSize: 1 << 20},
		{Issue: 2, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 16, FPCore: 32,
			Trap: regconn.TrapConfig{Interval: 5000, ContextSwitch: true, PSWFlag: true}},
	}
	for _, bm := range []string{"cpp", "matrix300"} {
		for i, a := range archs {
			if got, want := Key(bm, a), legacyKey(t, bm, a); got != want {
				t.Errorf("%s/arch[%d]: key %s, want pre-refactor key %s", bm, i, got, want)
			}
		}
	}
	// And the two spellings of one extension point collapse to one key.
	byName := regconn.Arch{Issue: 4, LoadLatency: 2, Backend: "portreduce", IntCore: 16, FPCore: 32}
	byMode := regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.PortReduce, IntCore: 16, FPCore: 32}
	if Key("cpp", byName) != Key("cpp", byMode) {
		t.Error("backend-name and mode-number spellings of one point produced different keys")
	}
	if Key("cpp", byName) == Key("cpp", fastArch()) {
		t.Error("portreduce point collided with the rc point")
	}
}

// TestSweepRivalBackendsWarmByteIdentical drives the five-backend rivals
// grid through /v1/sweep twice: every point must simulate (cold), and the
// warm pass must stream back byte-identical lines from the cache —
// including the two extension backends and both spellings of a point.
func TestSweepRivalBackendsWarmByteIdentical(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	req := SweepRequest{
		Benchmarks: []string{"grep"},
		Archs: []regconn.Arch{
			{Issue: 4, LoadLatency: 2, Mode: regconn.WithoutRC, IntCore: 16, FPCore: 32, CombineConnects: true},
			{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, IntCore: 16, FPCore: 32, CombineConnects: true},
			{Issue: 4, LoadLatency: 2, Mode: regconn.Unlimited},
			{Issue: 4, LoadLatency: 2, Backend: "portreduce", IntCore: 16, FPCore: 32, CombineConnects: true},
			{Issue: 4, LoadLatency: 2, Backend: "chain", IntCore: 16, FPCore: 32, CombineConnects: true},
		},
	}
	post := func() string {
		body, _ := json.Marshal(req)
		resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.String()
	}
	cold := post()
	lines := strings.Split(strings.TrimRight(cold, "\n"), "\n")
	if len(lines) != len(req.Archs) {
		t.Fatalf("sweep streamed %d lines, want %d:\n%s", len(lines), len(req.Archs), cold)
	}
	for i, line := range lines {
		var rr RunResponse
		if err := json.Unmarshal([]byte(line), &rr); err != nil || rr.Result == nil || rr.Result.Cycles == 0 {
			t.Fatalf("line %d is not a simulated point: %s (%v)", i, line, err)
		}
	}
	if warm := post(); warm != cold {
		t.Error("warm sweep is not byte-identical to the cold sweep")
	}
	m := getMetrics(t, srv)
	if m["cache_hits"] < float64(len(req.Archs)) {
		t.Errorf("warm sweep hit cache %v times, want >= %d", m["cache_hits"], len(req.Archs))
	}
	// A mode-number respelling of the portreduce point is the same cache
	// entry: no new simulation, same bytes.
	req.Archs = []regconn.Arch{{Issue: 4, LoadLatency: 2, Mode: regconn.PortReduce, IntCore: 16, FPCore: 32, CombineConnects: true}}
	if got := strings.TrimRight(post(), "\n"); got != lines[3] {
		t.Error("mode-number spelling of the portreduce point missed the cache or diverged")
	}
}

// TestRequestBounds pins the input caps of /v1/run and /v1/sweep: an
// oversized body is a structured 413, and a sweep of more than
// maxSweepPoints points — as a cross product or an explicit list — or an
// arch that fails Arch.Validate a structured 400, answered before any
// point is resolved. The one-worker daemon keeps serving afterwards.
func TestRequestBounds(t *testing.T) {
	sv := newServer(t, Config{Workers: 1})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// padded prefixes a valid body with whitespace up to the cap.
	padded := func(limit int, body []byte) []byte {
		return append(bytes.Repeat([]byte(" "), limit), body...)
	}
	run := mustJSON(RunRequest{Benchmark: "matrix300", Arch: fastArch()})
	sweep := mustJSON(SweepRequest{Benchmarks: []string{"matrix300"}, Archs: []regconn.Arch{fastArch()}})
	crossArchs := make([]regconn.Arch, maxSweepPoints/2+1)
	for i := range crossArchs {
		crossArchs[i] = fastArch()
	}
	explicit := make([]SweepPoint, maxSweepPoints+1)
	for i := range explicit {
		explicit[i] = SweepPoint{Benchmark: "matrix300", Arch: fastArch()}
	}
	// An unregistered Backend is the one free-form string in a point; a
	// forwarded sub-sweep would repeat it once per point.
	unknown := fastArch()
	unknown.Backend = strings.Repeat("x", 2<<10)

	type tc struct {
		name, path string
		body       []byte
		status     int
	}
	// Archs Arch.Validate rejects. Before it, a core count outside
	// [abi.MinCore, TotalRegs] panicked in the flight goroutine and killed
	// the daemon, and a negative channel count looped the list scheduler
	// forever, holding the only worker slot: the run at the end of this
	// test then timed out. So did a negative trap handler (the cycle loop
	// ran backwards past its deadline) and a 1e12 load latency (a compile
	// that never returns); a 1e9 issue rate allocated an 8 GB issue
	// histogram.
	invalid := []tc{
		{"reproduction int core 300", "/v1/run", []byte(`{"benchmark":"cpp","arch":{"Issue":4,"IntCore":300}}`), http.StatusBadRequest},
		{"reproduction negative channels", "/v1/run", []byte(`{"benchmark":"cpp","arch":{"Issue":4,"MemChannels":-1}}`), http.StatusBadRequest},
		{"reproduction negative handler", "/v1/run", []byte(`{"benchmark":"grep","arch":{"Issue":4,"Trap":{"Interval":1,"HandlerCycles":-5000}}}`), http.StatusBadRequest},
		{"reproduction load latency 1e12", "/v1/run", []byte(`{"benchmark":"cmp","arch":{"Issue":4,"LoadLatency":1000000000000}}`), http.StatusBadRequest},
		{"reproduction issue 1e9", "/v1/run", []byte(`{"benchmark":"cmp","arch":{"Issue":1000000000}}`), http.StatusBadRequest},
	}
	for _, h := range []struct {
		name string
		edit func(*regconn.Arch)
	}{
		{"int core below min", func(a *regconn.Arch) { a.IntCore = 4 }},
		{"negative int core", func(a *regconn.Arch) { a.IntCore = -1 }},
		{"fp core above total", func(a *regconn.Arch) { a.FPCore = regconn.TotalRegs + 1 }},
		{"negative channels", func(a *regconn.Arch) { a.MemChannels = -1 }},
		{"zero issue", func(a *regconn.Arch) { a.Issue = 0 }},
		{"negative load latency", func(a *regconn.Arch) { a.LoadLatency = -1 }},
		{"negative connect latency", func(a *regconn.Arch) { a.ConnectLatency = -1 }},
		{"negative read ports", func(a *regconn.Arch) { a.ReadPorts = -1 }},
		{"unregistered mode", func(a *regconn.Arch) { a.Mode = 99 }},
		{"issue above cap", func(a *regconn.Arch) { a.Issue = machine.MaxIssueRate + 1 }},
		{"load latency above cap", func(a *regconn.Arch) { a.LoadLatency = regconn.MaxLatency + 1 }},
		{"connect latency above cap", func(a *regconn.Arch) { a.ConnectLatency = regconn.MaxLatency + 1 }},
		{"negative handler cycles", func(a *regconn.Arch) { a.Trap = regconn.TrapConfig{Interval: 1, HandlerCycles: -1} }},
		{"handler registers above cap", func(a *regconn.Arch) {
			a.Trap = regconn.TrapConfig{Interval: 1, HandlerRegs: machine.MaxTrapHandler + 1}
		}},
	} {
		a := fastArch()
		h.edit(&a)
		invalid = append(invalid,
			tc{h.name, "/v1/run", mustJSON(RunRequest{Benchmark: "cpp", Arch: a}), http.StatusBadRequest},
			tc{h.name + " in a sweep", "/v1/sweep",
				mustJSON(SweepRequest{Benchmarks: []string{"cpp"}, Archs: []regconn.Arch{fastArch(), a}}), http.StatusBadRequest})
	}

	for _, c := range append([]tc{
		{"run body over cap", "/v1/run", padded(maxRunBody, run), http.StatusRequestEntityTooLarge},
		{"sweep body over cap", "/v1/sweep", padded(maxSweepBody, sweep), http.StatusRequestEntityTooLarge},
		{"cross product over point cap", "/v1/sweep",
			mustJSON(SweepRequest{Benchmarks: []string{"matrix300", "cmp"}, Archs: crossArchs}), http.StatusBadRequest},
		{"explicit points over cap", "/v1/sweep", mustJSON(SweepRequest{Points: explicit}), http.StatusBadRequest},
		{"unregistered backend", "/v1/run", mustJSON(RunRequest{Benchmark: "matrix300", Arch: unknown}), http.StatusBadRequest},
		{"unregistered backend in a sweep", "/v1/sweep",
			mustJSON(SweepRequest{Benchmarks: []string{"matrix300"}, Archs: []regconn.Arch{fastArch(), unknown}}), http.StatusBadRequest},
	}, invalid...) {
		t.Run(strings.ReplaceAll(c.name, " ", "-"), func(t *testing.T) {
			resp, body := postRaw(t, srv, c.path, "application/json", c.body)
			if resp.StatusCode != c.status {
				t.Fatalf("status %d, want %d: %.200s", resp.StatusCode, c.status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("expected structured error body, got %.200s (err %v)", body, err)
			}
		})
	}

	// The body cap holds a full point cap of explicit points, each spelled
	// with every field set — the shape of a forwarded sub-sweep.
	spec := &workload.Spec{Profile: "multiprogrammed", Seed: 1<<63 - 1}
	big := regconn.Arch{Issue: 8, MemChannels: 4, LoadLatency: 4, IntCore: 64, FPCore: 128,
		Mode: regconn.WithRC, Model: core.ReadWriteReset, Backend: "portreduce", ReadPorts: 16,
		ConnectLatency: 1, ExtraDecodeStage: true, CombineConnects: true, Windows: 1,
		ExpandAccumulators: true, ScalarOnly: true, NoSchedule: true, Verify: true, Profile: true,
		Trap:    regconn.TrapConfig{Interval: 1 << 40, HandlerCycles: 1 << 40, HandlerRegs: 1 << 40, UseEnableFlag: true, ContextSwitch: true, PSWFlag: true, ProgramUsesRC: true},
		MemSize: mem.MaxSize}
	if n := len(mustJSON(SweepPoint{Benchmark: spec.Name(), Arch: big, Workload: spec})) + 1; n > maxPointBody {
		t.Errorf("a fully spelled sweep point takes %d bytes, over maxPointBody %d", n, maxPointBody)
	}

	resp, body := postRun(t, srv, RunRequest{Benchmark: "grep", Arch: fastArch(), TimeoutMS: 5000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after rejected requests: %d: %s", resp.StatusCode, body)
	}
}
