package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/exp"
	"regconn/internal/obs"
)

// slogJSON is a JSON structured logger into w.
func slogJSON(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// goldenGrid is the 48-point golden benchmark×config grid (12 benchmarks
// × 4 ledger configs) as an explicit sweep point list.
func goldenGrid() SweepRequest {
	var req SweepRequest
	for _, bm := range bench.All() {
		for _, lc := range exp.LedgerConfigs(bm) {
			req.Points = append(req.Points, SweepPoint{Benchmark: bm.Name, Arch: lc.Arch})
		}
	}
	return req
}

// TestSpanTreeInvariantGoldenGrid sweeps the 48-point golden grid on a
// tracing server and cross-checks the recorded span tree against the
// request: spans nest, their durations sum to the request wall time
// within tolerance, and every simulate span's recorded cycle count
// equals the ledger's global clock for that point's response.
func TestSpanTreeInvariantGoldenGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("48 real simulations")
	}
	sv := newServer(t, Config{Workers: 4, Trace: true})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	grid := goldenGrid()
	if len(grid.Points) != 48 {
		t.Fatalf("golden grid has %d points, want 48", len(grid.Points))
	}
	body, _ := json.Marshal(grid)
	resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rid := resp.Header.Get("X-Request-ID")
	cyclesByKey := map[string]int64{}
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var rr RunResponse
		if err := json.Unmarshal([]byte(line), &rr); err != nil || rr.Result == nil {
			t.Fatalf("bad sweep line: %s", line)
		}
		cyclesByKey[rr.Key] = rr.Result.Cycles
	}
	if len(cyclesByKey) != 48 {
		t.Fatalf("sweep returned %d distinct points, want 48", len(cyclesByKey))
	}

	traces := sv.obs.recent(rid)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces for id %s, want 1", len(traces), rid)
	}
	tr := traces[0]
	if err := tr.Check(500 * time.Millisecond); err != nil {
		t.Fatalf("span-tree cross-check failed: %v", err)
	}

	spans := tr.Spans()
	attr := func(si obs.SpanInfo, key string) (any, bool) {
		for _, a := range si.Attrs {
			if a.Key == key {
				return a.Val, true
			}
		}
		return nil, false
	}
	// Walk every simulate span up to its owning point span and compare
	// the recorded cycle count against the streamed result.
	simulated := 0
	for _, si := range spans {
		if si.Name != "simulate" {
			continue
		}
		simulated++
		cycles, ok := attr(si, "cycles")
		if !ok {
			t.Fatalf("simulate span without cycles attr: %+v", si)
		}
		p := si.Parent
		for p != -1 && spans[p].Name != "point" {
			p = spans[p].Parent
		}
		if p == -1 {
			t.Fatalf("simulate span has no point ancestor: %+v", si)
		}
		keyAttr, ok := attr(spans[p], "key")
		if !ok {
			t.Fatalf("point span without key attr: %+v", spans[p])
		}
		key := keyAttr.(string)
		want, ok := cyclesByKey[key]
		if !ok {
			t.Fatalf("trace references key %s absent from the response", key)
		}
		if got := cycles.(int64); got != want {
			t.Errorf("key %s: simulate span recorded %d cycles, response says %d", key, got, want)
		}
	}
	if simulated != 48 {
		t.Errorf("trace has %d simulate spans, want 48 (all points were cold)", simulated)
	}
	if tr.ID() != rid {
		t.Errorf("trace id %s != response request id %s", tr.ID(), rid)
	}

	// A second sweep of the same grid is answered from the cache: its
	// trace still passes Check, every point span says HIT over a
	// cache.lookup child, nothing flies or simulates, and each point is
	// counted once as a sweep hit with one latency observation.
	hitsBefore := getMetrics(t, srv)["cache_hits"]
	promBefore, latBefore := sweepHitSeries(t, srv)
	resp, err = srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	warmRID := resp.Header.Get("X-Request-ID")
	var warm bytes.Buffer
	warm.ReadFrom(resp.Body)
	resp.Body.Close()
	if warm.String() != out.String() {
		t.Fatal("warm sweep is not byte-identical to the cold sweep")
	}
	traces = sv.obs.recent(warmRID)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces for id %s, want 1", len(traces), warmRID)
	}
	if err := traces[0].Check(500 * time.Millisecond); err != nil {
		t.Fatalf("warm span-tree cross-check failed: %v", err)
	}
	spans = traces[0].Spans()
	points, lookups := 0, map[int]bool{}
	for _, si := range spans {
		switch si.Name {
		case "point":
			points++
			if c, _ := attr(si, "cache"); c != "HIT" {
				t.Errorf("warm point span has cache=%v, want HIT", c)
			}
		case "cache.lookup":
			if spans[si.Parent].Name != "point" {
				t.Errorf("cache.lookup under %q, want point", spans[si.Parent].Name)
			}
			lookups[si.Parent] = true
		case "flight", "simulate":
			t.Errorf("warm sweep has a %s span", si.Name)
		}
	}
	if points != 48 || len(lookups) != 48 {
		t.Errorf("warm trace has %d point spans, %d with a cache.lookup child; want 48 and 48", points, len(lookups))
	}
	if d := getMetrics(t, srv)["cache_hits"] - hitsBefore; d != 48 {
		t.Errorf("cache_hits rose by %v, want 48", d)
	}
	promAfter, latAfter := sweepHitSeries(t, srv)
	if d := promAfter - promBefore; d != 48 {
		t.Errorf(`rcserve_points_total{endpoint="sweep",source="hit"} rose by %v, want 48`, d)
	}
	if d := latAfter - latBefore; d != 48 {
		t.Errorf(`rcserve_point_latency_seconds_count{endpoint="sweep"} rose by %v, want 48`, d)
	}
}

// sweepHitSeries reads the sweep endpoint's hit count from
// rcserve_points_total and its latency observations, summed over
// backends, from rcserve_point_latency_seconds.
func sweepHitSeries(t *testing.T, srv *httptest.Server) (hits, observed float64) {
	t.Helper()
	for _, s := range promFamily(t, srv, "rcserve_points_total", "counter").Samples {
		if s.Labels["endpoint"] == "sweep" && s.Labels["source"] == "hit" {
			hits += s.Value
		}
	}
	for _, s := range promFamily(t, srv, "rcserve_point_latency_seconds", "histogram").Samples {
		if s.Name == "rcserve_point_latency_seconds_count" && s.Labels["endpoint"] == "sweep" {
			observed += s.Value
		}
	}
	return hits, observed
}

// syncWriter serializes concurrent slog writes into one buffer.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// startObsFleet is startFleet with tracing on and a separate JSON log
// buffer per replica.
func startObsFleet(t *testing.T, n int) ([]replica, []*syncWriter) {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	out := make([]replica, n)
	logs := make([]*syncWriter, n)
	for i := range lns {
		logs[i] = &syncWriter{}
		sv, err := New(Config{
			Workers: 2,
			Peers:   append([]string(nil), peers...),
			Self:    peers[i],
			Trace:   true,
			Logger:  slogJSON(logs[i]),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sv.Close() })
		hs := &http.Server{Handler: sv}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close() })
		out[i] = replica{sv: sv, base: peers[i]}
	}
	return out, logs
}

// TestTwoReplicaRequestIDPropagation drives one sharded sweep through a
// two-replica fleet and checks that the client's request ID follows the
// fan-out: it is echoed on the response, appears in both replicas'
// request logs, and names the retained trace on both sides — the peer's
// trace holding point spans for the points it owned.
func TestTwoReplicaRequestIDPropagation(t *testing.T) {
	fleet, logs := startObsFleet(t, 2)
	a, b := fleet[0], fleet[1]
	grid, bOwned := shardGridSplit(a)

	const rid = "e2e-sweep.42"
	body, _ := json.Marshal(grid)
	req, _ := http.NewRequest("POST", a.base+"/v1/sweep", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != rid {
		t.Fatalf("response X-Request-ID = %q, want %q", got, rid)
	}
	var lines int
	for _, l := range strings.Split(strings.TrimSpace(readAll(t, resp)), "\n") {
		if l != "" {
			lines++
		}
	}
	if lines != len(grid.Archs) {
		t.Fatalf("sweep streamed %d lines, want %d", lines, len(grid.Archs))
	}

	for i, lw := range logs {
		if !strings.Contains(lw.String(), rid) {
			t.Errorf("replica %d log does not mention request id %s:\n%s", i, rid, lw.String())
		}
	}

	// Both replicas retained a trace under the same ID; the peer's holds
	// point spans for its owned slice of the grid.
	for name, rp := range map[string]replica{"A": a, "B": b} {
		traces := rp.sv.obs.recent(rid)
		if len(traces) != 1 {
			t.Fatalf("replica %s retained %d traces for %s, want 1", name, len(traces), rid)
		}
		if err := traces[0].Check(500 * time.Millisecond); err != nil {
			t.Errorf("replica %s trace check: %v", name, err)
		}
	}
	var bPoints int
	for _, si := range b.sv.obs.recent(rid)[0].Spans() {
		if si.Name == "point" {
			bPoints++
		}
	}
	if bPoints != bOwned {
		t.Errorf("replica B trace has %d point spans, owns %d points", bPoints, bOwned)
	}

	// The entry replica's trace shows the fan-out itself.
	var forwards int
	for _, si := range a.sv.obs.recent(rid)[0].Spans() {
		if si.Name == "peer.forward" {
			forwards++
		}
	}
	if forwards == 0 {
		t.Error("entry replica trace has no peer.forward span")
	}

	// The trace is exported over HTTP as well-formed Chrome trace JSON.
	tresp, err := http.Get(a.base + "/debug/trace?id=" + rid)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace?id=%s: %d", rid, tresp.StatusCode)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&doc); err != nil {
		t.Fatalf("/debug/trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("/debug/trace exported no events")
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDebugTraceDisabled pins the 404 contract when tracing is off.
func TestDebugTraceDisabled(t *testing.T) {
	sv := newServer(t, Config{Workers: 1})
	srv := httptest.NewServer(sv)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if body := readAll(t, resp); !strings.Contains(body, "disabled") {
		t.Fatalf("404 body does not explain how to enable tracing: %s", body)
	}
}

// TestRequestIDEchoAndMint: a valid client ID is echoed, an invalid one
// replaced by a minted hex ID.
func TestRequestIDEchoAndMint(t *testing.T) {
	sv := newServer(t, Config{Workers: 1})
	srv := httptest.NewServer(sv)
	defer srv.Close()
	body, _ := json.Marshal(RunRequest{Benchmark: "matrix300", Arch: fastArch()})

	req, _ := http.NewRequest("POST", srv.URL+"/v1/run", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "client-id.7")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-id.7" {
		t.Fatalf("valid client ID not echoed: got %q", got)
	}

	req, _ = http.NewRequest("POST", srv.URL+"/v1/run", bytes.NewReader(body))
	req.Header.Set("X-Request-ID", "has space")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == "has space" || len(got) != 16 || !obs.ValidRequestID(got) {
		t.Fatalf("invalid client ID not replaced with a minted one: got %q", got)
	}
}

// TestMetricsPrometheusExposition scrapes /metrics in Prometheus text
// format and runs it through the strict in-repo parser.
func TestMetricsPrometheusExposition(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()
	if resp, _ := postRun(t, srv, RunRequest{Benchmark: "matrix300", Arch: fastArch()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("exposition rejected by the strict parser: %v", err)
	}
	byName := map[string]obs.PromFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	req := byName["rcserve_requests_total"]
	var runReqs float64
	for _, s := range req.Samples {
		if s.Labels["endpoint"] == "run" {
			runReqs = s.Value
		}
	}
	if req.Type != "counter" || runReqs < 1 {
		t.Fatalf("rcserve_requests_total{endpoint=run} = %v (family %+v)", runReqs, req)
	}
	lat := byName["rcserve_point_latency_seconds"]
	if lat.Type != "histogram" || len(lat.Samples) == 0 {
		t.Fatalf("rcserve_point_latency_seconds = %+v", lat)
	}
	if _, ok := byName["rcserve_inflight"]; !ok {
		t.Fatal("rcserve_inflight gauge missing from exposition")
	}

	// The Accept header selects the same format.
	hreq, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	hreq.Header.Set("Accept", "text/plain")
	hresp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if _, err := obs.ParsePrometheus(hresp.Body); err != nil {
		t.Fatalf("Accept: text/plain did not yield a parseable exposition: %v", err)
	}
}

// TestWantsPrometheus: format selection is real content negotiation,
// not an Accept substring sniff — a JSON scraper that happens to
// mention text/plain with a low (or zero) preference keeps getting the
// legacy JSON view.
func TestWantsPrometheus(t *testing.T) {
	cases := []struct {
		query, accept string
		want          bool
	}{
		{"", "", false},
		{"format=prometheus", "", true},
		{"format=prometheus", "application/json", true},
		{"format=json", "text/plain", false},
		{"", "text/plain", true},
		{"", "text/plain; version=0.0.4", true},
		{"", "application/openmetrics-text; version=1.0.0; q=0.9", true},
		{"", "text/plain;q=0", false},
		{"", "application/json, text/plain;q=0.1", false},
		{"", "text/plain;q=0.9, application/json;q=0.2", true},
		{"", "*/*", false},
		{"", "text/html", false},
		{"", "not an accept header", false},
	}
	for _, c := range cases {
		url := "http://x/metrics"
		if c.query != "" {
			url += "?" + c.query
		}
		r, err := http.NewRequest("GET", url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if got := wantsPrometheus(r); got != c.want {
			t.Errorf("wantsPrometheus(query=%q, accept=%q) = %v, want %v",
				c.query, c.accept, got, c.want)
		}
	}
}

// TestSweepsProgressEndpoint: a finished sweep stays visible on GET
// /v1/sweeps with done == total and a per-owner breakdown.
func TestSweepsProgressEndpoint(t *testing.T) {
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()
	second := fastArch()
	second.Issue = 2
	grid := SweepRequest{Benchmarks: []string{"matrix300"}, Archs: []regconn.Arch{fastArch(), second}}
	body, _ := json.Marshal(grid)
	resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	resp.Body.Close()

	sresp, err := srv.Client().Get(srv.URL + "/v1/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sw SweepsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Sweeps) != 1 {
		t.Fatalf("sweeps table has %d entries, want 1: %+v", len(sw.Sweeps), sw)
	}
	v := sw.Sweeps[0]
	if v.Active || v.Total != 2 || v.Done != 2 || v.Errors != 0 {
		t.Fatalf("sweep view = %+v, want finished 2/2", v)
	}
	if pp := v.Peers["local"]; pp.Total != 2 || pp.Done != 2 {
		t.Fatalf("local owner progress = %+v, want 2/2", pp)
	}
}

// TestPeerLivenessGauges: the age gauges read -1 before any contact and
// a real age after a successful forward.
func TestPeerLivenessGauges(t *testing.T) {
	fleet := startFleet(t, 2, Config{Workers: 2})
	a, b := fleet[0], fleet[1]

	m := metricsOf(t, a.base)
	okKey := "peer_ok_age_s;peer=" + b.base
	failKey := "peer_fail_age_s;peer=" + b.base
	if m[okKey] != -1 || m[failKey] != -1 {
		t.Fatalf("pre-contact ages = ok %v fail %v, want -1/-1 (keys: %v)", m[okKey], m[failKey], m)
	}

	grid, _ := shardGridSplit(a)
	postFleetSweep(t, a.base, grid)

	m = metricsOf(t, a.base)
	if age := m[okKey]; age < 0 {
		t.Fatalf("post-forward ok age = %v, want >= 0", age)
	}
	if m[failKey] != -1 {
		t.Fatalf("fail age = %v after a clean forward, want -1", m[failKey])
	}
}

// TestSlowRequestLogged: a request over the threshold logs at Warn and
// bumps the counter.
func TestSlowRequestLogged(t *testing.T) {
	lw := &syncWriter{}
	sv := newServer(t, Config{Workers: 1, Logger: slogJSON(lw), SlowThreshold: time.Nanosecond})
	srv := httptest.NewServer(sv)
	defer srv.Close()
	if resp, _ := postRun(t, srv, RunRequest{Benchmark: "matrix300", Arch: fastArch()}); resp.StatusCode != http.StatusOK {
		t.Fatalf("run: %d", resp.StatusCode)
	}
	out := lw.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, `"level":"WARN"`) {
		t.Fatalf("no Warn slow-request log:\n%s", out)
	}
	if m := getMetrics(t, srv); m["slow_requests"] < 1 {
		t.Fatalf("slow_requests = %v, want >= 1", m["slow_requests"])
	}
}
