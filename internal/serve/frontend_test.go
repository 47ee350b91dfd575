package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"regconn"
	"regconn/internal/obs"
	"regconn/internal/workload"
)

// promFamily reads one family from the Prometheus exposition and fails the
// test unless it has the given type. A family not yet exposed comes back
// empty.
func promFamily(t *testing.T, srv *httptest.Server, family, typ string) obs.PromFamily {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name != family {
			continue
		}
		if f.Type != typ {
			t.Fatalf("%s is a %s, want a %s", family, f.Type, typ)
		}
		return f
	}
	return obs.PromFamily{}
}

// frontendCounts reads rcserve_frontends_total by result label.
func frontendCounts(t *testing.T, srv *httptest.Server) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, s := range promFamily(t, srv, "rcserve_frontends_total", "counter").Samples {
		out[s.Labels["result"]] = s.Value
	}
	return out
}

// TestSweepSharesOneFrontend: a sweep of one generated program over the
// five backends at one issue rate compiles its front end once; the other
// four points reuse it — on the counter family and on each point's build
// span. An identical second sweep is answered from the result cache and
// leaves the family unchanged.
func TestSweepSharesOneFrontend(t *testing.T) {
	sv := newServer(t, Config{Workers: 2, Trace: true})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	var archs []regconn.Arch
	for _, be := range []string{"spill", "rc", "portreduce", "chain", "unlimited"} {
		archs = append(archs, regconn.Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32, Backend: be, CombineConnects: true})
	}
	body, _ := json.Marshal(SweepRequest{Workloads: []workload.Spec{{Profile: "mixed", Seed: 3}}, Archs: archs})
	sweep := func() string {
		resp, out := postRaw(t, srv, "/v1/sweep", "application/json", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep: %d: %s", resp.StatusCode, out)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			var rr RunResponse
			if err := json.Unmarshal([]byte(line), &rr); err != nil || rr.Result == nil {
				t.Fatalf("bad sweep line: %s", line)
			}
		}
		return resp.Header.Get("X-Request-ID")
	}

	before := frontendCounts(t, srv)
	rid := sweep()
	after := frontendCounts(t, srv)
	if d := after["compiled"] - before["compiled"]; d != 1 {
		t.Errorf("front ends compiled moved by %v, want 1", d)
	}
	if d := after["reused"] - before["reused"]; d != 4 {
		t.Errorf("front ends reused moved by %v, want 4", d)
	}

	traces := sv.obs.recent(rid)
	if len(traces) != 1 {
		t.Fatalf("retained %d traces for id %s, want 1", len(traces), rid)
	}
	if err := traces[0].Check(500 * time.Millisecond); err != nil {
		t.Fatalf("span-tree cross-check failed: %v", err)
	}
	how := map[any]int{}
	for _, si := range traces[0].Spans() {
		if si.Name != "build" {
			continue
		}
		for _, a := range si.Attrs {
			if a.Key == "frontend" {
				how[a.Val]++
			}
		}
	}
	if how["compiled"] != 1 || how["reused"] != 4 {
		t.Errorf("build spans' frontend attrs = %v, want 1 compiled and 4 reused", how)
	}

	hits := getMetrics(t, srv)["cache_hits"]
	sweep()
	if d := getMetrics(t, srv)["cache_hits"] - hits; d != 5 {
		t.Errorf("second sweep: %v cache hits, want 5", d)
	}
	if again := frontendCounts(t, srv); again["compiled"] != after["compiled"] || again["reused"] != after["reused"] {
		t.Errorf("an all-hit sweep moved the front-end family: %v → %v", after, again)
	}
}
