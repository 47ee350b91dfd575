package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/exp"
)

// getPath GETs path from srv and returns the response and its body.
func getPath(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
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

// figurePoints lists the distinct points experiment id asks its Runner
// for, without simulating: the Runner memoizes, so its Point is called
// once per distinct point.
func figurePoints(t *testing.T, id string) []RunRequest {
	t.Helper()
	r := exp.NewRunner()
	r.Workers = 1
	var pts []RunRequest
	r.Point = func(_ context.Context, bm bench.Benchmark, arch regconn.Arch) (*exp.Result, error) {
		pts = append(pts, RunRequest{Benchmark: bm.Name, Arch: arch})
		return &exp.Result{Cycles: 1}, nil
	}
	if _, err := r.Generate(id); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestFiguresResolveThroughPoints: GET /v1/figures/fig7 answers exactly
// the JSON of an in-process Runner's tables, its points are counted under
// endpoint="figures", and each of them is then a /v1/run cache hit. Its
// two workers resolve points concurrently, so the race run keeps the
// daemon half and leaves out only the in-process regeneration.
func TestFiguresResolveThroughPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig7")
	}
	sv := newServer(t, Config{Workers: 2})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	resp, got := getPath(t, srv, "/v1/figures/fig7")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("figures/fig7: %d: %s", resp.StatusCode, got)
	}
	if !raceEnabled {
		tables, err := exp.NewRunner().Generate("fig7")
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(tables)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("figures/fig7 differs from the in-process tables:\n%s\nwant:\n%s", got, want.Bytes())
		}
	}

	pts := figurePoints(t, "fig7")
	var counted float64
	for _, s := range promFamily(t, srv, "rcserve_points_total", "counter").Samples {
		if s.Labels["endpoint"] == "figures" {
			counted += s.Value
		}
	}
	if counted != float64(len(pts)) {
		t.Errorf("rcserve_points_total{endpoint=\"figures\"} = %v, want fig7's %d points", counted, len(pts))
	}
	for _, p := range []RunRequest{pts[0], pts[len(pts)-1]} {
		resp, body := postRun(t, srv, p)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "HIT" {
			t.Errorf("/v1/run of fig7's %s point: %d X-Cache=%q, want a HIT: %.200s",
				p.Benchmark, resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
	}
}

// TestFiguresHonorServerTimeout: a figure request runs under the daemon's
// per-request deadline and in its worker slots. On a one-worker daemon
// with a 300 ms timeout, fig8 (hundreds of points) answers 504, and the
// slot is free for the next point. The race build is too slow for that
// point to fit the daemon's 300 ms.
func TestFiguresHonorServerTimeout(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs fig8 into its deadline")
	}
	sv := newServer(t, Config{Workers: 1, Timeout: 300 * time.Millisecond})
	srv := httptest.NewServer(sv)
	defer srv.Close()

	start := time.Now()
	resp, body := getPath(t, srv, "/v1/figures/fig8")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("figures/fig8: %d after %v, want 504: %.200s", resp.StatusCode, time.Since(start), body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("expected a structured error body, got %.200s (%v)", body, err)
	}
	resp, body = postRun(t, srv, RunRequest{Benchmark: "cmp", Arch: fastArch(), TimeoutMS: 250})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after the figure's deadline: %d: %s", resp.StatusCode, body)
	}
}
