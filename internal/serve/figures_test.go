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
		return &exp.Result{Cycles: 1, Demand: 1}, nil
	}
	if _, err := r.Generate(id); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestFiguresResolveThroughPoints: GET /v1/figures/{fig7,pressure}
// answers exactly the JSON of an in-process Runner's tables, its points
// (60 and 48) are counted under endpoint="figures", and each of them is
// then a /v1/run cache hit. Its two workers resolve points concurrently,
// so the race run keeps the daemon half and leaves out only the
// in-process regeneration.
func TestFiguresResolveThroughPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates fig7 and pressure")
	}
	for _, tc := range []struct {
		id     string
		points int
	}{{"fig7", 60}, {"pressure", 48}} {
		id := tc.id
		t.Run(id, func(t *testing.T) {
			sv := newServer(t, Config{Workers: 2})
			srv := httptest.NewServer(sv)
			defer srv.Close()

			resp, got := getPath(t, srv, "/v1/figures/"+id)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("figures/%s: %d: %s", id, resp.StatusCode, got)
			}
			if !raceEnabled {
				tables, err := exp.NewRunner().Generate(id)
				if err != nil {
					t.Fatal(err)
				}
				var want bytes.Buffer
				json.NewEncoder(&want).Encode(tables)
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("figures/%s differs from the in-process tables:\n%s\nwant:\n%s", id, got, want.Bytes())
				}
			}

			pts := figurePoints(t, id)
			if len(pts) != tc.points {
				t.Fatalf("%s asks its Runner for %d points, want %d", id, len(pts), tc.points)
			}
			var counted float64
			for _, s := range promFamily(t, srv, "rcserve_points_total", "counter").Samples {
				if s.Labels["endpoint"] == "figures" {
					counted += s.Value
				}
			}
			if counted != float64(len(pts)) {
				t.Errorf("rcserve_points_total{endpoint=\"figures\"} = %v, want %s's %d points", counted, id, len(pts))
			}
			for _, p := range []RunRequest{pts[0], pts[len(pts)-1]} {
				resp, body := postRun(t, srv, p)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "HIT" {
					t.Errorf("/v1/run of %s's %s point: %d X-Cache=%q, want a HIT: %.200s",
						id, p.Benchmark, resp.StatusCode, resp.Header.Get("X-Cache"), body)
				}
			}
		})
	}
}

// TestFiguresHonorServerTimeout: a figure request runs under the daemon's
// per-request deadline and in its worker slots. On a one-worker daemon,
// fig8 (hundreds of points) under a 300 ms timeout and pressure (48
// points) under a 50 ms one answer 504 soon after the deadline, and a
// normal point is served next. After fig8 that point is sent at once, so
// the slot must be free within its 250 ms. The race build is too slow for
// that point to fit either deadline.
func TestFiguresHonorServerTimeout(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs figures into their deadlines")
	}
	for _, tc := range []struct {
		id      string
		timeout time.Duration
		// settle bounds how long the daemon may stay busy after the 504
		// before the next point is sent; 0 sends it at once.
		settle time.Duration
	}{
		{"fig8", 300 * time.Millisecond, 0},
		// Under a 50 ms timeout the next point has 50 ms too, and the
		// point compiling at pressure's deadline keeps the slot until
		// its compile ends: a compile cannot be canceled.
		{"pressure", 50 * time.Millisecond, 250 * time.Millisecond},
	} {
		t.Run(tc.id, func(t *testing.T) {
			sv := newServer(t, Config{Workers: 1, Timeout: tc.timeout})
			srv := httptest.NewServer(sv)
			defer srv.Close()

			start := time.Now()
			resp, body := getPath(t, srv, "/v1/figures/"+tc.id)
			took := time.Since(start)
			if resp.StatusCode != http.StatusGatewayTimeout {
				t.Fatalf("figures/%s: %d after %v, want 504: %.200s", tc.id, resp.StatusCode, took, body)
			}
			if took > tc.timeout+time.Second {
				t.Errorf("figures/%s: 504 after %v, want about its %v deadline", tc.id, took, tc.timeout)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Fatalf("expected a structured error body, got %.200s (%v)", body, err)
			}
			for deadline := time.Now().Add(tc.settle); tc.settle > 0 && sv.met.inflight.Value() != 0; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the daemon still simulates %v after the figure's 504", tc.settle)
				}
			}
			resp, body = postRun(t, srv, RunRequest{Benchmark: "cmp", Arch: fastArch(), TimeoutMS: 250})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("run after the figure's deadline: %d: %s", resp.StatusCode, body)
			}
		})
	}
}
