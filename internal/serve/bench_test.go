package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"regconn"
	"regconn/internal/bench"
)

// warmGrid is the serve-warm grid: the twelve paper benchmarks × issue
// {2,4,8} × the five backends at 2-cycle loads, combined connects and
// 16 integer / 32 FP core registers (180 points).
func warmGrid() SweepRequest {
	var req SweepRequest
	for _, bm := range bench.All() {
		req.Benchmarks = append(req.Benchmarks, bm.Name)
	}
	for _, issue := range []int{2, 4, 8} {
		for _, be := range []string{"spill", "rc", "portreduce", "chain", "unlimited"} {
			req.Archs = append(req.Archs, regconn.Arch{Issue: issue, LoadLatency: 2, IntCore: 16, FPCore: 32,
				Backend: be, CombineConnects: true})
		}
	}
	return req
}

// BenchmarkWarmSweep times the serve hit path alone: warm /v1/sweep
// requests of the 180-point serve-warm grid on a stored daemon whose LRU
// holds half the grid, so one client's sweeps read every point from the
// store. The grid is filled by one cold sweep before the timer starts;
// each warm stream must be byte-identical to the cold one.
//
//	go test -run '^$' -bench WarmSweep -benchmem ./internal/serve
func BenchmarkWarmSweep(b *testing.B) {
	sv, err := New(Config{StoreDir: b.TempDir(), CacheSize: 90})
	if err != nil {
		b.Fatal(err)
	}
	defer sv.Close()
	srv := httptest.NewServer(sv)
	defer srv.Close()

	grid := warmGrid()
	points := len(grid.Benchmarks) * len(grid.Archs)
	body, err := json.Marshal(grid)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	sweep := func() {
		buf.Reset()
		resp, err := srv.Client().Post(srv.URL+"/v1/sweep", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("sweep: %d %v", resp.StatusCode, err)
		}
	}
	sweep()
	cold := bytes.Clone(buf.Bytes())
	if n := bytes.Count(cold, []byte("\n")); n != points || bytes.Contains(cold, []byte(`"error"`)) {
		b.Fatalf("cold sweep streamed %d lines for %d points, or an error line", n, points)
	}
	b.SetBytes(int64(len(cold)))

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
		if !bytes.Equal(buf.Bytes(), cold) {
			b.Fatal("warm sweep differs from the cold stream")
		}
	}
	b.ReportMetric(float64(points*b.N)/b.Elapsed().Seconds(), "points/s")
}
