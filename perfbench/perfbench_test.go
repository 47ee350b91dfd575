package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0 = no percentile has ten samples beyond it
	}{
		{0, 0}, {1, 0}, {10, 0}, {99, 0},
		{100, 90}, {998, 90}, {999, 90},
		{1000, 99}, {9999, 99},
		{10000, 99.9}, {50000, 99.9},
	} {
		p, ok := tailRule(tc.n)
		if (tc.want == 0) == ok || (ok && p != tc.want) {
			t.Errorf("tailRule(%d) = %v, %v; want %v", tc.n, p, ok, tc.want)
		}
		if ok && beyond(p, tc.n) < minBeyond {
			t.Errorf("tailRule(%d) = p%v with only %d samples beyond", tc.n, p, beyond(p, tc.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	s = sortedCopy(s)
	for _, tc := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v", got)
	}
	if b := beyond(90, 100); b != 10 {
		t.Errorf("beyond(90, 100) = %d, want 10", b)
	}
}

func TestSeedFixesOpSequence(t *testing.T) {
	a, b, c := paperGrid(7), paperGrid(7), paperGrid(8)
	same, moved := true, false
	for i := range a {
		same = same && a[i].key == b[i].key
		moved = moved || a[i].key != c[i].key
	}
	if !same || !moved {
		t.Errorf("paperGrid: same seed same order %v, other seed reorders %v", same, moved)
	}
	if len(a) != 252 {
		t.Errorf("sweep-cold pass has %d points, want 252", len(a))
	}

	seen := map[int64]bool{}
	for j := 0; j < 8; j++ {
		seen[warmSpec(j).Seed] = true
	}
	for k := 0; k < 5000; k++ {
		s := genSpec(7, k)
		if s != genSpec(7, k) {
			t.Fatalf("genSpec(7, %d) is not deterministic", k)
		}
		if seen[s.Seed] {
			t.Fatalf("genSpec(7, %d) repeats seed %d", k, s.Seed)
		}
		seen[s.Seed] = true
	}
	for k := 0; k < len(genProfiles()); k++ {
		x, y := genSpec(7, k), genSpec(8, k)
		bx, err := x.Generate()
		if err != nil {
			t.Fatal(err)
		}
		by, err := y.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if bx.Build().String() == by.Build().String() {
			t.Errorf("seeds 7 and 8 generate the same %s program", x.Profile)
		}
	}
}

// printed prints a report and returns the output and its parsed last line.
func printed(t *testing.T, rep *report) (string, result) {
	t.Helper()
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line: %v\n%s", err, out.String())
	}
	return out.String(), res
}

// smokeRun makes a timed run of w with one set-up and a 10 ms phase.
func smokeRun(t *testing.T, w workloadDef, seed int64) (string, result) {
	t.Helper()
	e := env{seed: seed, clients: runtime.NumCPU(), scratch: t.TempDir()}
	rep, err := timedRun(context.Background(), w, e, 1, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	return printed(t, rep)
}

func TestDigestRepeatsPerSeed(t *testing.T) {
	w, err := workloadByName("gen-cold")
	if err != nil {
		t.Fatal(err)
	}
	digestOf := func(seed int64) string {
		out, res := smokeRun(t, w, seed)
		if !res.Correct {
			t.Fatalf("seed %d: incorrect run\n%s", seed, out)
		}
		for _, l := range strings.Split(out, "\n") {
			if d, ok := strings.CutPrefix(l, "digest: "); ok {
				return d
			}
		}
		t.Fatalf("no digest line\n%s", out)
		return ""
	}
	a, b, c := digestOf(3), digestOf(3), digestOf(4)
	if a != b {
		t.Errorf("seed 3 digests differ: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 3 and 4 share digest %s", a)
	}
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// checkReport asserts a run was correct, printed every metric by name and
// put exactly the declared metrics in its JSON line.
func checkReport(t *testing.T, out string, res result, names []string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct %v, %d of %d failed\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if !strings.Contains(out, "metric error_rate ") {
		t.Errorf("error_rate not printed\n%s", out)
	}
	for _, n := range names {
		if !strings.Contains(out, "metric "+n+" ") {
			t.Errorf("metric %s not printed", n)
		}
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("metric %s missing from the JSON line", n)
		}
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("JSON line has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(names))
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, res := smokeRun(t, w, 5)
			checkReport(t, out, res, endToEnd)

			e := env{seed: 5, clients: 1, scratch: t.TempDir()}
			rep, err := tracedRun(context.Background(), w, e, 2)
			if err != nil {
				t.Fatal(err)
			}
			out, res = printed(t, rep)
			checkReport(t, out, res, perLayer)
		})
	}
}
