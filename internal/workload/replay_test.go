package workload_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"regconn"
	"regconn/internal/machine"
	"regconn/internal/workload"
)

// TestConcurrentReplaysShareArenas: replays on four goroutines draw their
// machines from one pool, across traces of different issue widths and
// backends, and every result equals the trace's serial replay. A result is
// detached from its arena: it carries no memory image, and a later replay
// on the same arena leaves it as it was.
func TestConcurrentReplaysShareArenas(t *testing.T) {
	traces := []*workload.Trace{decodeFixture(t, "v1_mixed0.rctrace")}
	for _, pt := range []struct {
		name string
		arch regconn.Arch
	}{
		{"gen/connect-heavy/3", goldenArch()},
		{"gen/mixed/1", regconn.Arch{Issue: 8, LoadLatency: 2, IntCore: 16, FPCore: 32, Backend: "chain", Verify: true}},
	} {
		bm, err := workload.ByName(pt.name)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := regconn.Build(bm.Build(), pt.arch)
		if err != nil {
			t.Fatalf("build %s: %v", pt.name, err)
		}
		tr, err := ex.Trace(pt.name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dt, _, err := workload.DecodeTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, dt)
	}
	ctx := context.Background()
	serial := make([]*machine.Result, len(traces))
	for i, tr := range traces {
		res, err := tr.Replay(ctx)
		if err != nil {
			t.Fatalf("serial replay %s: %v", tr.Name, err)
		}
		if res.Mem != nil {
			t.Fatalf("replay %s returned a memory image", tr.Name)
		}
		serial[i] = res
	}
	kept := *serial[0]
	kept.IssueHist = append([]int64(nil), serial[0].IssueHist...)
	kept.MapInt, kept.MapFP = serial[0].MapInt.Clone(), serial[0].MapFP.Clone()

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds*len(traces); k++ {
				i := (g + k) % len(traces)
				res, err := traces[i].Replay(ctx)
				if err != nil {
					t.Errorf("goroutine %d: replay %s: %v", g, traces[i].Name, err)
					return
				}
				if !reflect.DeepEqual(res, serial[i]) {
					t.Errorf("goroutine %d: replay %s differs from its serial replay:\n got %+v\nwant %+v",
						g, traces[i].Name, res, serial[i])
				}
			}
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(*serial[0], kept) {
		t.Errorf("replay %s changed after later replays on shared arenas", traces[0].Name)
	}
}

// decodeFixture decodes a checked-in trace.
func decodeFixture(t *testing.T, name string) *workload.Trace {
	t.Helper()
	tr, _, err := workload.DecodeTrace(bytes.NewReader(readFixture(t, name)))
	if err != nil {
		t.Fatalf("decode %s: %v", name, err)
	}
	return tr
}
