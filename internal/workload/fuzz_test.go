package workload_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"regconn/internal/workload"
)

// FuzzDecodeTraceReplay feeds arbitrary bodies to the trace decoder, as
// POST /v1/replay does, and replays whatever it accepts. Each body is
// tried as sent and again re-framed under a header carrying its payload's
// true length and checksum, so mutations of a seed's JSON get past the
// checksum to Validate and the simulator. The invariant is an error
// (ErrBadTrace from the decoder) or a verified replay, never a panic.
// Plain `go test` runs the seed corpus; `go test -fuzz
// FuzzDecodeTraceReplay ./internal/workload` explores from it.
func FuzzDecodeTraceReplay(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.rctrace"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed traces under testdata (%v)", err)
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// TestTraceCorruption's allocation-bound bodies: a header claiming a
	// whole MaxTracePayload payload that never arrives, and a header line
	// longer than the decoder's 4 KiB buffer (that test's line is 64 MiB;
	// past the buffer the path is the same).
	f.Add([]byte(fmt.Sprintf("rctrace 1 %d %s\n", workload.MaxTracePayload, strings.Repeat("0", 64))))
	f.Add(bytes.Repeat([]byte("0"), 8<<10))

	f.Fuzz(func(t *testing.T, body []byte) {
		decodeAndReplay(t, body)
		if _, payload, ok := bytes.Cut(body, []byte("\n")); ok {
			framed := fmt.Appendf(nil, "rctrace %d %d %x\n", workload.TraceVersion, len(payload), sha256.Sum256(payload))
			decodeAndReplay(t, append(framed, payload...))
		}
	})
}

// decodeAndReplay decodes body and replays the trace if it is accepted,
// under a deadline: a mutated trace may loop forever.
func decodeAndReplay(t *testing.T, body []byte) {
	tr, _, err := workload.DecodeTrace(bytes.NewReader(body))
	if err != nil {
		if !errors.Is(err, workload.ErrBadTrace) {
			t.Fatalf("DecodeTrace error does not wrap ErrBadTrace: %v", err)
		}
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if res, err := tr.Replay(ctx); res == nil && err == nil {
		t.Fatal("Replay returned neither a result nor an error")
	}
}
