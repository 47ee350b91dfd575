package serve

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"

	"regconn/internal/bench"
	"regconn/internal/obs"
)

// Sharding: when rcserve runs as N replicas (-peers, -self), every point
// key has exactly one owning replica, chosen by consistent hashing over
// the canonical SHA-256 key. A sweep received by any replica fans each
// grid point to its owner's /v1/sweep (marked local-only so forwarding
// terminates after one hop) and merges the NDJSON streams back into the
// deterministic benchmark-major request order, so the merged stream is
// byte-identical no matter which replica the client hit. Cache affinity
// is the point: a key's LRU entry and store record live on one replica,
// so N replicas hold N different slices of the corpus instead of N
// copies of the hottest one. A dead peer degrades, not fails: its points
// are computed locally (peer_fallback) and the sweep still completes.

// ringVnodes is the number of virtual nodes per replica; enough that a
// small fleet splits a sweep roughly evenly.
const ringVnodes = 64

// ring is a fixed consistent-hash ring over replica base URLs. Every
// replica builds the same ring from the same -peers list (order does not
// matter: positions are hashes of the URLs), so all replicas agree on
// every key's owner without coordination.
type ring struct {
	points []uint64 // sorted positions
	owners []string // parallel: points[i] is owned by owners[i]
	self   string
}

// newRing builds the ring. peers are replica base URLs (including self).
func newRing(peers []string, self string) *ring {
	r := &ring{self: self}
	for _, p := range peers {
		for v := 0; v < ringVnodes; v++ {
			sum := sha256.Sum256([]byte(fmt.Sprintf("%s#%d", p, v)))
			r.points = append(r.points, binary.BigEndian.Uint64(sum[:8]))
			r.owners = append(r.owners, p)
		}
	}
	sort.Sort(r)
	return r
}

func (r *ring) Len() int           { return len(r.points) }
func (r *ring) Less(i, j int) bool { return r.points[i] < r.points[j] }
func (r *ring) Swap(i, j int) {
	r.points[i], r.points[j] = r.points[j], r.points[i]
	r.owners[i], r.owners[j] = r.owners[j], r.owners[i]
}

// owner returns the replica owning key (a 64-char hex SHA-256 from Key):
// the first ring position clockwise from the key's own hash.
func (r *ring) owner(key string) string {
	var pos uint64
	if raw, err := hex.DecodeString(key); err == nil && len(raw) >= 8 {
		pos = binary.BigEndian.Uint64(raw[:8])
	} else {
		sum := sha256.Sum256([]byte(key))
		pos = binary.BigEndian.Uint64(sum[:8])
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= pos })
	if i == len(r.points) {
		i = 0
	}
	return r.owners[i]
}

// local reports whether this replica owns key (always true without a
// ring: a single replica owns everything).
func (r *ring) local(key string) bool {
	return r == nil || len(r.points) == 0 || r.owner(key) == r.self
}

// sweepJob is one grid point flowing through handleSweep: a local hit
// answered in res by the handler, or a local miss or a peer-owned point
// delivered on ch.
type sweepJob struct {
	bm    bench.Benchmark
	arch  SweepPoint // canonical arch, forwarded to the owner
	key   string
	owner string // ownerLocal or the owning peer's base URL
	res   result
	ch    chan result // nil when res holds the answer
}

// ready reports whether the job's answer is in res, receiving it from ch
// if it has arrived; it never waits.
func (j *sweepJob) ready() bool {
	if j.ch == nil {
		return true
	}
	select {
	case j.res = <-j.ch:
		j.ch = nil
		return true
	default:
		return false
	}
}

// forwardSweep sends one owner's slice of the grid to that peer as a
// local-only sub-sweep and relays the NDJSON lines, one per job, in
// order. The parent request's X-Request-ID rides along, so the peer's
// logs, trace, and progress table file the sub-sweep under the same ID.
// Any transport failure — connect, mid-stream disconnect, or a non-200 —
// falls back to computing the remaining points locally, so a dead peer
// costs affinity, never results; either way the peer's health timestamps
// are updated for the liveness gauges.
func (s *Server) forwardSweep(ctx context.Context, owner string, jobs []*sweepJob) {
	_, span := obs.StartSpan(ctx, "peer.forward")
	span.Set("peer", owner).Set("points", len(jobs))
	n := s.relaySweep(ctx, owner, jobs, span)
	span.Set("relayed", n)
	if n == len(jobs) {
		span.Set("ok", true).End()
		s.met.health.markOK(owner)
		return
	}
	// A stream that never started or ended early (peer down, or crashed
	// mid-sweep) leaves a tail of the slice unanswered; compute it here.
	span.Set("ok", false).End()
	s.met.health.markFail(owner)
	s.fallbackSweep(ctx, owner, jobs[n:])
}

// relaySweep POSTs the sub-sweep to the owner and relays lines; it
// returns how many jobs were answered.
func (s *Server) relaySweep(ctx context.Context, owner string, jobs []*sweepJob, span *obs.Span) int {
	pts := make([]SweepPoint, len(jobs))
	for i, j := range jobs {
		pts[i] = j.arch
	}
	body, err := json.Marshal(SweepRequest{Points: pts, LocalOnly: true})
	if err != nil {
		return 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := requestIDFrom(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := s.peerClient.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	i := 0
	for i < len(jobs) && sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		jobs[i].ch <- result{body: line, remoteErr: isErrorLine(line)}
		s.met.peerForwarded.With(owner).Inc()
		i++
	}
	// Read to EOF: the peer's handler has returned only then.
	io.Copy(io.Discard, resp.Body)
	return i
}

// fallbackSweep computes the peer-owned jobs on this replica, in its own
// worker pool.
func (s *Server) fallbackSweep(ctx context.Context, owner string, jobs []*sweepJob) {
	for _, j := range jobs {
		s.met.peerFallback.With(owner).Inc()
		go s.runSweepJob(ctx, j)
	}
}

// runSweepJob computes one grid point locally and delivers it. Latency
// and source counters are observed inside point, exactly as on the
// /v1/run route.
func (s *Server) runSweepJob(ctx context.Context, j *sweepJob) {
	body, _, err := s.point(ctx, "sweep", j.bm, j.arch.Arch, j.key)
	j.ch <- result{body: body, err: err}
}

// isErrorLine distinguishes a peer's error line from a RunResponse line:
// only errorBody carries a non-empty "error" field.
func isErrorLine(line []byte) bool {
	var eb errorBody
	return json.Unmarshal(line, &eb) == nil && eb.Error != ""
}
