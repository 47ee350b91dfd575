package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"

	"regconn"
)

func TestRingDeterministicAndCovering(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	r1 := newRing(peers, peers[0])
	r2 := newRing([]string{peers[2], peers[0], peers[1]}, peers[1]) // same fleet, different order
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		key := Key(fmt.Sprintf("bench-%d", i), fastArch())
		o := r1.owner(key)
		if got := r2.owner(key); got != o {
			t.Fatalf("replicas disagree on owner of %s: %s vs %s", key, o, got)
		}
		if o != r1.owner(key) {
			t.Fatalf("owner of %s is unstable", key)
		}
		counts[o]++
	}
	for _, p := range peers {
		if counts[p] == 0 {
			t.Errorf("replica %s owns no keys of 300 (distribution: %v)", p, counts)
		}
	}
	// local() agrees with owner() == self, and a nil ring owns everything.
	key := Key("cpp", fastArch())
	if r1.local(key) != (r1.owner(key) == r1.self) {
		t.Error("local() disagrees with owner()")
	}
	var none *ring
	if !none.local(key) {
		t.Error("nil ring must own every key")
	}
}

// replica is one rcserve instance of a test fleet on a real listener.
type replica struct {
	sv   *Server
	base string
}

// startFleet brings up n replicas that all know the same peer list.
func startFleet(t *testing.T, n int, cfg Config) []replica {
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
	for i := range lns {
		c := cfg
		c.Peers = append([]string(nil), peers...)
		c.Self = peers[i]
		sv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sv.Close() })
		hs := &http.Server{Handler: sv}
		go hs.Serve(lns[i])
		t.Cleanup(func() { hs.Close() })
		out[i] = replica{sv: sv, base: peers[i]}
	}
	return out
}

func shardGrid() SweepRequest {
	var archs []regconn.Arch
	for _, issue := range []int{1, 2, 4, 8} {
		for _, lat := range []int{2, 4} {
			a := fastArch()
			a.Issue = issue
			a.LoadLatency = lat
			archs = append(archs, a)
		}
	}
	return SweepRequest{Benchmarks: []string{"matrix300"}, Archs: archs}
}

// shardGridSplit is shardGrid grown by memory-channel variants until a's
// peer owns at least one point — the ring hashes random listen ports, so
// the base grid alone gives it none about once in 256 runs — together
// with the number of points the peer owns.
func shardGridSplit(a replica) (SweepRequest, int) {
	grid := shardGrid()
	for ch := 1; ; ch++ {
		peerOwned := 0
		for _, arch := range grid.Archs {
			if !a.sv.ring.local(Key("matrix300", arch)) {
				peerOwned++
			}
		}
		if peerOwned > 0 {
			return grid, peerOwned
		}
		arch := fastArch()
		arch.MemChannels = ch
		grid.Archs = append(grid.Archs, arch)
	}
}

func TestShardedSweepSplitsByOwnerAndMatchesUnsharded(t *testing.T) {
	fleet := startFleet(t, 2, Config{Workers: 2})
	a, b := fleet[0], fleet[1]
	grid := shardGrid()

	// Ownership is decided by the ring; compute the expected split.
	var aOwned, bOwned int
	for _, arch := range grid.Archs {
		if a.sv.ring.local(Key("matrix300", arch)) {
			aOwned++
		} else {
			bOwned++
		}
	}

	lines := postFleetSweep(t, a.base, grid)
	if len(lines) != len(grid.Archs) {
		t.Fatalf("sweep streamed %d lines, want %d", len(lines), len(grid.Archs))
	}
	for i, line := range lines {
		var rr RunResponse
		if err := json.Unmarshal([]byte(line), &rr); err != nil || rr.Result == nil || rr.Result.Cycles == 0 {
			t.Fatalf("line %d is not a simulated point: %s", i, line)
		}
	}

	// Affinity: each replica cached exactly the points it owns — the
	// fleet holds one copy of the corpus, not two.
	if got := a.sv.cache.Len(); got != aOwned {
		t.Errorf("replica A cached %d points, owns %d", got, aOwned)
	}
	if got := b.sv.cache.Len(); got != bOwned {
		t.Errorf("replica B cached %d points, owns %d", got, bOwned)
	}
	if fwd := metricsOf(t, a.base)["peer_forwarded"]; fwd != float64(bOwned) {
		t.Errorf("peer_forwarded = %v, want %d", fwd, bOwned)
	}

	// The merged stream is deterministic: a warm re-sweep (replica-local
	// caches now hot) is byte-identical, from either entry replica.
	if warm := postFleetSweep(t, a.base, grid); !equalLines(warm, lines) {
		t.Error("warm sharded sweep differs from cold")
	}
	if viaB := postFleetSweep(t, b.base, grid); !equalLines(viaB, lines) {
		t.Error("sweep through replica B differs from replica A")
	}

	// And the sharded fleet streams exactly what one unsharded daemon
	// would: forwarding never changes bytes or order.
	solo := newServer(t, Config{Workers: 2})
	soloSrv := httptest.NewServer(solo)
	defer soloSrv.Close()
	if ref := postSweep(t, soloSrv, grid); !equalLines(ref, lines) {
		t.Error("sharded sweep differs from the unsharded reference stream")
	}

	// LocalOnly bypasses the ring: no new forwards, still the same bytes.
	before := metricsOf(t, a.base)["peer_forwarded"]
	localReq := grid
	localReq.LocalOnly = true
	if local := postFleetSweep(t, a.base, localReq); !equalLines(local, lines) {
		t.Error("local-only sweep differs")
	}
	if after := metricsOf(t, a.base)["peer_forwarded"]; after != before {
		t.Errorf("local-only sweep forwarded points: %v -> %v", before, after)
	}
}

// TestShardedSweepPeerDownFallsBackLocally: a dead replica's points are
// computed by the replica that took the request; the sweep still
// completes with every point simulated.
func TestShardedSweepPeerDownFallsBackLocally(t *testing.T) {
	// Reserve an address, then close it: a guaranteed-dead peer.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	sv, err := New(Config{Workers: 2, Peers: []string{self, deadURL}, Self: self})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sv.Close() })
	hs := &http.Server{Handler: sv}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	grid := shardGrid()
	var remote int
	for _, arch := range grid.Archs {
		if !sv.ring.local(Key("matrix300", arch)) {
			remote++
		}
	}
	lines := postFleetSweep(t, self, grid)
	if len(lines) != len(grid.Archs) {
		t.Fatalf("sweep streamed %d lines, want %d", len(lines), len(grid.Archs))
	}
	for i, line := range lines {
		var rr RunResponse
		if err := json.Unmarshal([]byte(line), &rr); err != nil || rr.Result == nil || rr.Result.Cycles == 0 {
			t.Fatalf("line %d did not survive the dead peer: %s", i, line)
		}
	}
	m := metricsOf(t, self)
	if m["peer_fallback"] != float64(remote) {
		t.Errorf("peer_fallback = %v, want %d (every dead-peer point computed locally)", m["peer_fallback"], remote)
	}
	if m["peer_forwarded"] != 0 {
		t.Errorf("peer_forwarded = %v, want 0", m["peer_forwarded"])
	}
}

func TestNewRejectsSelfOutsidePeers(t *testing.T) {
	_, err := New(Config{Peers: []string{"http://a:1", "http://b:1"}, Self: "http://c:1"})
	if err == nil {
		t.Fatal("config with self outside peers accepted")
	}
}

func postFleetSweep(t *testing.T, base string, req SweepRequest) []string {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep on %s: %d", base, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	raw := bytes.TrimRight(buf.Bytes(), "\n")
	var out []string
	for _, b := range bytes.Split(raw, []byte("\n")) {
		out = append(out, string(b))
	}
	return out
}

func metricsOf(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
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

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
