package serve

import (
	"expvar"
	"fmt"
	"time"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/lru"
	"regconn/internal/obs"
	"regconn/internal/store"
)

// metrics is the daemon's metric set, built on the internal/obs registry:
// labeled counters and fixed-bucket latency histograms replacing the old
// flat expvar ints and the 1024-sample sorted latency window. The
// registry renders two ways from one source of truth: Prometheus text
// exposition (GET /metrics?format=prometheus) and the legacy expvar JSON
// map, whose keys are derived views (sums over the labeled families,
// quantiles over the merged histogram) so pre-existing scrapers and
// tests see exactly the shape they always did.
//
// Nothing here is published to the process-global expvar registry — it
// panics on duplicate names and tests construct many servers per
// process. cmd/rcserve publishes the map once under "rcserve".
//
// The registered families are documented in DESIGN.md §15's metric
// table; scripts/metricslint.sh cross-checks code against that table in
// both directions.
type metrics struct {
	reg *obs.Registry

	requests     *obs.CounterVec   // by endpoint
	errors       *obs.CounterVec   // by endpoint
	points       *obs.CounterVec   // by endpoint, source (hit|miss|coalesced)
	latency      *obs.HistogramVec // by endpoint, backend; seconds
	inflight     *obs.Gauge
	slowRequests *obs.Counter

	sweepPointErrors *obs.Counter
	peerForwarded    *obs.CounterVec // by peer
	peerFallback     *obs.CounterVec // by peer
	peerOKAge        *obs.GaugeVec   // by peer; refreshed at scrape
	peerFailAge      *obs.GaugeVec   // by peer; refreshed at scrape
	storeErrors      *obs.Counter
	frontends        *obs.CounterVec // by result (compiled|reused)

	health *peerHealth // nil when unsharded

	legacy *expvar.Map // built once; Funcs pull live values at render
}

// newMetrics registers every family. cache and st (st may be nil) feed
// the scrape-time gauges; peers are the fleet's other replicas, whose
// liveness series exist from startup so a scrape sees a never-contacted
// peer as age -1 rather than as a missing series.
func newMetrics(cache *lru.Cache[[]byte], st *store.Store, peers []string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg: reg,
		requests: reg.CounterVec("rcserve_requests_total",
			"HTTP requests accepted", "endpoint"),
		errors: reg.CounterVec("rcserve_errors_total",
			"requests answered with status >= 400, plus sweeps whose every point failed", "endpoint"),
		points: reg.CounterVec("rcserve_points_total",
			"points answered, by how the bytes were produced (hit, miss, coalesced)", "endpoint", "source"),
		latency: reg.HistogramVec("rcserve_point_latency_seconds",
			"per-point answer latency, every route (run and sweep)", nil, "endpoint", "backend"),
		inflight: reg.Gauge("rcserve_inflight",
			"simulations currently executing"),
		slowRequests: reg.Counter("rcserve_slow_requests_total",
			"requests slower than the slow-request threshold"),
		sweepPointErrors: reg.Counter("rcserve_sweep_point_errors_total",
			"failed points inside 200 NDJSON sweep streams"),
		peerForwarded: reg.CounterVec("rcserve_peer_forwarded_total",
			"sweep points answered by the owning peer replica", "peer"),
		peerFallback: reg.CounterVec("rcserve_peer_fallback_total",
			"peer-owned points computed locally because the peer failed", "peer"),
		peerOKAge: reg.GaugeVec("rcserve_peer_ok_age_seconds",
			"seconds since the last fully successful forward to the peer (-1 = never)", "peer"),
		peerFailAge: reg.GaugeVec("rcserve_peer_fail_age_seconds",
			"seconds since the last failed forward to the peer (-1 = never)", "peer"),
		storeErrors: reg.Counter("rcserve_store_errors_total",
			"store appends that failed (result still served)"),
		frontends: reg.CounterVec("rcserve_frontends_total",
			"simulated points by how they got their front end (compiled, reused)", "result"),
	}
	reg.GaugeFunc("rcserve_cache_entries",
		"entries resident in the LRU result cache",
		func() float64 { return float64(cache.Len()) })
	reg.GaugeFunc("rcserve_cache_evictions",
		"entries evicted from the LRU since start",
		func() float64 { return float64(cache.Evicted()) })
	if st != nil {
		reg.GaugeFunc("rcserve_store_entries", "points in the persistent store",
			func() float64 { return float64(st.Stats().Entries) })
		reg.GaugeFunc("rcserve_store_bytes", "bytes in the persistent store's segments",
			func() float64 { return float64(st.Stats().Bytes) })
		reg.GaugeFunc("rcserve_store_hits", "points served from the persistent store",
			func() float64 { return float64(st.Stats().Hits) })
		reg.GaugeFunc("rcserve_store_recovered", "records recovered by the torn-tail scan at open",
			func() float64 { return float64(st.Stats().Recovered) })
	}
	if len(peers) > 0 {
		m.health = newPeerHealth()
		for _, p := range peers {
			m.peerOKAge.With(p).Set(-1)
			m.peerFailAge.With(p).Set(-1)
			m.peerForwarded.With(p)
			m.peerFallback.With(p)
		}
	}
	m.legacy = m.buildLegacyMap(cache, st, peers)
	return m
}

// observe records one answered point: the source counter and the latency
// histogram, labeled by endpoint and backend. Every route goes through
// it (run, sweep-local, sweep-fallback, replay, figures), which is what
// makes the p50/p99 truthful for sweep-dominated traffic.
func (m *metrics) observe(endpoint string, arch regconn.Arch, src pointSource, d time.Duration) {
	m.points.With(endpoint, src.label()).Inc()
	m.latency.With(endpoint, backendLabel(arch)).Observe(d.Seconds())
}

// refresh recomputes the scrape-time peer liveness gauges. Called by
// handleMetrics before either rendering.
func (m *metrics) refresh() {
	if m.health == nil {
		return
	}
	now := time.Now()
	m.health.each(func(peer string, lastOK, lastFail time.Time) {
		m.peerOKAge.With(peer).Set(age(now, lastOK))
		m.peerFailAge.With(peer).Set(age(now, lastFail))
	})
}

func age(now, t time.Time) float64 {
	if t.IsZero() {
		return -1
	}
	return now.Sub(t).Seconds()
}

// backendLabel names the register architecture of a (canonicalized) Arch
// for the latency histogram's backend label.
func backendLabel(arch regconn.Arch) string {
	if arch.Backend != "" {
		return arch.Backend
	}
	if be, err := backend.ByID(arch.Mode); err == nil {
		return be.Name()
	}
	return fmt.Sprintf("mode%d", arch.Mode)
}

// intFunc and floatFunc adapt live reads into expvar map entries.
func intFunc(f func() int64) expvar.Func     { return func() any { return f() } }
func floatFunc(f func() float64) expvar.Func { return func() any { return f() } }

// buildLegacyMap assembles the expvar map served as GET /metrics JSON —
// the same flat map[string]float64 shape as before the obs registry,
// every key a live view over the labeled families. It is built exactly
// once; Server.Metrics hands out this same *expvar.Map on every call.
func (m *metrics) buildLegacyMap(cache *lru.Cache[[]byte], st *store.Store, peers []string) *expvar.Map {
	out := new(expvar.Map).Init()
	sum := func(v *obs.CounterVec) expvar.Func {
		return intFunc(func() int64 { return v.Sum(nil) })
	}
	srcSum := func(src string) expvar.Func {
		return intFunc(func() int64 {
			return m.points.Sum(func(values []string) bool { return values[1] == src })
		})
	}
	out.Set("requests", sum(m.requests))
	out.Set("cache_hits", srcSum("hit"))
	out.Set("cache_misses", srcSum("miss"))
	out.Set("coalesced", srcSum("coalesced"))
	out.Set("inflight", intFunc(func() int64 { return int64(m.inflight.Value()) }))
	out.Set("errors", sum(m.errors))
	out.Set("slow_requests", intFunc(m.slowRequests.Value))
	out.Set("sweep_point_errors", intFunc(m.sweepPointErrors.Value))
	out.Set("peer_forwarded", sum(m.peerForwarded))
	out.Set("peer_fallback", sum(m.peerFallback))
	out.Set("store_errors", intFunc(m.storeErrors.Value))
	out.Set("frontends_compiled", intFunc(m.frontends.With("compiled").Value))
	out.Set("frontends_reused", intFunc(m.frontends.With("reused").Value))
	out.Set("cache_entries", intFunc(func() int64 { return int64(cache.Len()) }))
	out.Set("cache_evictions", intFunc(cache.Evicted))
	if st != nil {
		out.Set("store_entries", intFunc(func() int64 { return st.Stats().Entries }))
		out.Set("store_bytes", intFunc(func() int64 { return st.Stats().Bytes }))
		out.Set("store_hits", intFunc(func() int64 { return st.Stats().Hits }))
		out.Set("store_recovered", intFunc(func() int64 { return st.Stats().Recovered }))
	}
	out.Set("latency_p50_ms", floatFunc(func() float64 { return m.latency.Quantile(0.50) * 1000 }))
	out.Set("latency_p99_ms", floatFunc(func() float64 { return m.latency.Quantile(0.99) * 1000 }))
	// Peer liveness, one flat key per peer so the map stays decodable as
	// map[string]float64 (age in seconds; -1 = never happened).
	for _, p := range peers {
		peer := p
		out.Set("peer_ok_age_s;peer="+peer, floatFunc(func() float64 {
			ok, _ := m.health.last(peer)
			return age(time.Now(), ok)
		}))
		out.Set("peer_fail_age_s;peer="+peer, floatFunc(func() float64 {
			_, fail := m.health.last(peer)
			return age(time.Now(), fail)
		}))
	}
	return out
}
