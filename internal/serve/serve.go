// Package serve is the simulation-as-a-service layer: a long-running HTTP
// daemon (cmd/rcserve) exposing the experiment runner. One POST /v1/run
// simulates a single benchmark × Arch point; POST /v1/sweep streams a grid
// as NDJSON; GET /v1/figures/{id} regenerates a paper figure; /healthz and
// /metrics round out operability.
//
// The hot path is: canonical key → bounded LRU (marshaled response bytes,
// so a warm hit is byte-identical to the cold run that filled it) →
// persistent store (when -store-dir is set: the disk-backed,
// crash-recoverable result corpus, read through into the LRU) →
// waiter-counted singleflight (concurrent identical requests collapse to
// one simulation; the simulation's context is canceled only when every
// waiter has gone) → bounded worker pool → the front-end memo's RunPoint,
// whose context reaches machine.RunContext's cycle loop. The memo
// (exp.Frontends, 2 × Workers entries) compiles each program's front end
// once for all the back ends that share it. Canceled or failed points are
// never cached, so a cancellation cannot corrupt later results. With
// -peers, /v1/sweep additionally shards grid points across replicas by
// consistent key hash (shard.go) so a fleet splits the corpus.
package serve

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/exp"
	"regconn/internal/flight"
	"regconn/internal/lru"
	"regconn/internal/machine"
	"regconn/internal/obs"
	"regconn/internal/store"
	"regconn/internal/workload"
)

// Config sizes the daemon.
type Config struct {
	// CacheSize bounds the LRU result cache in entries (0 = 1024).
	CacheSize int
	// Workers bounds concurrent simulations (0 = GOMAXPROCS).
	Workers int
	// Timeout is the per-request simulation deadline (0 = no deadline).
	Timeout time.Duration
	// StoreDir enables the persistent result store under the LRU
	// ("" = memory-only, exactly the pre-store behavior).
	StoreDir string
	// Peers lists every replica's base URL, including this one, when the
	// daemon is part of a sharded fleet (empty = unsharded). All replicas
	// must be started with the same list; order is irrelevant.
	Peers []string
	// Self is this replica's entry in Peers (required with Peers).
	Self string

	// Trace enables request tracing: every run/sweep/figures request
	// builds a span tree, retained in memory (TraceKeep) and served by
	// GET /debug/trace. Off by default: with tracing off requests carry
	// no span and the instrumentation is nil no-ops.
	Trace bool
	// TraceDir additionally writes each finished trace as
	// <id>.trace.json into the directory (implies Trace; the directory
	// is created by New).
	TraceDir string
	// TraceKeep bounds the in-memory trace retention ring (0 = 64).
	TraceKeep int
	// Logger receives structured request logs (nil = discard).
	Logger *slog.Logger
	// SlowThreshold marks requests slower than it as slow (logged at
	// Warn, counted in rcserve_slow_requests_total; 0 = 2s).
	SlowThreshold time.Duration
}

// Server implements the HTTP API. Create with New; it is an http.Handler.
type Server struct {
	cfg        Config
	cache      *lru.Cache[[]byte] // marshaled response bytes: a warm hit is the cold run's bytes
	store      *store.Store       // nil = memory-only
	ring       *ring              // nil = unsharded
	peerClient *http.Client
	flights    *flight.Group[[]byte] // marshaled response bytes per key
	met        *metrics
	obs        *serveObs
	sem        chan struct{}
	frontends  *exp.Frontends // front ends shared by a program's points
	mux        *http.ServeMux
	draining   atomic.Bool
}

// New returns a ready-to-serve Server. It fails only when the persistent
// store or trace directory cannot be opened or the shard configuration
// is inconsistent.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 1024
	}
	s := &Server{
		cfg:     cfg,
		cache:   lru.New[[]byte](cfg.CacheSize),
		flights: flight.NewGroup[[]byte](),
		sem:     make(chan struct{}, cfg.Workers),
		// Two front ends per worker slot: a slot's current program and
		// the next, so a sweep's back ends find theirs.
		frontends: exp.NewFrontends(2 * cfg.Workers),
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: trace dir: %w", err)
		}
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{})
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	if len(cfg.Peers) > 0 {
		if !slices.Contains(cfg.Peers, cfg.Self) {
			if s.store != nil {
				s.store.Close()
			}
			return nil, fmt.Errorf("serve: self %q is not in the peers list %v", cfg.Self, cfg.Peers)
		}
		s.ring = newRing(cfg.Peers, cfg.Self)
		// Streaming sub-sweeps have no client-side timeout of their own;
		// the per-request context bounds them.
		s.peerClient = &http.Client{}
	}
	// The metric set is built after cache/store/ring exist: the
	// scrape-time gauges close over them, and the fleet's peer-liveness
	// series are registered up front for every peer we could forward to.
	var others []string
	for _, p := range cfg.Peers {
		if p != cfg.Self {
			others = append(others, p)
		}
	}
	s.met = newMetrics(s.cache, s.store, others)
	s.frontends.Observe = func(result string) { s.met.frontends.With(result).Inc() }
	s.obs = newServeObs(cfg)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("POST /v1/replay", s.handleReplay)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweeps)
	mux.HandleFunc("GET /v1/figures/{id}", s.handleFigures)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleDebugTrace)
	s.mux = mux
	return s, nil
}

// Close releases the persistent store (a no-op for memory-only servers).
// A killed process that never got here loses nothing: every store append
// was fsynced before the point was first served.
func (s *Server) Close() error {
	if s.store != nil {
		return s.store.Close()
	}
	return nil
}

// SetDraining flips /healthz to 503 so load balancers stop routing new
// work here while http.Server.Shutdown lets inflight requests finish.
func (s *Server) SetDraining() { s.draining.Store(true) }

// endpointOf classifies a request for metric labels and trace roots.
func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/run":
		return "run"
	case p == "/v1/replay":
		return "replay"
	case p == "/v1/sweep":
		return "sweep"
	case p == "/v1/sweeps":
		return "sweeps"
	case strings.HasPrefix(p, "/v1/figures/"):
		return "figures"
	case p == "/healthz":
		return "healthz"
	case p == "/metrics":
		return "metrics"
	case p == "/debug/trace":
		return "trace"
	}
	return "other"
}

// traceableEndpoint reports whether the endpoint does work worth a span
// tree (observability polls are not traced).
func traceableEndpoint(ep string) bool {
	return ep == "run" || ep == "replay" || ep == "sweep" || ep == "figures"
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ep := endpointOf(r)
	s.met.requests.With(ep).Inc()

	// Every request gets a request ID: the client's own X-Request-ID when
	// it is safe to echo (peer sub-sweeps propagate theirs so one sweep is
	// one ID fleet-wide), a fresh one otherwise. The ID is the trace ID.
	rid := r.Header.Get("X-Request-ID")
	if !obs.ValidRequestID(rid) {
		rid = obs.NewRequestID()
	}
	w.Header().Set("X-Request-ID", rid)
	ctx := context.WithValue(r.Context(), ridCtxKey{}, rid)

	var tr *obs.Trace
	var root *obs.Span
	if s.obs.trace && traceableEndpoint(ep) {
		tr = obs.NewTrace(rid)
		root = tr.Root(ep)
		ctx = obs.NewContext(ctx, root)
	}

	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r.WithContext(ctx))
	dur := time.Since(start)

	if sw.status >= 400 {
		s.met.errors.With(ep).Inc()
	}
	if tr != nil {
		root.End()
		tr.Finish()
		s.obs.retain(tr)
	}
	s.logRequest(r, ep, rid, sw, dur)
}

// logRequest emits the structured request log line. Successful
// observability polls (healthz, metrics, sweeps) are skipped so an rctop
// refresh loop does not flood the log.
func (s *Server) logRequest(r *http.Request, ep, rid string, sw *statusWriter, dur time.Duration) {
	slow := dur >= s.obs.slow
	if slow {
		s.met.slowRequests.Inc()
	}
	if sw.status < 400 && (ep == "healthz" || ep == "metrics" || ep == "sweeps") {
		return
	}
	attrs := []any{
		"request_id", rid,
		"method", r.Method,
		"path", r.URL.Path,
		"status", sw.status,
		"duration_ms", dur.Milliseconds(),
	}
	if c := sw.Header().Get("X-Cache"); c != "" {
		attrs = append(attrs, "cache", c)
	}
	if slow {
		s.obs.log.Warn("slow request", attrs...)
		return
	}
	s.obs.log.Info("request", attrs...)
}

// statusWriter records the response status for the error counter and the
// request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// RunRequest is the body of POST /v1/run.
type RunRequest struct {
	Benchmark string       `json:"benchmark"`
	Arch      regconn.Arch `json:"arch"`

	// Workload selects a generated workload instead of a named benchmark
	// ({"profile": "connect-heavy", "seed": 42}). Exactly one of Benchmark
	// and Workload must be given; the point is keyed by the workload's
	// canonical gen/<profile>/<seed> name, so the spec and the name are
	// one cache entry.
	Workload *workload.Spec `json:"workload,omitempty"`

	// TimeoutMS optionally tightens the server's per-request deadline for
	// this request (milliseconds; 0 = server default). It is not part of
	// the cache key: how long a client was willing to wait does not change
	// what the point computes.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RunResponse is the body of POST /v1/run and of each /v1/sweep line.
// Exactly these marshaled bytes are cached, so warm and cold responses for
// a key are bit-identical.
type RunResponse struct {
	Benchmark string       `json:"benchmark"`
	Arch      regconn.Arch `json:"arch"`
	Key       string       `json:"key"`
	Result    *exp.Result  `json:"result"`
}

// SweepRequest is the body of POST /v1/sweep: the full cross product of
// benchmarks × archs is simulated and streamed back one NDJSON line per
// point, in benchmark-major request order. Points, when set, replaces
// the cross product with an explicit list — shard fan-out uses it, since
// one replica's slice of a grid is rarely a cross product itself.
type SweepRequest struct {
	Benchmarks []string       `json:"benchmarks"`
	Archs      []regconn.Arch `json:"archs"`

	// Workloads adds generated workloads to the cross product, after the
	// named benchmarks.
	Workloads []workload.Spec `json:"workloads,omitempty"`

	// Points is an explicit point list (overrides Benchmarks × Archs).
	Points []SweepPoint `json:"points,omitempty"`

	// LocalOnly forces every point to compute on this replica, ignoring
	// the shard ring. Sub-sweeps forwarded between replicas set it, so
	// ownership is resolved exactly once.
	LocalOnly bool `json:"local_only,omitempty"`
}

// SweepPoint is one (benchmark, arch) coordinate of a sweep. Workload, when
// set, selects a generated workload instead of Benchmark (same contract as
// RunRequest); the field forwards verbatim to an owning shard.
type SweepPoint struct {
	Benchmark string         `json:"benchmark"`
	Arch      regconn.Arch   `json:"arch"`
	Workload  *workload.Spec `json:"workload,omitempty"`
}

// resolveBenchmark resolves a request's benchmark coordinate: a workload
// spec when given (its canonical gen/ name becomes the point's identity),
// otherwise a name in either namespace — a paper benchmark or a
// gen/<profile>/<seed> spelling. Giving both is an error unless they name
// the same workload; failures wrap workload.ErrBadSpec (a 400).
func resolveBenchmark(name string, spec *workload.Spec) (bench.Benchmark, error) {
	if spec != nil {
		if name != "" && name != spec.Name() {
			return bench.Benchmark{}, fmt.Errorf("%w: both benchmark %q and workload %q given",
				workload.ErrBadSpec, name, spec.Name())
		}
		return spec.Generate()
	}
	return workload.ByName(name)
}

// errorBody is any endpoint's failure payload.
type errorBody struct {
	Benchmark string `json:"benchmark,omitempty"`
	Key       string `json:"key,omitempty"`
	Error     string `json:"error"`
}

// Key returns the canonical cache key of one point: the hex SHA-256 of the
// canonical JSON encoding of (benchmark, Arch). Two requests are the same
// point exactly when their benchmark names and Arch values name the same
// backend configuration; client-side knobs like TimeoutMS are deliberately
// excluded. The Arch is canonicalized first so the two spellings of one
// backend — a Backend name or a legacy Mode number — hash identically, and
// so legacy points (whose canonical form leaves Backend empty) keep the
// exact keys they had before Backend existed.
func Key(benchmark string, arch regconn.Arch) string {
	return hashPoint(pointBytes(nil, marshal(benchmark), marshal(arch.Canonical())))
}

// pointBytes appends the encoding Key hashes, given the point's benchmark
// name and canonical Arch as JSON: the bytes json.Marshal renders for
// struct{Benchmark, Arch} with the tags "benchmark" and "arch".
func pointBytes(buf, name, arch []byte) []byte {
	buf = slices.Grow(buf, len(`{"benchmark":,"arch":}`)+len(name)+len(arch))
	buf = append(buf, `{"benchmark":`...)
	buf = append(buf, name...)
	buf = append(buf, `,"arch":`...)
	buf = append(buf, arch...)
	return append(buf, '}')
}

// marshal encodes a benchmark name or an Arch: plain data json.Marshal
// cannot fail on.
func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: %T not marshalable: %v", v, err))
	}
	return b
}

// hashPoint renders the key of an encoded point: its hex SHA-256.
func hashPoint(enc []byte) string {
	sum := sha256.Sum256(enc)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// sweepKeys keys one sweep's points as Key does, but marshals each
// distinct benchmark name and canonical Arch once: a cross product of 12
// benchmarks and 15 archs marshals 27 values for its 180 keys.
type sweepKeys struct {
	names map[string][]byte
	archs map[regconn.Arch][]byte
	buf   []byte
}

// key returns Key(name, arch) for a canonical arch.
func (sk *sweepKeys) key(name string, arch regconn.Arch) string {
	if sk.names == nil {
		sk.names, sk.archs = map[string][]byte{}, map[regconn.Arch][]byte{}
	}
	n, ok := sk.names[name]
	if !ok {
		n = marshal(name)
		sk.names[name] = n
	}
	a, ok := sk.archs[arch]
	if !ok {
		a = marshal(arch)
		sk.archs[arch] = a
	}
	sk.buf = pointBytes(sk.buf[:0], n, a)
	return hashPoint(sk.buf)
}

// pointSource says where a point's bytes came from; handleRun renders it
// as the X-Cache header and exactly one counter is bumped per source.
type pointSource int

const (
	srcMiss      pointSource = iota // this request owned the flight and simulated
	srcHit                          // served from the LRU or the persistent store
	srcCoalesced                    // joined a flight another request owned
)

func (src pointSource) String() string {
	switch src {
	case srcHit:
		return "HIT"
	case srcCoalesced:
		return "COALESCED"
	default:
		return "MISS"
	}
}

// label is the source's metric-label spelling.
func (src pointSource) label() string {
	switch src {
	case srcHit:
		return "hit"
	case srcCoalesced:
		return "coalesced"
	default:
		return "miss"
	}
}

// resolve answers one keyed point: lookup (LRU, then the persistent
// store), then fly (singleflight, a worker slot, compute). It returns the
// response bytes and their source. Every route into a point — /v1/run
// and /v1/figures through point, /v1/replay through replayPoint, and
// /v1/sweep through the same two stages — comes through lookup, so
// per-point latency and the source counters are observed uniformly under
// the endpoint and arch's backend labels, and the span tree (when the
// request is traced) records each stage.
func (s *Server) resolve(ctx context.Context, endpoint, name, k string, arch regconn.Arch, sim string,
	compute func(ctx context.Context) (any, error)) ([]byte, pointSource, error) {
	body, miss, err := s.lookup(ctx, endpoint, name, k, arch)
	switch {
	case err != nil:
		return nil, srcMiss, err
	case miss != nil:
		return s.fly(miss, k, sim, compute)
	}
	return body, srcHit, nil
}

// pointCall is a point between its lookup and its answer: the context
// carrying its span, when it started and the labels it is observed under.
type pointCall struct {
	ctx context.Context
	// span is nil when the request is untraced. Attributes are set only
	// on a real span: boxing their strings would allocate for nothing.
	span     *obs.Span
	start    time.Time
	endpoint string
	backend  string
}

// done ends the point's span and observes its answer.
func (s *Server) done(c *pointCall, src pointSource) {
	if c.span != nil {
		c.span.Set("cache", src.String()).End()
	}
	s.met.observe(c.endpoint, c.backend, src, time.Since(c.start))
}

// lookup starts one keyed point under a "point" span and looks it up in
// the LRU, then the persistent store. A hit is observed here and returns
// its bytes; a miss returns the open call, which fly finishes. A done
// context returns its error and starts nothing: no flight could then
// take a free slot and begin a compile no cancellation stops.
func (s *Server) lookup(ctx context.Context, endpoint, name, k string, arch regconn.Arch) (body []byte, miss *pointCall, err error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c := pointCall{start: time.Now(), endpoint: endpoint, backend: backendLabel(arch)}
	c.ctx, c.span = obs.StartSpan(ctx, "point")
	if c.span != nil {
		c.span.Set("benchmark", name).Set("key", k).Set("backend", c.backend)
	}
	lk := c.span.Child("cache.lookup")
	b, ok := s.cache.Get(k)
	lk.End()
	if !ok && s.store != nil {
		rd := c.span.Child("store.read")
		b, ok = s.store.Get(k)
		rd.End()
		if ok {
			// Read through: promote the durable record into the LRU so the
			// next hit skips the store index.
			s.cache.Put(k, b)
		}
	}
	if ok {
		s.done(&c, srcHit)
		return b, nil, nil
	}
	open := c // only the copy escapes: a hit's call stays on the stack
	return nil, &open, nil
}

// fly answers a point that lookup missed: singleflight, then a worker slot,
// then compute, which runs in the flight owner alone under the flight's
// child span named sim; the JSON encoding of the value it returns is what
// is cached. The point's span, opened by lookup, ends here.
func (s *Server) fly(c *pointCall, k, sim string, compute func(ctx context.Context) (any, error)) (body []byte, src pointSource, err error) {
	defer func() { s.done(c, src) }()
	// The flight span covers the whole wait; only the owner's closure
	// runs, so the sim/store.append children attach to exactly one
	// request's tree — the owner's.
	fl := c.span.Child("flight")
	val, err, shared := s.flights.Do(c.ctx, k, func(fctx context.Context) ([]byte, error) {
		select {
		case s.sem <- struct{}{}:
		case <-fctx.Done():
			return nil, context.Cause(fctx)
		}
		defer func() { <-s.sem }()
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)
		sp := fl.Child(sim)
		resp, err := compute(obs.NewContext(fctx, sp))
		sp.End()
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		// Write through: durable first (Put fsyncs, first write wins),
		// then the LRU. A store failure costs persistence, not the result.
		if s.store != nil {
			ap := fl.Child("store.append")
			perr := s.store.Put(k, b)
			ap.End()
			if perr != nil {
				s.met.storeErrors.Inc()
			}
		}
		s.cache.Put(k, b)
		return b, nil
	})
	// A true miss is the flight owner alone; everyone who joined its
	// flight coalesced. (Counted on errors too: the flight did run.)
	if shared {
		fl.Set("role", "join").End()
		return val, srcCoalesced, err
	}
	fl.Set("role", "own").End()
	return val, srcMiss, err
}

// point answers one (benchmark, canonical arch) coordinate through resolve
// under its Key k; a miss is simulated under a "simulate" span.
func (s *Server) point(ctx context.Context, endpoint string, bm bench.Benchmark, arch regconn.Arch, k string) ([]byte, pointSource, error) {
	return s.resolve(ctx, endpoint, bm.Name, k, arch, "simulate", s.simulate(bm, arch, k))
}

// simulate computes a (benchmark, canonical arch) point keyed k on the
// front-end memo's RunPoint, as the RunResponse whose encoding is cached,
// so the cached body names the point the way k hashes it.
func (s *Server) simulate(bm bench.Benchmark, arch regconn.Arch, k string) func(context.Context) (any, error) {
	return func(ctx context.Context) (any, error) {
		res, err := s.frontends.RunPoint(ctx, bm, arch)
		if err != nil {
			return nil, err
		}
		obs.FromContext(ctx).Set("cycles", res.Cycles).Set("instrs", res.Instrs)
		return RunResponse{Benchmark: bm.Name, Arch: arch, Key: k, Result: res}, nil
	}
}

// requestContext applies the per-request deadline: the server default,
// tightened by the request's own timeout when one is given.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if t := time.Duration(timeoutMS) * time.Millisecond; t > 0 && (d <= 0 || t < d) {
		d = t
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// statusFor maps a point or figure failure to an HTTP status: client
// deadline or disconnect, bad input, guest runtime fault, or ours.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, workload.ErrBadSpec), errors.Is(err, workload.ErrBadTrace),
		errors.Is(err, exp.ErrUnknownExperiment):
		return http.StatusBadRequest
	default:
		var re *machine.RuntimeError
		if errors.As(err, &re) {
			return http.StatusUnprocessableEntity
		}
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, status int, body errorBody) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// Request bounds. A sweep names at most maxSweepPoints points, as a cross
// product or an explicit list (perfbench's serve-warm grid has 180, and a
// sub-sweep forwarded between replicas spells out a slice of its parent's
// points). Bodies are capped so a full point cap of explicit points fits:
// maxPointBody is a generous bound on one SweepPoint's JSON.
const (
	maxSweepPoints = 4096
	maxPointBody   = 4 << 10
	maxSweepBody   = maxSweepPoints * maxPointBody
	maxRunBody     = maxPointBody
)

// decodeBody decodes a JSON request body of at most limit bytes into v.
// On failure it answers 413 for an oversized body and 400 for a malformed
// one, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	upload := http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(upload).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	rejectBody(w, upload, status, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
	return false
}

// rejectBody answers a refused upload (an http.MaxBytesReader) after
// reading the rest of it, up to its cap, so a client still uploading reads
// the reply: net/http discards at most 256 KiB of an unread body and
// otherwise closes the connection mid-upload. An upload that reaches its
// cap is read no further, and the reply closes the connection (the hook
// that tells net/http so is unexported, and statusWriter hides it).
func rejectBody(w http.ResponseWriter, upload io.Reader, status int, body errorBody) {
	var tooBig *http.MaxBytesError
	if _, err := io.Copy(io.Discard, upload); errors.As(err, &tooBig) {
		w.Header().Set("Connection", "close")
	}
	writeError(w, status, body)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !decodeBody(w, r, maxRunBody, &req) {
		return
	}
	// Validate before anything is generated or compiled: an arch Build
	// would refuse, or one that would crash or hang it, is a 400.
	if err := req.Arch.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Benchmark: req.Benchmark, Error: err.Error()})
		return
	}
	bm, err := resolveBenchmark(req.Benchmark, req.Workload)
	if err != nil {
		writeError(w, http.StatusBadRequest, errorBody{Benchmark: req.Benchmark, Error: err.Error()})
		return
	}
	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	arch := req.Arch.Canonical()
	k := Key(bm.Name, arch)
	body, src, err := s.point(ctx, "run", bm, arch, k)
	if err != nil {
		writeError(w, statusFor(err), errorBody{Benchmark: bm.Name, Key: k, Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.Write(body)
}

// ReplayResponse is the body of POST /v1/replay. Like RunResponse, exactly
// these marshaled bytes are cached under the trace's key, so warm replays
// are bit-identical to the cold one.
type ReplayResponse struct {
	Name  string          `json:"name"`
	Key   string          `json:"key"`
	Arch  json.RawMessage `json:"arch,omitempty"`
	Ret   int64           `json:"ret"`
	Stats machine.Stats   `json:"stats"`
}

// maxReplayBody bounds a replay request body: the trace format's own
// payload cap plus header slack.
const maxReplayBody = workload.MaxTracePayload + 4096

// handleReplay serves POST /v1/replay: the body is an rctrace file
// (rcrun -emit-trace / rcgen emit), replayed through the simulator
// without re-entering the IR pipeline. Malformed, corrupt, or truncated
// traces are a structured 400, sent once the rest of the body is read; a
// valid trace is keyed by its payload checksum and served through the
// same LRU/store/flight stack as any other point, so repeated replays of
// one trace are warm byte-identical hits.
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	upload := http.MaxBytesReader(w, r.Body, maxReplayBody)
	tr, key, err := workload.DecodeTrace(upload)
	if err != nil {
		rejectBody(w, upload, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	body, src, err := s.replayPoint(ctx, tr, key)
	if err != nil {
		writeError(w, statusFor(err), errorBody{Benchmark: tr.Name, Key: key, Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.Write(body)
}

// replayPoint answers a trace replay through resolve; a miss runs
// Trace.Replay under a "replay" span — the recorded configuration fed
// straight to the machine, verified against the trace's recorded oracle
// outcome and cycle counts.
func (s *Server) replayPoint(ctx context.Context, tr *workload.Trace, k string) ([]byte, pointSource, error) {
	// The recorded arch JSON is the canonical regconn.Arch encoding;
	// decoded here only to label metrics and spans.
	var arch regconn.Arch
	_ = json.Unmarshal(tr.Arch, &arch)
	return s.resolve(ctx, "replay", tr.Name, k, arch, "replay", func(ctx context.Context) (any, error) {
		res, err := tr.Replay(ctx)
		if err != nil {
			return nil, err
		}
		obs.FromContext(ctx).Set("cycles", res.Cycles).Set("instrs", res.Instrs)
		return ReplayResponse{Name: tr.Name, Key: k, Arch: tr.Arch, Ret: res.RetInt, Stats: res.Stats()}, nil
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, maxSweepBody, &req) {
		return
	}
	pts := req.Points
	n := len(pts)
	if n == 0 {
		n = (len(req.Benchmarks) + len(req.Workloads)) * len(req.Archs)
	}
	if n > maxSweepPoints {
		writeError(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("sweep has %d points, more than the cap of %d", n, maxSweepPoints)})
		return
	}
	if len(pts) == 0 {
		if n == 0 {
			writeError(w, http.StatusBadRequest, errorBody{Error: "sweep needs at least one benchmark or workload and one arch (or explicit points)"})
			return
		}
		pts = make([]SweepPoint, 0, n)
		for _, name := range req.Benchmarks {
			for _, arch := range req.Archs {
				pts = append(pts, SweepPoint{Benchmark: name, Arch: arch})
			}
		}
		for i := range req.Workloads {
			for _, arch := range req.Archs {
				pts = append(pts, SweepPoint{Workload: &req.Workloads[i], Arch: arch})
			}
		}
	}
	// Each distinct benchmark coordinate resolves once: a generated
	// workload is generated (program plus interpreter oracle) once per
	// sweep, not once per arch.
	type coord struct {
		name string
		spec workload.Spec
		gen  bool
	}
	resolved := map[coord]bench.Benchmark{}
	var keys sweepKeys
	jobs := make([]sweepJob, len(pts))
	for i, p := range pts {
		if err := p.Arch.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, errorBody{Benchmark: p.Benchmark, Error: err.Error()})
			return
		}
		c := coord{name: p.Benchmark}
		if p.Workload != nil {
			c.spec, c.gen = *p.Workload, true
		}
		bm, ok := resolved[c]
		if !ok {
			var err error
			if bm, err = resolveBenchmark(p.Benchmark, p.Workload); err != nil {
				writeError(w, http.StatusBadRequest, errorBody{Benchmark: p.Benchmark, Error: err.Error()})
				return
			}
			resolved[c] = bm
		}
		p.Arch = p.Arch.Canonical()
		jobs[i] = sweepJob{bm: bm, arch: p, key: keys.key(bm.Name, p.Arch)}
	}
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()

	// Resolve every point's owner up front: it labels the sweep-progress
	// table's per-peer breakdown and routes the fan-out below.
	sharded := s.ring != nil && !req.LocalOnly
	ownerOf := make([]string, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if sharded && !s.ring.local(j.key) {
			ownerOf[i] = s.ring.owner(j.key)
		} else {
			ownerOf[i] = ownerLocal
		}
		j.owner = ownerOf[i]
	}
	// Register in the live progress table (GET /v1/sweeps) under the
	// request ID: a forwarded sub-sweep carries its parent's ID, so one
	// distributed sweep shows up under one ID on every replica it touches.
	st := s.obs.sweeps.register(requestIDFrom(ctx), ownerOf)
	defer s.obs.sweeps.finish(st)

	// Fan the peer-owned points out to their owning replicas first, so
	// they compute while this replica looks up its own.
	var owners []string
	byOwner := map[string][]*sweepJob{}
	for i := range jobs {
		j := &jobs[i]
		if j.owner == ownerLocal {
			continue
		}
		j.ch = make(chan result, 1)
		if _, ok := byOwner[j.owner]; !ok {
			owners = append(owners, j.owner)
		}
		byOwner[j.owner] = append(byOwner[j.owner], j)
	}
	// The sweep completes only after every forward has read its peer's
	// stream to EOF: each owning replica has then finished — logged and
	// traced — its sub-sweep, and every peer.forward span has ended.
	var forwards sync.WaitGroup
	defer forwards.Wait()
	for _, o := range owners {
		forwards.Add(1)
		go func() {
			defer forwards.Done()
			s.forwardSweep(ctx, o, byOwner[o])
		}()
	}

	// Look the local points up in request order: a hit is answered here,
	// in the handler, and only a miss starts a goroutine, which enters the
	// flight stage (the worker-pool semaphore bounds real concurrency).
	// Every line streams back in request order as soon as it and the lines
	// before it are ready. Lines collect in a pooled buffer, and the
	// stream is flushed only before waiting for a line that is not ready:
	// a ready line never waits behind a later point's flight, and a warm
	// sweep goes out in a few large writes. Lookups, store reads included,
	// run one after another in the handler.
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	out := sweepWriters.Get().(*bufio.Writer)
	out.Reset(w)
	defer func() {
		out.Reset(nil)
		sweepWriters.Put(out)
	}()
	enc := json.NewEncoder(out)
	failed := 0
	write := func(j *sweepJob) {
		res := j.res
		j.res = result{} // once buffered, the bytes need not live on
		switch {
		case res.err != nil:
			s.met.sweepPointErrors.Inc()
			failed++
			enc.Encode(errorBody{Benchmark: j.bm.Name, Key: j.key, Error: res.err.Error()})
		default:
			if res.remoteErr {
				s.met.sweepPointErrors.Inc()
				failed++
			}
			out.Write(res.body)
			out.WriteByte('\n')
		}
		st.point(j.owner, res.err != nil || res.remoteErr)
	}
	next := 0 // jobs[:next] are written
	for i := range jobs {
		j := &jobs[i]
		if j.owner == ownerLocal {
			body, miss, err := s.lookup(ctx, "sweep", j.bm.Name, j.key, j.arch.Arch)
			if miss == nil {
				j.res = result{body: body, err: err}
			} else {
				j.ch = make(chan result, 1)
				go func() {
					body, _, err := s.fly(miss, j.key, "simulate", s.simulate(j.bm, j.arch.Arch, j.key))
					j.ch <- result{body: body, err: err}
				}()
			}
		}
		for ; next <= i && jobs[next].ready(); next++ {
			write(&jobs[next])
		}
	}
	for ; next < len(jobs); next++ {
		j := &jobs[next]
		if !j.ready() {
			out.Flush()
			if flusher != nil {
				flusher.Flush()
			}
			j.res = <-j.ch
		}
		write(j)
	}
	out.Flush()
	// The 200 header is committed before the last point's outcome is
	// known, so statusWriter cannot see a sweep where every point failed —
	// count it here.
	if failed > 0 && failed == len(jobs) {
		s.met.errors.With("sweep").Inc()
	}
}

// sweepWriters pools the buffers sweeps stream through: 32 KiB, or 25
// lines of a paper-suite sweep, per write to the connection. Writing each
// line straight to the response instead served 16% fewer serve-warm
// points/s (median of 10 alternating perfbench pairs on 2 vCPUs; every
// pair lost).
var sweepWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 32<<10) }}

// ownerLocal labels points this replica computes itself in the sweep
// progress table.
const ownerLocal = "local"

// result pairs one sweep point's outcome. remoteErr marks a line relayed
// from a peer that is an error body rather than a RunResponse.
type result struct {
	body      []byte
	err       error
	remoteErr bool
}

// handleFigures regenerates a figure on a Runner whose points resolve
// through point under the request's context, as /v1/run's do, each
// decoded back from its response bytes.
func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestContext(r, 0)
	defer cancel()
	runner := exp.NewRunner()
	runner.Workers = s.cfg.Workers
	runner.Point = func(_ context.Context, bm bench.Benchmark, arch regconn.Arch) (*exp.Result, error) {
		arch = arch.Canonical()
		body, _, err := s.point(ctx, "figures", bm, arch, Key(bm.Name, arch))
		if err != nil {
			return nil, err
		}
		var rr RunResponse
		err = json.Unmarshal(body, &rr)
		return rr.Result, err
	}
	tables, err := runner.Generate(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), errorBody{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(tables)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"status":"draining"}` + "\n"))
		return
	}
	w.Write([]byte(`{"status":"ok"}` + "\n"))
}

// wantsPrometheus selects the exposition format. ?format=prometheus (or
// ?format=json) always wins; otherwise the Accept header is parsed as
// real content negotiation — the Prometheus scraper sends
// "text/plain; version=0.0.4" — and Prometheus text is served only when
// the client's best q for a text exposition type beats its q for
// application/json. Anything unparseable, q=0, or a mere */* keeps the
// legacy JSON view, so existing JSON scrapers are never switched by an
// incidental Accept header.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	promQ, jsonQ := 0.0, 0.0
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, params, err := mime.ParseMediaType(strings.TrimSpace(part))
		if err != nil {
			continue
		}
		q := 1.0
		if qs, ok := params["q"]; ok {
			v, err := strconv.ParseFloat(qs, 64)
			if err != nil {
				continue
			}
			q = v
		}
		switch mt {
		case "text/plain", "application/openmetrics-text":
			promQ = max(promQ, q)
		case "application/json":
			jsonQ = max(jsonQ, q)
		}
	}
	return promQ > 0 && promQ > jsonQ
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.refresh()
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
		return
	}
	// Legacy view: the flat expvar JSON map, same shape as ever. The map
	// is never rebuilt — its entries are live views — so a scrape only
	// renders it.
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, s.met.legacy.String())
}
