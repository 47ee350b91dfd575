package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/exp"
	"regconn/internal/interp"
	"regconn/internal/obs"
	"regconn/internal/serve"
	"regconn/internal/store"
	"regconn/internal/workload"
)

// A workload is one named traffic mix. The four are chosen so that every
// layer the ROADMAP plans to optimize does most of its work in one of them
// and none in another (README.md has the layer-by-workload table).
type workloadDef struct {
	name string
	why  string
	// entry is the layer the op enters: the in-process runner ("exp") or
	// the daemon ("serve").
	entry string
	// setup builds the workload's inputs, starts its runner or daemon and
	// runs its warm-up ops; what it returns is ready for timed ops.
	setup func(ctx context.Context, e env, o opts) (*instance, error)
}

var workloads = []workloadDef{
	{"sweep-cold", "the paper's own sweep via the in-process exp.Runner: compile and simulate each take about half of every point", "exp", setupSweepCold},
	{"gen-cold", "rcserve sweeps of never-seen generated programs into a persistent store: generation, compile and fsynced appends dominate", "serve", setupGenCold},
	{"replay-cold", "rcserve replays of unseen traces: simulation without compilation, so compiler changes should not move its throughput, latency or alloc; its setup_s includes compiling the traces", "serve", setupReplayCold},
	{"serve-warm", "rcserve re-sweeps of a stored 180-point grid: the serve hit path (decode, key, LRU, store reads, NDJSON) is the whole cost", "serve", setupServeWarm},
}

// workloadByName finds a workload.
func workloadByName(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have: %v)", name, names)
}

// env is what every set-up of one run shares.
type env struct {
	seed    int64
	clients int    // closed-loop clients, one per CPU
	scratch string // directory for stores and trace output
}

// opts configures one set-up instance.
type opts struct {
	workers int  // daemon worker slots (serve.Config.Workers)
	trace   bool // daemon request tracing (serve.Config.Trace)
}

// client is one closed-loop client's reusable state.
type client struct {
	buf bytes.Buffer // last response body
}

// outcome is what one op delivered: its point count and, for the results
// digest, each point's key and simulated outcome.
type outcome struct {
	points  int
	results []keyResult
}

// opFunc runs op i of a pass and checks its output.
type opFunc func(ctx context.Context, c *client, i int) (outcome, error)

// instance is one set-up workload.
type instance struct {
	passLen int
	// pass starts pass p and returns its op function. Cold workloads give
	// every pass a fresh runner or daemon, so no pass reuses a result
	// computed by another.
	pass func(p int) (opFunc, error)
	// warm marks a workload whose every timed point must be a cache hit;
	// the others must miss on every point.
	warm bool
	// results, when set, is the digest input fixed in set-up (serve-warm
	// checks every op against its cold stream); otherwise the digest
	// covers the first pass's outcomes.
	results []keyResult
	// servers lists the daemons started so far (for the /metrics checks).
	servers func() []*server

	// traceOps is the traced run's op count (0 = one pass).
	traceOps int
	// layers pushes op i's inputs through the public calls of the layers
	// beneath the op, one span each (traced run only). c holds the op's
	// response.
	layers func(ctx context.Context, rec *recorder, parent *obs.Span, c *client, i int) error
	// queue marks a workload whose points take the daemon's flight path,
	// so the traced run reads serve.queue_ms from its span trees.
	queue bool

	close func()
}

// digest is the run's results digest: over the set-up's fixed results
// when the workload has them, else over the first pass's outcomes.
func (in *instance) digest(first map[string]keyResult) string {
	if in.results == nil {
		return digest(first)
	}
	fixed := map[string]keyResult{}
	for _, r := range in.results {
		fixed[r.key] = r
	}
	return digest(fixed)
}

// rid is the request ID of op i of pass p: the traced run finds the
// daemon's span tree of an op by it.
func rid(p, i int) string { return fmt.Sprintf("op-%d-%d", p, i) }

// ownStore is a result store the benchmark opens itself, so the traced
// run can time store calls outside the daemon.
type ownStore struct {
	dir string
	st  *store.Store
}

// openOwnStore opens an ownStore in a fresh directory under scratch.
func openOwnStore(scratch string) (*ownStore, error) {
	dir, err := os.MkdirTemp(scratch, "own-store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &ownStore{dir, st}, nil
}

// close closes and removes the store (a no-op on nil).
func (o *ownStore) close() {
	if o == nil {
		return
	}
	o.st.Close()
	os.RemoveAll(o.dir)
}

// backends are the five register schemes of every grid.
var backends = []string{"spill", "rc", "portreduce", "chain", "unlimited"}

// center is the grids' configuration at one issue rate and backend:
// 2-cycle loads, combined connects, 16 integer / 32 FP core registers.
func center(issue int, backend string) regconn.Arch {
	return regconn.Arch{Issue: issue, LoadLatency: 2, IntCore: 16, FPCore: 32, Backend: backend, CombineConnects: true}
}

// classArch is center under the paper's per-class convention (exp's
// archFor): an integer benchmark varies the integer core against a
// 64-entry FP file, an FP benchmark the FP core against 64 integers.
func classArch(bm bench.Benchmark, issue int, backend string) regconn.Arch {
	a := center(issue, backend)
	if bm.FP {
		a.IntCore = 64
	} else {
		a.FPCore = 64
	}
	return a
}

// benchOrder returns the twelve paper benchmarks in the seed's order.
func benchOrder(seed int64) []bench.Benchmark {
	all := bench.All()
	out := make([]bench.Benchmark, len(all))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(all)) {
		out[i] = all[j]
	}
	return out
}

// gridPoint is one benchmark × architecture coordinate.
type gridPoint struct {
	bm   bench.Benchmark
	arch regconn.Arch
	key  string
}

// paperGrid is sweep-cold's pass: benchmark-major in the seed's order,
// each benchmark's §5.3 baseline followed by issue {1,2,4,8} × the five
// backends — 21 architectures per benchmark, 252 points.
func paperGrid(seed int64) []gridPoint {
	var g []gridPoint
	add := func(bm bench.Benchmark, a regconn.Arch) {
		g = append(g, gridPoint{bm, a, serve.Key(bm.Name, a)})
	}
	for _, bm := range benchOrder(seed) {
		add(bm, regconn.Baseline())
		for _, issue := range []int{1, 2, 4, 8} {
			for _, be := range backends {
				add(bm, classArch(bm, issue, be))
			}
		}
	}
	return g
}

// splitmix is the SplitMix64 finalizer, used to spread a run seed.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// genProfiles are the profiles gen-cold cycles through: every registered
// profile but mispredict-heavy. Its programs run to 400-850 IR
// instructions, and one point of one costs 25-400 ms to compile against
// 7-40 ms for the other six profiles; a single such program holds both
// worker slots for seconds and moves a 10-second run's throughput by 20%,
// while gen-cold exists to measure small programs.
func genProfiles() []string {
	var out []string
	for _, p := range workload.ProfileNames() {
		if p != "mispredict-heavy" {
			out = append(out, p)
		}
	}
	return out
}

// genSpec returns the k-th generated workload of a run's timed ops:
// profiles cycling in registry order, seeds even and distinct by
// construction, so no seed repeats within a run and a different run seed
// gives different programs.
func genSpec(runSeed int64, k int) workload.Spec {
	profiles := genProfiles()
	s := int64(splitmix(uint64(runSeed))>>34)<<21 | int64(k)<<1
	return workload.Spec{Profile: profiles[k%len(profiles)], Seed: s}
}

// warmSpec returns the j-th warm-up workload: odd seeds, so no warm-up
// result can be carried into a timed op, and the same in every run, so
// set-up does the same work whatever the seed.
func warmSpec(j int) workload.Spec {
	profiles := genProfiles()
	return workload.Spec{Profile: profiles[j%len(profiles)], Seed: int64(2*j + 1)}
}

// ------------------------------------------------------------ sweep-cold

// setupSweepCold prepares the in-process sweep: the op is one
// Runner.RunContext point, and every pass starts a fresh Runner so each
// point is computed.
func setupSweepCold(ctx context.Context, e env, o opts) (*instance, error) {
	grid := paperGrid(e.seed)
	warm := exp.NewRunner()
	for j := 0; j < 2*e.clients; j++ {
		bm, err := warmSpec(j).Generate()
		if err != nil {
			return nil, err
		}
		if _, err := warm.RunContext(ctx, bm, center(4, "rc")); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	arena := regconn.NewArena()
	return &instance{
		passLen: len(grid),
		pass: func(int) (opFunc, error) {
			r := exp.NewRunner()
			return func(ctx context.Context, _ *client, i int) (outcome, error) {
				pt := grid[i]
				res, err := r.RunContext(ctx, pt.bm, pt.arch)
				if err != nil {
					return outcome{}, err
				}
				if res.Cycles <= 0 || res.Instrs <= 0 {
					return outcome{}, fmt.Errorf("%s: empty result", pt.bm.Name)
				}
				return outcome{1, []keyResult{{pt.key, res.Cycles, res.Instrs}}}, nil
			}, nil
		},
		servers: func() []*server { return nil },
		layers: func(ctx context.Context, rec *recorder, parent *obs.Span, _ *client, i int) error {
			return compileAndVerify(ctx, rec, parent, arena, grid[i].bm, grid[i].arch)
		},
		close: func() {},
	}, nil
}

// compileAndVerify is the compile-and-simulate decomposition of one point:
// regconn.Build (with its allocation), the oracle-checked simulation on a
// warm arena, and one stand-alone interpreter profiling pass over the
// compiled IR (Build runs two such passes, one for a ScalarOnly build).
func compileAndVerify(ctx context.Context, rec *recorder, parent *obs.Span, arena *regconn.Arena, bm bench.Benchmark, a regconn.Arch) error {
	a.Verify = true
	var ex *regconn.Executable
	if err := rec.call(parent, "regconn.build", true, func() (err error) {
		ex, err = regconn.Build(bm.Build(), a)
		return err
	}); err != nil {
		return err
	}
	var instrs int64
	if err := rec.call(parent, "machine.verify", false, func() error {
		res, err := arena.VerifyContext(ctx, ex)
		if err == nil {
			instrs = res.Instrs
		}
		return err
	}); err != nil {
		return err
	}
	rec.count("machine.verify", instrs)
	passes := int64(2)
	if a.ScalarOnly {
		passes = 1
	}
	rec.count("interp.profile", passes)
	return rec.call(parent, "interp.profile", false, func() error {
		interp.ClearProfile(ex.MProg.IR)
		_, err := interp.Run(ex.MProg.IR, "main", nil, interp.Options{Profile: true})
		return err
	})
}

// -------------------------------------------------------------- gen-cold

// genPass is gen-cold's pass length: each of its six profiles twice.
const genPass = 12

// runLine is the part of one /v1/sweep NDJSON line the checks read; an
// error line carries only Error.
type runLine struct {
	Benchmark string `json:"benchmark"`
	Key       string `json:"key"`
	Error     string `json:"error"`
	Result    *struct {
		Cycles, Instrs int64
	} `json:"result"`
}

// checkSweep checks a sweep stream against the points requested: one line
// per point, in request order, none an error, each under its own key.
func checkSweep(body []byte, want []gridPoint) ([]keyResult, error) {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(want) {
		return nil, fmt.Errorf("sweep: %d lines for %d points", len(lines), len(want))
	}
	out := make([]keyResult, len(lines))
	for i, ln := range lines {
		var l runLine
		if err := json.Unmarshal(ln, &l); err != nil {
			return nil, fmt.Errorf("sweep line %d: %w", i, err)
		}
		switch {
		case l.Error != "":
			return nil, fmt.Errorf("sweep line %d: %s", i, l.Error)
		case l.Benchmark != want[i].bm.Name || l.Key != want[i].key:
			return nil, fmt.Errorf("sweep line %d: %s %s, want %s %s", i, l.Benchmark, l.Key, want[i].bm.Name, want[i].key)
		case l.Result == nil || l.Result.Cycles <= 0:
			return nil, fmt.Errorf("sweep line %d: no result", i)
		}
		out[i] = keyResult{l.Key, l.Result.Cycles, l.Result.Instrs}
	}
	return out, nil
}

// genArchs are gen-cold's five points per program: every backend at
// 4-issue 16/32.
func genArchs() []regconn.Arch {
	out := make([]regconn.Arch, len(backends))
	for i, be := range backends {
		out[i] = center(4, be)
	}
	return out
}

// setupGenCold starts a daemon on a persistent store in an empty
// directory; the op is one /v1/sweep of a never-seen generated program
// under the five backends, so all five points miss and are appended.
func setupGenCold(ctx context.Context, e env, o opts) (*instance, error) {
	dir, err := os.MkdirTemp(e.scratch, "gen-cold-store-")
	if err != nil {
		return nil, err
	}
	s, err := startServer(serve.Config{StoreDir: dir, Workers: o.workers, Trace: o.trace}, e.clients)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	archs := genArchs()
	// sweep runs the op for one generated workload.
	sweep := func(ctx context.Context, c *client, rid string, spec workload.Spec) (outcome, error) {
		body, err := json.Marshal(serve.SweepRequest{Workloads: []workload.Spec{spec}, Archs: archs})
		if err != nil {
			return outcome{}, err
		}
		if _, err := s.post(ctx, "/v1/sweep", rid, body, &c.buf); err != nil {
			return outcome{}, err
		}
		want := make([]gridPoint, len(archs))
		for i, a := range archs {
			want[i] = gridPoint{bench.Benchmark{Name: spec.Name()}, a, serve.Key(spec.Name(), a)}
		}
		res, err := checkSweep(c.buf.Bytes(), want)
		return outcome{len(res), res}, err
	}
	var c client
	for j := 0; j < 2*e.clients; j++ {
		if _, err := sweep(ctx, &c, fmt.Sprintf("warmup-%d", j), warmSpec(j)); err != nil {
			s.close()
			os.RemoveAll(dir)
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var own *ownStore
	if o.trace {
		if own, err = openOwnStore(e.scratch); err != nil {
			s.close()
			os.RemoveAll(dir)
			return nil, err
		}
	}
	arena := regconn.NewArena()
	return &instance{
		passLen: genPass,
		pass: func(p int) (opFunc, error) {
			return func(ctx context.Context, c *client, i int) (outcome, error) {
				return sweep(ctx, c, rid(p, i), genSpec(e.seed, p*genPass+i))
			}, nil
		},
		servers: func() []*server { return []*server{s} },
		// Three passes' worth of programs: one pass's twelve are too few
		// for steady per-layer means. Op i of pass 0 is the i-th program
		// of the sequence for any i, so this stays within pass 0.
		traceOps: 3 * genPass,
		queue:    true,
		layers: func(ctx context.Context, rec *recorder, parent *obs.Span, c *client, i int) error {
			spec := genSpec(e.seed, i)
			lines := bytes.Split(bytes.TrimSuffix(c.buf.Bytes(), []byte("\n")), []byte("\n"))
			for k, a := range archs {
				var bm bench.Benchmark
				if err := rec.call(parent, "workload.generate", false, func() (err error) {
					bm, err = spec.Generate()
					return err
				}); err != nil {
					return err
				}
				var key string
				rec.call(parent, "serve.key", false, func() error {
					key = serve.Key(bm.Name, a)
					return nil
				})
				if err := compileAndVerify(ctx, rec, parent, arena, bm, a); err != nil {
					return err
				}
				if err := rec.call(parent, "store.put", false, func() error {
					return own.st.Put(key, lines[k])
				}); err != nil {
					return err
				}
			}
			return nil
		},
		close: func() {
			s.close()
			own.close()
			os.RemoveAll(dir)
		},
	}, nil
}

// ----------------------------------------------------------- replay-cold

// emitted is one trace emitted in set-up, with its recorded outcome.
type emitted struct {
	name           string
	key            string
	body           []byte
	expect         int64
	cycles, instrs int64
}

// emitTraces compiles every point, records it with Executable.Trace and
// encodes it, on workers goroutines.
func emitTraces(pts []gridPoint, workers int) ([]emitted, error) {
	out := make([]emitted, len(pts))
	errs := make([]error, len(pts))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = emitTrace(pts[i])
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, errors.Join(errs...)
}

// emitTrace records and encodes one point's trace.
func emitTrace(pt gridPoint) (emitted, error) {
	a := pt.arch
	a.Verify = true
	ex, err := regconn.Build(pt.bm.Build(), a)
	if err != nil {
		return emitted{}, fmt.Errorf("%s: %w", pt.bm.Name, err)
	}
	tr, err := ex.Trace(pt.bm.Name)
	if err != nil {
		return emitted{}, err
	}
	var b bytes.Buffer
	key, err := tr.Encode(&b)
	if err != nil {
		return emitted{}, err
	}
	return emitted{tr.Name, key, b.Bytes(), tr.Expect, tr.Cycles, tr.Instrs}, nil
}

// replayLine is the part of a /v1/replay response the checks read.
type replayLine struct {
	Name  string `json:"name"`
	Key   string `json:"key"`
	Ret   int64  `json:"ret"`
	Stats struct {
		Cycles int64 `json:"cycles"`
		Instrs int64 `json:"instrs"`
	} `json:"stats"`
}

// replay posts one trace and checks it was simulated (X-Cache: MISS) to
// exactly the recorded outcome.
func replay(ctx context.Context, s *server, c *client, rid string, t emitted) (outcome, error) {
	resp, err := s.post(ctx, "/v1/replay", rid, t.body, &c.buf)
	if err != nil {
		return outcome{}, err
	}
	if xc := resp.Header.Get("X-Cache"); xc != "MISS" {
		return outcome{}, fmt.Errorf("replay %s: X-Cache %q, want MISS", t.name, xc)
	}
	var r replayLine
	if err := json.Unmarshal(c.buf.Bytes(), &r); err != nil {
		return outcome{}, fmt.Errorf("replay %s: %w", t.name, err)
	}
	if r.Key != t.key || r.Ret != t.expect || r.Stats.Cycles != t.cycles || r.Stats.Instrs != t.instrs {
		return outcome{}, fmt.Errorf("replay %s: key %s ret %d cycles %d instrs %d, recorded %s %d %d %d",
			t.name, r.Key, r.Ret, r.Stats.Cycles, r.Stats.Instrs, t.key, t.expect, t.cycles, t.instrs)
	}
	return outcome{1, []keyResult{{t.key, r.Stats.Cycles, r.Stats.Instrs}}}, nil
}

// setupReplayCold emits the 240 traces (12 benchmarks × 5 backends ×
// issue {1,2,4,8}) in the seed's order; the op is one /v1/replay of a
// trace the pass's fresh memory-only daemon has not seen.
func setupReplayCold(ctx context.Context, e env, o opts) (*instance, error) {
	var pts []gridPoint
	for _, bm := range bench.All() {
		for _, issue := range []int{1, 2, 4, 8} {
			for _, be := range backends {
				pts = append(pts, gridPoint{bm: bm, arch: classArch(bm, issue, be)})
			}
		}
	}
	for j := 0; j < 2*e.clients; j++ {
		bm, err := warmSpec(j).Generate()
		if err != nil {
			return nil, err
		}
		pts = append(pts, gridPoint{bm: bm, arch: center(4, "rc")})
	}
	all, err := emitTraces(pts, e.clients)
	if err != nil {
		return nil, fmt.Errorf("emitting traces: %w", err)
	}
	traces, warmups := all[:len(all)-2*e.clients], all[len(all)-2*e.clients:]
	order := rand.New(rand.NewSource(e.seed)).Perm(len(traces))

	cfg := serve.Config{Workers: o.workers, Trace: o.trace}
	ws, err := startServer(cfg, e.clients)
	if err != nil {
		return nil, err
	}
	var c client
	for j, t := range warmups {
		if _, err := replay(ctx, ws, &c, fmt.Sprintf("warmup-%d", j), t); err != nil {
			ws.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	ws.close()

	var mu sync.Mutex
	var servers []*server
	return &instance{
		passLen: len(traces),
		pass: func(p int) (opFunc, error) {
			s, err := startServer(cfg, e.clients)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			servers = append(servers, s)
			mu.Unlock()
			return func(ctx context.Context, c *client, i int) (outcome, error) {
				return replay(ctx, s, c, rid(p, i), traces[order[i]])
			}, nil
		},
		servers: func() []*server {
			mu.Lock()
			defer mu.Unlock()
			return append([]*server(nil), servers...)
		},
		queue: true,
		layers: func(ctx context.Context, rec *recorder, parent *obs.Span, _ *client, i int) error {
			var tr *workload.Trace
			if err := rec.call(parent, "workload.decode", false, func() (err error) {
				tr, _, err = workload.DecodeTrace(bytes.NewReader(traces[order[i]].body))
				return err
			}); err != nil {
				return err
			}
			return rec.call(parent, "machine.replay", true, func() error {
				_, err := tr.Replay(ctx)
				return err
			})
		},
		close: func() {
			mu.Lock()
			defer mu.Unlock()
			for _, s := range servers {
				s.close()
			}
		},
	}, nil
}

// ------------------------------------------------------------ serve-warm

// keySink keeps the compiler from dropping a timed serve.Key call.
var keySink string

// warmCache is serve-warm's LRU size: half the grid. The LRU is strict
// and read-through, so a lone sweep scanning the 180 keys finds none of
// them left in it and is answered wholly from the store; a sweep gets LRU
// hits only while it trails another client's sweep by fewer than 90
// points. The split therefore follows the clients' relative phase, and a
// timed run prints the counts it measured.
const warmCache = 90

// sweepGrid is the cross product benchmarks × issues × the five backends,
// benchmark-major like the daemon streams it, with the request body.
func sweepGrid(bms []bench.Benchmark, issues []int) ([]gridPoint, []byte, error) {
	var archs []regconn.Arch
	for _, issue := range issues {
		for _, be := range backends {
			archs = append(archs, center(issue, be))
		}
	}
	var names []string
	var pts []gridPoint
	for _, bm := range bms {
		names = append(names, bm.Name)
		for _, a := range archs {
			pts = append(pts, gridPoint{bm, a, serve.Key(bm.Name, a)})
		}
	}
	body, err := json.Marshal(serve.SweepRequest{Benchmarks: names, Archs: archs})
	return pts, body, err
}

// setupServeWarm fills a stored 180-point grid (12 benchmarks × issue
// {2,4,8} × 5 backends) with one cold sweep whose stream it keeps; the op
// is a sweep of the whole grid, answered from the LRU or the store and
// checked byte for byte against that cold stream. Warm-up ops sweep a
// separate issue-1 grid.
func setupServeWarm(ctx context.Context, e env, o opts) (*instance, error) {
	dir, err := os.MkdirTemp(e.scratch, "serve-warm-store-")
	if err != nil {
		return nil, err
	}
	s, err := startServer(serve.Config{StoreDir: dir, CacheSize: warmCache, Workers: o.workers, Trace: o.trace}, e.clients)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	fail := func(err error) (*instance, error) {
		s.close()
		os.RemoveAll(dir)
		return nil, err
	}
	bms := benchOrder(e.seed)
	grid, body, err := sweepGrid(bms, []int{2, 4, 8})
	if err != nil {
		return fail(err)
	}
	warmGrid, warmBody, err := sweepGrid(bms, []int{1})
	if err != nil {
		return fail(err)
	}
	var c client
	if _, err := s.post(ctx, "/v1/sweep", "cold", body, &c.buf); err != nil {
		return fail(err)
	}
	cold := append([]byte(nil), c.buf.Bytes()...)
	results, err := checkSweep(cold, grid)
	if err != nil {
		return fail(fmt.Errorf("cold sweep: %w", err))
	}
	for j := 0; j < 2*e.clients; j++ {
		if _, err := s.post(ctx, "/v1/sweep", fmt.Sprintf("warmup-%d", j), warmBody, &c.buf); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
		if _, err := checkSweep(c.buf.Bytes(), warmGrid); err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
	}
	var own *ownStore
	if o.trace {
		if own, err = openOwnStore(e.scratch); err != nil {
			return fail(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(cold, []byte("\n")), []byte("\n"))
		for i, pt := range grid {
			if err := own.st.Put(pt.key, lines[i]); err != nil {
				own.close()
				return fail(err)
			}
		}
	}
	return &instance{
		passLen: 1,
		pass: func(p int) (opFunc, error) {
			return func(ctx context.Context, c *client, i int) (outcome, error) {
				if _, err := s.post(ctx, "/v1/sweep", rid(p, i), body, &c.buf); err != nil {
					return outcome{}, err
				}
				if !bytes.Equal(c.buf.Bytes(), cold) {
					return outcome{}, errors.New("warm sweep differs from the cold stream")
				}
				return outcome{points: len(grid)}, nil
			}, nil
		},
		warm:     true,
		results:  results,
		servers:  func() []*server { return []*server{s} },
		traceOps: 50,
		layers: func(ctx context.Context, rec *recorder, parent *obs.Span, _ *client, _ int) error {
			for _, pt := range grid {
				rec.call(parent, "serve.key", false, func() error {
					keySink = serve.Key(pt.bm.Name, pt.arch)
					return nil
				})
				if err := rec.call(parent, "store.get", false, func() error {
					if _, ok := own.st.Get(pt.key); !ok {
						return fmt.Errorf("store.get %s: missing", pt.key)
					}
					return nil
				}); err != nil {
					return err
				}
			}
			return nil
		},
		close: func() {
			s.close()
			own.close()
			os.RemoveAll(dir)
		},
	}, nil
}
