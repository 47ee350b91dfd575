package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// dispenser hands out the fixed op sequence to closed-loop clients: op k
// is op k%passLen of pass k/passLen. Once the deadline has passed it
// finishes the pass in progress and stops, so a timed phase always covers
// whole passes and every run measures the same mix of ops.
type dispenser struct {
	in       *instance
	deadline time.Time

	mu   sync.Mutex
	next int      // next op index
	end  int      // -1 until the deadline passes; then the index to stop at
	ops  []opFunc // one per started pass
}

// take returns op k of the sequence, or ok=false when the phase is over.
func (d *dispenser) take() (k int, op opFunc, ok bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.in.passLen
	if d.end < 0 && !time.Now().Before(d.deadline) {
		d.end = max(n, (d.next+n-1)/n*n)
	}
	if d.end >= 0 && d.next >= d.end {
		return 0, nil, false, nil
	}
	k = d.next
	d.next++
	if p := k / n; p == len(d.ops) {
		op, err := d.in.pass(p)
		if err != nil {
			d.end = d.next // a pass that cannot start ends the phase
			return k, nil, true, fmt.Errorf("starting pass %d: %w", p, err)
		}
		d.ops = append(d.ops, op)
	}
	return k, d.ops[k/n], true, nil
}

// phase is what the timed phase measured.
type phase struct {
	attempted, failed int
	points, passes    int
	lat               []time.Duration // per op
	wall              time.Duration
	alloc             uint64 // heap bytes allocated (MemStats.TotalAlloc delta)
	first             map[string]keyResult
	errs              []string // the first few failures
}

// fail records one failed op.
func (ph *phase) fail(err error) {
	ph.failed++
	if len(ph.errs) < 5 {
		ph.errs = append(ph.errs, err.Error())
	}
}

// timedPhase drives the instance closed-loop with clients clients — each
// sends its next op only when its previous one has completed — for at
// least d and whole passes. Every op's output is checked by the op; a
// failed check counts against the phase. A key answered differently in
// two passes is also a failure: the simulator is deterministic.
func timedPhase(ctx context.Context, in *instance, clients int, d time.Duration) *phase {
	ph := &phase{first: map[string]keyResult{}}
	seen := map[string]keyResult{}
	var mu sync.Mutex
	record := func(k int, out outcome, lat time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		ph.attempted++
		if err != nil {
			ph.fail(err)
			return
		}
		ph.lat = append(ph.lat, lat)
		ph.points += out.points
		for _, r := range out.results {
			if prev, ok := seen[r.key]; ok && prev != r {
				ph.fail(fmt.Errorf("key %s: %d cycles / %d instrs, earlier %d / %d", r.key, r.cycles, r.instrs, prev.cycles, prev.instrs))
			}
			seen[r.key] = r
			if k < in.passLen {
				ph.first[r.key] = r
			}
		}
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	disp := &dispenser{in: in, deadline: start.Add(d), end: -1}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cl client
			for {
				k, op, ok, err := disp.take()
				if !ok {
					return
				}
				if err != nil {
					record(k, outcome{}, 0, err)
					continue
				}
				t0 := time.Now()
				out, err := op(ctx, &cl, k%in.passLen)
				record(k, out, time.Since(t0), err)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc
	ph.passes = len(disp.ops)
	return ph
}

// checkCounters checks the daemons' /metrics deltas over the phase: no
// errors, and every point a miss (cold workloads) or a hit (serve-warm,
// whose cache_misses must stay flat).
func checkCounters(c counters, warm bool, points int) error {
	p := float64(points)
	switch {
	case c.errors != 0:
		return fmt.Errorf("daemon counted %v errors", c.errors)
	case warm && (c.misses != 0 || c.hits != p):
		return fmt.Errorf("warm phase: cache_misses moved by %v, cache_hits by %v for %d points", c.misses, c.hits, points)
	case !warm && (c.misses != p || c.hits != 0 || c.coalesced != 0):
		return fmt.Errorf("cold phase: %v misses, %v hits, %v coalesced for %d points", c.misses, c.hits, c.coalesced, points)
	}
	return nil
}

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRuns is the least number of set-ups in a timed run, and
// minSetupTime how long it keeps repeating a cheap set-up, so that
// setup_s is the median of enough samples to be steady.
const (
	setupRuns    = 3
	minSetupTime = time.Second
)

// timedRun sets the workload up at least setups times and until the
// set-ups have taken minSetupTime (setup_s is their median), runs the
// timed phase on the last set-up and reports the end-to-end metrics.
func timedRun(ctx context.Context, w workloadDef, e env, setups int, d time.Duration) (*report, error) {
	var setupS []float64
	var in *instance
	begin := time.Now()
	for k := 0; k < setups || time.Since(begin) < minSetupTime; k++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(ctx, e, opts{workers: e.clients}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer in.close()
	if err := snapshot(ctx, in.servers()); err != nil {
		return nil, err
	}

	ph := timedPhase(ctx, in, e.clients, d)

	rep := &report{workload: w.name, seed: e.seed, attempted: ph.attempted}
	if servers := in.servers(); len(servers) > 0 {
		c, err := sumCounters(ctx, servers)
		if err == nil {
			err = checkCounters(c, in.warm, ph.points)
		}
		if err != nil {
			ph.fail(err)
		}
		// serve-warm's LRU/store split depends on how far apart the
		// clients' sweeps run, so each run states the mix it measured.
		rep.notes = append(rep.notes, fmt.Sprintf("daemon counters: %.0f cache hits (%.0f from the store, %.1f%%), %.0f misses, %.0f coalesced, %.0f errors",
			c.hits, c.storeHits, 100*ratio(c.storeHits, c.hits), c.misses, c.coalesced, c.errors))
	}
	rep.failed = min(ph.failed, ph.attempted)
	rep.errs = ph.errs
	rep.digest = in.digest(ph.first)

	lat := sortedCopy(ph.lat)
	n := len(lat)
	points := max(ph.points, 1)
	rep.notes = append(rep.notes,
		fmt.Sprintf("set-up: %d runs, %s s", len(setupS), fmtList(setupS)),
		fmt.Sprintf("ops: attempted %d, succeeded %d, failed %d; %d points in %d passes over %.3f s (%d clients, closed loop)",
			rep.attempted, rep.attempted-rep.failed, rep.failed, ph.points, ph.passes, ph.wall.Seconds(), e.clients))
	if p, ok := tailRule(n); ok {
		rep.notes = append(rep.notes, fmt.Sprintf("op latency tail: p%g = %.3f ms (n=%d, %d beyond)", p, ms(percentile(lat, p)), n, beyond(p, n)))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("op latency tail: n=%d supports no percentile with %d samples beyond; op_p90_ms has %d", n, minBeyond, max(beyond(90, n), 0)))
	}
	rep.metrics = []metric{
		{"setup_s", "s", "lower", median(setupS), fmt.Sprintf("median of %d", len(setupS))},
		{"points_per_s", "points/s", "higher", float64(ph.points) / ph.wall.Seconds(), "verified points / timed wall time"},
		{"op_p50_ms", "ms", "lower", ms(percentile(lat, 50)), fmt.Sprintf("n=%d", n)},
		{"op_p90_ms", "ms", "lower", ms(percentile(lat, 90)), fmt.Sprintf("n=%d, %d beyond", n, max(beyond(90, n), 0))},
		{"alloc_mib_per_point", "MiB/point", "lower", float64(ph.alloc) / float64(points) / (1 << 20), ""},
		{"peak_rss_mib", "MiB", "lower", peakRSSMiB(), ""},
	}
	return rep, nil
}
