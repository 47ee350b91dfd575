package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"regconn/internal/obs"
)

// checkTol is the slack obs.Trace.Check allows. The benchmark's spans are
// strictly sequential, so only clock-read gaps need it.
const checkTol = time.Millisecond

// recorder opens the traced run's layer spans and keeps the counts spans
// cannot carry: heap bytes allocated, simulated instructions, and how
// many profiling passes a Build runs.
type recorder struct {
	alloc  map[string]uint64
	counts map[string]int64
}

func newRecorder() *recorder {
	return &recorder{alloc: map[string]uint64{}, counts: map[string]int64{}}
}

// call runs f as one call of layer name, in a child span of parent; with
// alloc it also adds the heap bytes f allocated to the layer's total.
func (r *recorder) call(parent *obs.Span, name string, alloc bool, f func() error) error {
	var m0, m1 runtime.MemStats
	if alloc {
		runtime.ReadMemStats(&m0)
	}
	sp := parent.Child(name)
	err := f()
	sp.End()
	if alloc {
		runtime.ReadMemStats(&m1)
		r.alloc[name] += m1.TotalAlloc - m0.TotalAlloc
	}
	return err
}

// count adds n to a layer's count.
func (r *recorder) count(name string, n int64) { r.counts[name] += n }

// nested names layers measured stand-alone that run inside another
// layer's call: interp.profile is a share of regconn.build, so it is not
// subtracted from the op a second time.
var nested = map[string]string{"interp.profile": "regconn.build"}

// spanTotals sums one finished op trace: the op span's duration and, per
// layer, the calls and total duration of the layers span's children.
type spanTotals struct {
	ops     int
	op      time.Duration
	calls   map[string]int
	layer   map[string]time.Duration
	ordered []string // layer names in first-seen order
}

func (t *spanTotals) add(tr *obs.Trace) {
	spans := tr.Spans()
	layersIdx := -1
	for i, s := range spans {
		switch {
		case s.Name == "op" && s.Parent >= 0:
			t.ops++
			t.op += s.End - s.Start
		case s.Name == "layers":
			layersIdx = i
		case s.Parent >= 0 && s.Parent == layersIdx:
			if _, ok := t.calls[s.Name]; !ok {
				t.ordered = append(t.ordered, s.Name)
			}
			t.calls[s.Name]++
			t.layer[s.Name] += s.End - s.Start
		}
	}
}

// mean returns a layer's mean call time.
func (t *spanTotals) mean(name string) time.Duration {
	if t.calls[name] == 0 {
		return 0
	}
	return t.layer[name] / time.Duration(t.calls[name])
}

// remainder is the op time no layer call accounts for: the entry layer's
// own time (negative if the stand-alone calls cost more than the op).
func (t *spanTotals) remainder() time.Duration {
	d := t.op
	for name, v := range t.layer {
		if _, ok := nested[name]; !ok {
			d -= v
		}
	}
	return d
}

// tracedRun is the separate traced run: on one CPU, with one client and
// one daemon worker, so each op's time is the sum of its layers' calls
// plus the entry layer's own time, it repeats the workload's op sequence
// on an untraced and a traced instance, then pushes each op's inputs
// through the layers' public calls, one obs span each. Every op trace
// must pass obs.Trace.Check; they are written as one Chrome trace-event
// file. maxOps > 0 caps the op count.
func tracedRun(ctx context.Context, w workloadDef, e env, maxOps int) (*report, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	e.clients = 1
	u, err := w.setup(ctx, e, opts{workers: 1})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer u.close()
	t, err := w.setup(ctx, e, opts{workers: 1, trace: true})
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer t.close()
	uop, err := u.pass(0)
	if err != nil {
		return nil, err
	}
	top, err := t.pass(0)
	if err != nil {
		return nil, err
	}
	n := t.traceOps
	if n == 0 {
		n = t.passLen
	}
	if maxOps > 0 {
		n = min(n, maxOps)
	}
	servers := t.servers()
	if err := snapshot(ctx, servers); err != nil {
		return nil, err
	}

	rep := &report{workload: w.name, seed: e.seed, trace: true}
	ph := &phase{first: map[string]keyResult{}}
	rec := newRecorder()
	tot := &spanTotals{calls: map[string]int{}, layer: map[string]time.Duration{}}
	var traces []*obs.Trace
	var untraced time.Duration
	var points, flights int
	var waitUS int64
	var uc, tc client
	for i := 0; i < n; i++ {
		ph.attempted++
		var du time.Duration
		untracedOp := func() error {
			t0 := time.Now()
			_, err := uop(ctx, &uc, i)
			du = time.Since(t0)
			return err
		}
		// Alternate which instance runs the op first, so neither one
		// always finds the other's inputs warm in the CPU caches.
		if i%2 == 0 {
			if err := untracedOp(); err != nil {
				ph.fail(err)
				continue
			}
		}

		tr := obs.NewTrace(rid(0, i))
		root := tr.Root(w.name)
		opSpan := root.Child("op")
		out, err := top(obs.NewContext(ctx, opSpan), &tc, i)
		opSpan.Set("points", out.points).End()
		if err == nil {
			layers := root.Child("layers")
			err = t.layers(ctx, rec, layers, &tc, i)
			layers.End()
		}
		root.End()
		tr.Finish()
		if err == nil {
			err = tr.Check(checkTol)
		}
		if err == nil && t.queue {
			var f *obs.TraceFile
			if f, err = servers[len(servers)-1].requestTrace(ctx, rid(0, i)); err == nil {
				wt, fl := queueTime(f)
				waitUS += wt
				flights += fl
			}
		}
		if err == nil && i%2 == 1 {
			err = untracedOp()
		}
		if err != nil {
			ph.fail(err)
			continue
		}
		for _, r := range out.results {
			ph.first[r.key] = r
		}
		traces = append(traces, tr)
		tot.add(tr)
		untraced += du
		points += out.points
	}
	c, err := sumCounters(ctx, servers)
	if err == nil && len(servers) > 0 {
		err = checkCounters(c, t.warm, points)
	}
	if err != nil {
		ph.fail(err)
	}
	rep.attempted, rep.failed, rep.errs = ph.attempted, min(ph.failed, ph.attempted), ph.errs
	rep.digest = t.digest(ph.first)

	path := filepath.Join(e.scratch, fmt.Sprintf("perfbench-%s-seed%d.trace.json", w.name, e.seed))
	if err := writeTraces(path, traces); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, fmt.Sprintf("traced run: %d ops, %d points (one client, GOMAXPROCS 1, one daemon worker); %d op traces passed obs.Trace.Check, written to %s",
		ph.attempted, points, len(traces), path))
	rep.notes = append(rep.notes, layerTable(w, tot, rec)...)
	rep.notes = append(rep.notes,
		fmt.Sprintf("tracing overhead: traced ops %.3f s vs the same ops untraced %.3f s (%+.1f%%)",
			tot.op.Seconds(), untraced.Seconds(), 100*(ratio(tot.op.Seconds(), untraced.Seconds())-1)),
		fmt.Sprintf("daemon counters: %v hits, %v misses, %v coalesced, %v store hits, %v errors; %d flights waited %.3f ms in all",
			c.hits, c.misses, c.coalesced, c.storeHits, c.errors, flights, float64(waitUS)/1000))
	rep.metrics = layerMetrics(w, tot, rec, c, points, waitUS, flights, untraced)
	return rep, nil
}

// writeTraces writes the op traces as one Chrome trace-event document.
func writeTraces(path string, traces []*obs.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraces(f, traces...); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerTable renders the per-layer self-time table: each layer's calls,
// time per call and per op, and share of the op, then the remainder the
// calls do not account for — the entry layer's own time.
func layerTable(w workloadDef, t *spanTotals, rec *recorder) []string {
	ops := max(t.ops, 1)
	perOp := func(d time.Duration) float64 { return ms(d) / float64(ops) }
	share := func(d time.Duration) float64 { return 100 * ratio(float64(d), float64(t.op)) }
	out := []string{
		fmt.Sprintf("%-28s %7s %10s %10s %7s", "layer", "calls", "ms/call", "ms/op", "share"),
		fmt.Sprintf("%-28s %7d %10.3f %10.3f %6.1f%%", "op ("+w.entry+" entry)", t.ops, perOp(t.op), perOp(t.op), 100.0),
	}
	row := func(label, name string, d time.Duration, note string) {
		out = append(out, fmt.Sprintf("%-28s %7d %10.3f %10.3f %6.1f%%%s",
			label, t.calls[name], ms(t.mean(name)), perOp(d), share(d), note))
	}
	for _, name := range t.ordered {
		if _, ok := nested[name]; ok {
			continue
		}
		row("  "+name, name, t.layer[name], "")
		for _, child := range t.ordered {
			if nested[child] != name {
				continue
			}
			// A stand-alone call measured once per point stands for the
			// passes its parent runs.
			passes := ratio(float64(rec.counts[child]), float64(t.calls[child]))
			row("    "+child, child, time.Duration(float64(t.layer[child])*passes),
				fmt.Sprintf(" ×%.2f inside %s (estimated)", passes, name))
		}
	}
	r := t.remainder()
	out = append(out, fmt.Sprintf("%-28s %7s %10s %10.3f %6.1f%%", "  remainder ("+w.entry+" self)", "", "", perOp(r), share(r)))
	return out
}

// layerMetrics derives the per-layer metrics. A layer the workload does
// not exercise reads 0.
func layerMetrics(w workloadDef, t *spanTotals, rec *recorder, c counters, points int, waitUS int64, flights int, untraced time.Duration) []metric {
	meanMS := func(name string) float64 { return ms(t.mean(name)) }
	meanUS := func(name string) float64 { return 1000 * ms(t.mean(name)) }
	allocMiB := func(name string) float64 {
		return ratio(float64(rec.alloc[name]), float64(t.calls[name])) / (1 << 20)
	}
	var expPoint, expSelf, serveSelf float64
	if w.entry == "exp" {
		expPoint = ratio(ms(t.op), float64(t.ops))
		expSelf = ratio(ms(t.remainder()), float64(t.ops))
	} else {
		serveSelf = ratio(ms(t.remainder()), float64(points))
	}
	answered := c.hits + c.misses + c.coalesced
	return []metric{
		{"exp.point_ms", "ms", "lower", expPoint, "Runner.RunContext per point, uncontended"},
		{"exp.self_ms", "ms", "lower", expSelf, "point minus build and verify"},
		{"serve.self_ms", "ms", "lower", serveSelf, "HTTP op per point minus the layer calls"},
		{"serve.key_us", "us", "lower", meanUS("serve.key"), "serve.Key per point"},
		{"serve.queue_ms", "ms", "lower", ratio(float64(waitUS)/1000, float64(flights)), "flight minus simulate/replay/store.append"},
		{"serve.hit_ratio", "ratio", "higher", ratio(c.hits, answered), "cache_hits / points answered"},
		{"serve.errors", "count", "lower", c.errors, "errors + sweep_point_errors + store_errors"},
		{"workload.generate_ms", "ms", "lower", meanMS("workload.generate"), "Spec.Generate per sweep point"},
		{"workload.decode_ms", "ms", "lower", meanMS("workload.decode"), "DecodeTrace per replay body"},
		{"regconn.build_ms", "ms", "lower", meanMS("regconn.build"), "regconn.Build per point"},
		{"regconn.build_alloc_mib", "MiB", "lower", allocMiB("regconn.build"), "heap allocated per Build"},
		{"interp.profile_ms", "ms", "lower", meanMS("interp.profile"), "one interp.Run(Profile) pass"},
		{"machine.verify_ms", "ms", "lower", meanMS("machine.verify"), "Arena.VerifyContext per point"},
		{"machine.minstr_per_s", "Minstr/s", "higher", ratio(float64(rec.counts["machine.verify"])/1e6, t.layer["machine.verify"].Seconds()), "simulated instructions / verify time"},
		{"machine.replay_ms", "ms", "lower", meanMS("machine.replay"), "Trace.Replay per replay"},
		{"machine.replay_alloc_mib", "MiB", "lower", allocMiB("machine.replay"), "heap allocated per replay"},
		{"store.get_us", "us", "lower", meanUS("store.get"), "Store.Get per point"},
		{"store.hit_share", "ratio", "lower", ratio(c.storeHits, c.hits), "store_hits / cache_hits"},
		{"store.put_ms", "ms", "lower", meanMS("store.put"), "Store.Put (append + fsync) per point"},
		{"trace.overhead", "ratio", "lower", ratio(t.op.Seconds(), untraced.Seconds()) - 1, "traced / untraced op time - 1"},
	}
}

// fmtList renders values to three decimals.
func fmtList(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}
