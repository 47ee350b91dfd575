// Command rcserve is the simulation-as-a-service daemon: it serves the
// experiment runner over HTTP with result caching, an optional persistent
// result store, request coalescing, a bounded worker pool, per-request
// deadlines, consistent-hash sweep sharding across replicas, and graceful
// drain.
//
// Usage:
//
//	rcserve [-addr :8347] [-cache 1024] [-workers n] [-timeout 2m]
//	        [-store-dir DIR] [-peers URL,URL,...] [-self URL]
//	        [-trace] [-trace-dir DIR] [-trace-keep 64]
//	        [-log text|json|off] [-slow 2s]
//
// Endpoints:
//
//	POST /v1/run          one benchmark × arch point → stats JSON
//	POST /v1/sweep        a grid, streamed back as NDJSON
//	GET  /v1/sweeps       live sweep progress (completed/total, per peer)
//	GET  /v1/figures/{id} a regenerated paper figure (table1, fig7, ...)
//	GET  /healthz         readiness (503 while draining)
//	GET  /metrics         expvar JSON; ?format=prometheus for text exposition
//	GET  /debug/trace     retained request traces as Chrome trace JSON
//
// Every response carries an X-Request-ID (the client's own, when it sent
// a valid one). With -trace, run/sweep/figures requests record span
// trees — cache lookup, store read, flight, simulate, store append, peer
// forward — exported via /debug/trace and, with -trace-dir, written per
// request as Chrome trace-event JSON. With -log, structured request logs
// (request ID, route, cache state, duration) go to stderr; requests
// slower than -slow log at Warn.
//
// With -store-dir, completed points are appended to a crash-recoverable
// segment store and survive restarts: a re-run sweep answers every
// previously completed point as a byte-identical X-Cache: HIT. With
// -peers/-self, N replicas split a sweep's points by consistent key hash
// (every replica must get the same -peers list). On SIGINT/SIGTERM the
// daemon flips /healthz to draining, stops accepting connections, and
// gives inflight requests up to the shutdown grace period to finish. See
// DESIGN.md §11 for the API and §14 for the store format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"regconn/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcserve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8347", "listen address")
		cache    = flag.Int("cache", 1024, "result cache size in entries")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = all CPUs)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "per-request simulation deadline (0 = none)")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown grace period for inflight requests")
		storeDir = flag.String("store-dir", "", "persistent result store directory (empty = memory only)")
		peers    = flag.String("peers", "", "comma-separated base URLs of every replica, including this one (empty = unsharded)")
		self     = flag.String("self", "", "this replica's entry in -peers (required with -peers)")
		trace    = flag.Bool("trace", false, "trace requests; export via GET /debug/trace")
		traceDir = flag.String("trace-dir", "", "also write each request trace as <id>.trace.json here (implies -trace)")
		keep     = flag.Int("trace-keep", 64, "finished traces retained in memory for /debug/trace")
		logFmt   = flag.String("log", "off", "structured request log format: text, json, or off")
		slow     = flag.Duration("slow", 2*time.Second, "slow-request log threshold")
	)
	flag.Parse()

	var logger *slog.Logger
	switch *logFmt {
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		return fmt.Errorf("-log must be text, json, or off (got %q)", *logFmt)
	}

	var peerList []string
	if *peers != "" {
		for _, p := range strings.Split(*peers, ",") {
			p = strings.TrimRight(strings.TrimSpace(p), "/")
			if p == "" {
				return fmt.Errorf("-peers contains an empty entry")
			}
			peerList = append(peerList, p)
		}
		if *self == "" {
			return fmt.Errorf("-peers requires -self (this replica's own base URL)")
		}
	}
	sv, err := serve.New(serve.Config{
		CacheSize:     *cache,
		Workers:       *workers,
		Timeout:       *timeout,
		StoreDir:      *storeDir,
		Peers:         peerList,
		Self:          strings.TrimRight(*self, "/"),
		Trace:         *trace,
		TraceDir:      *traceDir,
		TraceKeep:     *keep,
		Logger:        logger,
		SlowThreshold: *slow,
	})
	if err != nil {
		return err
	}
	defer sv.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: sv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "rcserve: listening on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // bind failure or unexpected server exit
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "rcserve: draining")
	sv.SetDraining()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "rcserve: drained")
	return nil
}
