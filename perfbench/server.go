package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"

	"regconn/internal/obs"
	"regconn/internal/serve"
)

// server is one in-process rcserve daemon (serve.New behind httptest),
// reached over loopback HTTP through a client holding at most one
// connection per benchmark client.
type server struct {
	srv *serve.Server
	ts  *httptest.Server
	hc  *http.Client

	// base is the /metrics snapshot the timed or traced phase started
	// from (nil = the server started inside the phase, so every counter
	// counts).
	base map[string]float64
}

// startServer starts a daemon with cfg and a client capped at conns
// connections.
func startServer(cfg serve.Config, conns int) (*server, error) {
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &server{srv: srv, ts: httptest.NewServer(srv), hc: &http.Client{Transport: tr}}, nil
}

// close stops the HTTP server (waiting for its requests to end), drops
// the client's connections and closes the daemon's store.
func (s *server) close() {
	s.ts.Close()
	s.hc.CloseIdleConnections()
	s.srv.Close()
}

// post sends body to path under request ID rid and reads the whole
// response body into buf (reset first). Any status but 200 is an error.
func (s *server) post(ctx context.Context, path, rid string, body []byte, buf *bytes.Buffer) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("POST %s: reading body: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(buf.Bytes()))
	}
	return resp, nil
}

// get fetches path and decodes its JSON body into v.
func (s *server) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+path, nil)
	if err != nil {
		return err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// metrics fetches the flat /metrics JSON map.
func (s *server) metrics(ctx context.Context) (map[string]float64, error) {
	var m map[string]float64
	return m, s.get(ctx, "/metrics?format=json", &m)
}

// requestTrace fetches the daemon's retained span tree of one request.
func (s *server) requestTrace(ctx context.Context, rid string) (*obs.TraceFile, error) {
	var f obs.TraceFile
	return &f, s.get(ctx, "/debug/trace?id="+url.QueryEscape(rid), &f)
}

// counters are the /metrics deltas the checks and per-layer metrics read.
type counters struct {
	hits, misses, coalesced float64
	storeHits               float64
	// errors sums failed requests, failed sweep points and failed store
	// appends.
	errors float64
}

// add accumulates s's counters since its base snapshot.
func (c *counters) add(ctx context.Context, s *server) error {
	now, err := s.metrics(ctx)
	if err != nil {
		return err
	}
	d := func(k string) float64 { return now[k] - s.base[k] }
	c.hits += d("cache_hits")
	c.misses += d("cache_misses")
	c.coalesced += d("coalesced")
	c.storeHits += d("store_hits")
	c.errors += d("errors") + d("sweep_point_errors") + d("store_errors")
	return nil
}

// sumCounters totals the counters of every server since its snapshot.
func sumCounters(ctx context.Context, servers []*server) (counters, error) {
	var c counters
	for _, s := range servers {
		if err := c.add(ctx, s); err != nil {
			return c, err
		}
	}
	return c, nil
}

// snapshot records every server's current counters as its base.
func snapshot(ctx context.Context, servers []*server) error {
	for _, s := range servers {
		m, err := s.metrics(ctx)
		if err != nil {
			return err
		}
		s.base = m
	}
	return nil
}

// queueTime returns, over one request's retained span tree, the time its
// flights spent waiting for a worker slot: each flight span minus its
// simulate, replay and store.append children (found on the flight's own
// track inside its interval; concurrent work forks other tracks), and the
// number of flights.
func queueTime(f *obs.TraceFile) (waitUS int64, flights int) {
	type lane struct{ pid, tid int }
	work := map[lane][]obs.TraceEvent{}
	for _, e := range f.TraceEvents {
		if e.Ph == "X" && (e.Name == "simulate" || e.Name == "replay" || e.Name == "store.append") {
			l := lane{e.Pid, e.Tid}
			work[l] = append(work[l], e)
		}
	}
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Name != "flight" {
			continue
		}
		flights++
		wait := e.Dur
		for _, c := range work[lane{e.Pid, e.Tid}] {
			if c.Ts >= e.Ts && c.Ts+c.Dur <= e.Ts+e.Dur {
				wait -= c.Dur
			}
		}
		waitUS += max(wait, 0)
	}
	return waitUS, flights
}
