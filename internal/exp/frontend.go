package exp

import (
	"context"
	"fmt"

	"regconn"
	"regconn/internal/bench"
	"regconn/internal/flight"
	"regconn/internal/lru"
)

// Frontends is a bounded memo of compiled front ends, keyed by canonical
// benchmark name plus the arch's regconn.FrontendKey: the points of one
// program that differ only in their back end — the five backends of a
// sweep at one issue rate — compile its front end once and build their
// back ends from it. Concurrent points needing one front end share one
// compile through a flight. A failed compile is never stored, so the next
// point recompiles and reports the same error. At the bound the least
// recently used entry is evicted. It is safe for concurrent use.
//
// Within one process, a benchmark's canonical name must identify the
// program its Build returns, as the Runner memo, serve.Key and the result
// store already assume: the package-level RunPoint and Build share one
// memo across the process, so two programs under one name would share a
// front end.
type Frontends struct {
	// Observe, when set, is called once per point that obtained a front
	// end: with "compiled" when the point compiled it, "reused" when it
	// took it from the memo or from a concurrent compile. Set it before
	// first use; it is called from concurrent points.
	Observe func(result string)

	cache   *lru.Cache[*regconn.Frontend]
	flights *flight.Group[compiled]
}

// compiled is one flight's front end and whether that flight compiled it
// (false when it found the front end stored after all).
type compiled struct {
	fe    *regconn.Frontend
	fresh bool
}

// NewFrontends returns an empty memo holding at most n front ends (at
// least one).
func NewFrontends(n int) *Frontends {
	return &Frontends{cache: lru.New[*regconn.Frontend](n), flights: flight.NewGroup[compiled]()}
}

// frontend returns the point's front end and whether it was reused rather
// than compiled by this call.
func (m *Frontends) frontend(ctx context.Context, bm bench.Benchmark, arch regconn.Arch) (*regconn.Frontend, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err // nobody waits for a compile started now
	}
	key := fmt.Sprintf("%s/%+v", bm.Name, arch.FrontendKey())
	if fe, ok := m.cache.Get(key); ok {
		return fe, true, nil
	}
	// A compile cannot be canceled, so the point waits for it whatever
	// its context: it keeps its worker slot until the compile ends, as a
	// private build would, instead of leaving the compile running
	// outside the pool.
	c, err, shared := m.flights.Do(context.WithoutCancel(ctx), key, func(context.Context) (compiled, error) {
		// A flight for key may have stored it between get and Do.
		if fe, ok := m.cache.Get(key); ok {
			return compiled{fe, false}, nil
		}
		fe, err := regconn.NewFrontend(bm.Build(), arch)
		if err != nil {
			return compiled{}, err
		}
		m.cache.Put(key, fe)
		return compiled{fe, true}, nil
	})
	return c.fe, shared || !c.fresh, err
}
