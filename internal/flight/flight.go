// Package flight provides a waiter-counted singleflight: concurrent
// requests for the same key coalesce onto one execution whose context is
// canceled only when every request waiting on it has gone away. One
// impatient caller therefore cannot kill a computation other callers are
// still waiting for, and a computation nobody wants anymore is stopped
// instead of burning a worker slot.
//
// It is shared by the rcserve daemon's point resolver (internal/serve,
// values are marshaled response bytes) and the front-end memo
// (exp.Frontends, values are compiled front ends). The experiment runner,
// exp.Runner, does not use it: no caller asks one Runner for one point
// twice at once, so its memo does not coalesce.
package flight

import (
	"context"
	"sync"
)

// Group coalesces concurrent executions by key. The zero value is not
// usable; construct with NewGroup.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// call is one in-flight execution and its waiters.
type call[V any] struct {
	done    chan struct{}
	val     V
	err     error
	waiters int
	cancel  context.CancelCauseFunc
}

// NewGroup returns an empty group.
func NewGroup[V any]() *Group[V] {
	return &Group[V]{m: map[string]*call[V]{}}
}

// Do runs fn for key, sharing one execution among concurrent callers. The
// execution runs under its own context, canceled (with the departing
// caller's cause) only when the last waiter leaves. It reports the result,
// the caller's context error if the caller gave up first, and whether this
// caller joined an execution another caller started (for coalescing
// telemetry). A canceled execution's error is returned to (and only to)
// the waiters that stayed; callers that never cache errors get a fresh
// flight on the next request for the key.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	f, joined := g.m[key]
	if !joined {
		fctx, cancel := context.WithCancelCause(context.Background())
		f = &call[V]{done: make(chan struct{}), cancel: cancel}
		g.m[key] = f
		go func() {
			f.val, f.err = fn(fctx)
			g.mu.Lock()
			if g.m[key] == f { // a canceled flight may already be forgotten
				delete(g.m, key)
			}
			g.mu.Unlock()
			cancel(nil) // release the context's resources
			close(f.done)
		}()
	}
	f.waiters++
	g.mu.Unlock()

	select {
	case <-f.done:
		// If the caller's deadline expired while the flight was finishing
		// (both channels ready, select picked the flight), honor the
		// deadline: a caller that asked for 1ms never sees a success that
		// took longer. The completed result stays available for others.
		if cerr := ctx.Err(); cerr != nil {
			var zero V
			return zero, cerr, joined
		}
		return f.val, f.err, joined
	case <-ctx.Done():
		g.mu.Lock()
		f.waiters--
		if f.waiters == 0 {
			f.cancel(context.Cause(ctx))
			// Forget the key immediately: the canceled execution may take a
			// while to notice (a simulation's cycle loop polls every few
			// thousand cycles), and a later caller must start a fresh
			// flight rather than join a doomed one.
			if g.m[key] == f {
				delete(g.m, key)
			}
		}
		g.mu.Unlock()
		var zero V
		return zero, ctx.Err(), joined
	}
}

// Waiters reports how many callers are currently waiting on key's flight
// (0 when no flight is active). It exists for tests that need to
// deterministically observe join states.
func (g *Group[V]) Waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f := g.m[key]; f != nil {
		return f.waiters
	}
	return 0
}
