# Tier-1 verification and performance tracking for the regconn repo.

GO ?= go

.PHONY: all build test verify lint prof bench exp clean

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the tier-1 gate (see ROADMAP.md): build, vet (the repository,
# the repository again for windows so a unix-only call anywhere fails the
# gate, and the perfbench module, which reaches the program only through
# its exported APIs and is otherwise compiled only by a benchmark run),
# formatting, full tests (shuffled, to keep inter-test ordering
# dependencies out), the data-race checks on the parallel experiment
# runner and its front-end memo, on the rcserve daemon (request
# coalescing, cancellation, sharding), the waiter-counted flight under
# its resolver and the front-end memo, and the LRU behind its result
# cache, on the persistent result store (crash recovery) and on the
# observability layer (tracing, metrics registry), the CLI exit-code
# contract (scripts/exitcodes.sh), the metric-table cross-check
# (scripts/metricslint.sh), the static map-state verifier over the
# full benchmark × backend × model × combine grid (cmd/rclint, split
# into the paper's three backends and the extension backend matrix),
# the attribution profiler's ledger cross-check over the golden
# benchmark × config grid (cmd/rcprof), the arena zero-allocation
# gate (scripts/benchgate.sh), and the bounded scenario smoke
# (cmd/rcgen smoke: every workload profile × 3 seeds, each point
# interpreter-pinned, ledger-checked, and round-tripped through the
# trace format with a verified replay). rclint, rcprof -grid and rcgen
# smoke build through the in-process front-end memo (exp.Build), so
# each compiles one front end per program and issue rate, not one per
# point.
verify: build
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -shuffle=on ./...
	$(GO) test -race ./internal/exp/...
	$(GO) test -race ./internal/serve/...
	$(GO) test -race ./internal/flight/...
	$(GO) test -race ./internal/lru/...
	$(GO) test -race ./internal/store/...
	$(GO) test -race ./internal/obs/...
	sh scripts/exitcodes.sh
	sh scripts/metricslint.sh
	sh scripts/benchgate.sh
	$(GO) run ./cmd/rclint -backends rc,spill,unlimited
	$(GO) run ./cmd/rclint -backends portreduce,chain
	$(GO) run ./cmd/rcprof -grid
	$(GO) run ./cmd/rcgen smoke

# prof runs the attribution profiler over the golden benchmark × config
# grid, proving per-PC cycle charges sum bit-exactly to the cycle
# ledger of every point (a verify step; see DESIGN.md §10).
prof:
	$(GO) run ./cmd/rcprof -grid

# lint runs only the static map-state verifier sweep (a sub-step of
# verify, useful while iterating on codegen or the scheduler).
lint:
	$(GO) run ./cmd/rclint

# bench regenerates BENCH_sim.json, the tracked simulator performance
# snapshot (figure-regeneration time, warm-arena simulation throughput,
# steady-state allocation counts), then runs the in-repo microbenchmarks
# with -benchmem so per-op allocation figures land in the log.
bench:
	$(GO) run ./cmd/rcbench -o BENCH_sim.json
	$(GO) test -run '^$$' -bench 'ArenaResetRun|ArenaRun' -benchmem ./internal/machine .

# exp regenerates every table and figure on the full suite.
exp:
	$(GO) run ./cmd/rcexp

clean:
	$(GO) clean ./...
