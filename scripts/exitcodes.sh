#!/bin/sh
# Asserts the exit-code contract of the command-line tools: every failure
# path exits non-zero (usage errors in rclint exit 2), and the success
# paths stay at 0. Guards against the class of bug where a tool printed
# an error — or silently normalized a bad flag value — and still exited 0
# (`rcrun -model 9` used to run model 3 and report success).
#
# Run from the repository root: sh scripts/exitcodes.sh
set -u

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT INT TERM

if ! $GO build -o "$BIN/" ./cmd/rcrun ./cmd/rclint ./cmd/rcexp ./cmd/rcserve ./cmd/rctop ./cmd/rcgen ./cmd/rcprof ./cmd/rcdis ./cmd/rcasm ./cmd/rcbench; then
    echo "exitcodes: build failed" >&2
    exit 1
fi

fails=0

# expect WANT CMD ARGS... runs CMD and checks its exit status.
expect() {
    want=$1
    shift
    "$@" >/dev/null 2>&1
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL exit $got (want $want): $*"
        fails=$((fails + 1))
    else
        echo "ok   exit $got: $*"
    fi
}

# expect_msg WANT PATTERN CMD ARGS... additionally requires PATTERN (grep
# BRE) on the combined output — used to pin that backend-name rejections
# list the registry's names, so the message tracks new registrations, and
# that a refused flag combination names its flags.
expect_msg() {
    want=$1
    pattern=$2
    shift 2
    out=$("$@" 2>&1)
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL exit $got (want $want): $*"
        fails=$((fails + 1))
    elif ! printf '%s\n' "$out" | grep -q "$pattern"; then
        echo "FAIL output missing '$pattern': $*"
        fails=$((fails + 1))
    else
        echo "ok   exit $got: $* (message has '$pattern')"
    fi
}

# The registry-derived name list every unknown-backend rejection must
# carry (sorted registry order).
BACKEND_LIST="chain, portreduce, rc, spill, or unlimited"

# Likewise for unknown workload-profile rejections: the message must list
# the profile registry (registration order).
PROFILE_LIST="mixed, call-heavy, connect-heavy, mispredict-heavy, trap-heavy, fp-heavy, multiprogrammed"

# rcrun: bad flag values must be rejected, not silently normalized; the
# mode rejection names every registered backend.
expect 1 "$BIN/rcrun" -bench grep -model 9
expect 1 "$BIN/rcrun" -bench grep -model 0
expect_msg 1 "$BACKEND_LIST" "$BIN/rcrun" -bench grep -mode junk
expect 1 "$BIN/rcrun" -bench nosuchbench
# Arch.Validate: a core count below abi.MinCore used to panic (exit 2) in
# the calling convention, and a negative channel count hung the list
# scheduler; both are config errors before any compile.
expect 1 "$BIN/rcrun" -bench cpp -intcore 4
expect 1 "$BIN/rcrun" -bench cpp -channels -1
# Upper bounds: a 1e12 load latency made a compile that never returned,
# and a 1e9 issue rate allocated an 8 GB issue histogram on the first run
# (as it did through rcasm's machine.Config).
expect 1 "$BIN/rcrun" -bench cmp -load 1000000000000
expect 1 "$BIN/rcrun" -bench cmp -issue 1000000000
expect 0 "$BIN/rcrun" -bench grep
expect 0 "$BIN/rcrun" -bench grep -mode portreduce
expect 0 "$BIN/rcrun" -bench grep -mode chain
expect 0 "$BIN/rcrun" -list

# Simulator observers (machine.Config.Probe): the text trace, the Chrome
# event trace and the per-PC profile run to completion.
expect 0 "$BIN/rcrun" -bench grep -trace 8
expect 0 "$BIN/rcrun" -bench grep -trace-json "$BIN/t.json"
expect 0 "$BIN/rcrun" -bench cmp -prof
expect 0 "$BIN/rcprof" -bench cmp -trace-json "$BIN/p.json"

# rcprof's -models and -grid build through the in-process front-end memo
# (exp.Build) and -grid fans out through exp.ForEach; both succeed.
expect 0 "$BIN/rcprof" -bench cmp -models
expect 0 "$BIN/rcprof" -grid -quick

# rcrun generated workloads and trace emission: malformed gen names and
# unknown profiles fail; a valid spec runs, and -emit-trace produces a
# file rcgen accepts.
expect_msg 1 "$PROFILE_LIST" "$BIN/rcrun" -bench gen/nosuchprofile/0
expect 1 "$BIN/rcrun" -bench gen/mixed/notanumber
expect 0 "$BIN/rcrun" -bench gen/mixed/0
expect 0 "$BIN/rcrun" -bench gen/mixed/0 -emit-trace "$BIN/t.rctrace"
expect 0 "$BIN/rcgen" replay "$BIN/t.rctrace"

# Generated workload names work in every tool that takes -bench.
expect 0 "$BIN/rcprof" -bench gen/mixed/0
expect 0 "$BIN/rcdis" -bench gen/mixed/0
expect 0 "$BIN/rclint" -bench gen/mixed/0 -quick

# The shared arch flags (cli.ArchFlags) reject a bad -model in every tool.
expect 1 "$BIN/rcprof" -bench cmp -model 9
expect 1 "$BIN/rcdis" -bench cmp -model 9
expect 1 "$BIN/rcgen" emit -profile mixed -seed 0 -o "$BIN/m9.rctrace" -model 9

# rcgen: usage errors exit non-zero; list/emit/info/replay/smoke succeed
# on valid inputs, and corrupt traces are rejected.
expect 2 "$BIN/rcgen"
expect 2 "$BIN/rcgen" nosuchsub
expect 1 "$BIN/rcgen" emit -profile mixed -seed 0
expect_msg 1 "$PROFILE_LIST" "$BIN/rcgen" emit -profile nosuchprofile -o "$BIN/x.rctrace"
expect 1 "$BIN/rcgen" emit -profile mixed -bench grep -o "$BIN/x.rctrace"
expect 1 "$BIN/rcgen" info "$BIN/nosuchfile.rctrace"
expect 1 "$BIN/rcgen" replay /dev/null
expect_msg 1 "$PROFILE_LIST" "$BIN/rcgen" smoke -profiles nosuchprofile
expect 0 "$BIN/rcgen" list
expect 0 "$BIN/rcgen" emit -profile call-heavy -seed 1 -o "$BIN/c.rctrace"
expect 0 "$BIN/rcgen" info "$BIN/c.rctrace"
expect 0 "$BIN/rcgen" replay "$BIN/c.rctrace"
expect 0 "$BIN/rcgen" smoke -seeds 1 -profiles mixed
printf 'rctrace 1 4 deadbeef\njunk' > "$BIN/bad.rctrace"
expect 1 "$BIN/rcgen" replay "$BIN/bad.rctrace"
# A checksummed trace whose first LD has a float base register.
expect 1 "$BIN/rcgen" replay internal/workload/testdata/bad_class.rctrace

# rcasm: assembled code reaches the simulator without the compiler, so
# the simulator's admission check (machine.Check) must turn an operand
# outside the map or an impossible register file into an error (exit 1),
# never a Go panic (exit 2).
expect 0 "$BIN/rcasm" examples/asm/sumext.s
expect 0 "$BIN/rcasm" -dis examples/asm/sumext.s
expect 1 "$BIN/rcasm" -intcore 0 examples/asm/sumext.s
expect 1 "$BIN/rcasm" -intcore 8 -total 4 examples/asm/sumext.s
expect 1 "$BIN/rcasm" -total 100000 examples/asm/sumext.s
expect 1 "$BIN/rcasm" -issue 1000000000 examples/asm/sumext.s
printf '.func main\n    movi r20, #5\n    halt\n' > "$BIN/r20.s"
expect 1 "$BIN/rcasm" -intcore 8 "$BIN/r20.s"
printf '.func main\n    fadd f1, f2, #3\n    halt\n' > "$BIN/fimm.s"
expect 1 "$BIN/rcasm" "$BIN/fimm.s"

# rclint: usage errors exit 2 (unknown backends list the registry); a
# clean quick sweep exits 0, including the extension-backend matrix.
expect 2 "$BIN/rclint" -bench nosuchbench
expect 2 "$BIN/rclint" -issue bogus
expect 2 "$BIN/rclint" -windows bogus
expect_msg 2 "$BACKEND_LIST" "$BIN/rclint" -backends bogus
expect 0 "$BIN/rclint" -quick -bench grep -issue 4
expect 0 "$BIN/rclint" -quick -bench grep -issue 4 -backends portreduce,chain

# rcserve: inconsistent shard, store, or observability configuration
# must fail before the daemon binds its listener.
expect 1 "$BIN/rcserve" -peers "http://a:1,http://b:1"
expect 1 "$BIN/rcserve" -peers "http://a:1,http://b:1" -self "http://c:1"
expect 1 "$BIN/rcserve" -peers "http://a:1,," -self "http://a:1"
expect 1 "$BIN/rcserve" -trace-dir /dev/null/nope
expect 1 "$BIN/rcserve" -log bogus
expect 2 "$BIN/rcserve" -slow bogus

# rctop: -peers is required and validated; a down replica is rendered
# as "down" in a -once frame rather than failing the run.
expect 1 "$BIN/rctop"
expect 1 "$BIN/rctop" -peers "http://a:1,,"
expect 2 "$BIN/rctop" -interval bogus
expect 0 "$BIN/rctop" -once -peers "http://127.0.0.1:1"

# rcexp: unknown formats, experiments, and benchmarks must all fail.
expect 1 "$BIN/rcexp" -quick -format junk
expect 1 "$BIN/rcexp" -quick -exp nosuchfigure
expect 1 "$BIN/rcexp" -quick -bench nosuchbench
expect 0 "$BIN/rcexp" -quick -bench grep -exp table1
expect 0 "$BIN/rcexp" -quick -bench grep -exp table1 -format csv

# The os and pressure ablations and the -stats export run their points
# through the experiment runner (oracle, checksum and ledger checked on
# every point).
expect 0 "$BIN/rcexp" -quick -bench cmp -exp os
expect 0 "$BIN/rcexp" -quick -bench cmp -exp pressure
expect 0 "$BIN/rcexp" -quick -bench cmp -stats

# -cpuprofile and -memprofile write both profiles (cli.StartProfiles).
expect 0 "$BIN/rcexp" -quick -bench grep -exp table1 -cpuprofile "$BIN/cpu.pprof" -memprofile "$BIN/mem.pprof"
for f in cpu.pprof mem.pprof; do
    if [ -s "$BIN/$f" ]; then
        echo "ok   $f written and non-empty"
    else
        echo "FAIL $f missing or empty after rcexp -cpuprofile/-memprofile"
        fails=$((fails + 1))
    fi
done

# rcbench: the zero-alloc gate counts process-wide allocations, so it
# refuses the profiling flags (the CPU profiler's own allocations failed
# it) before measuring anything, and writes no profile.
expect_msg 1 "gate cannot be combined with -cpuprofile or -memprofile" "$BIN/rcbench" -gate -cpuprofile "$BIN/gate.pprof"
expect_msg 1 "gate cannot be combined with -cpuprofile or -memprofile" "$BIN/rcbench" -gate -memprofile "$BIN/gate.pprof"
if [ -e "$BIN/gate.pprof" ]; then
    echo "FAIL rcbench -gate wrote a profile it refused"
    fails=$((fails + 1))
else
    echo "ok   rcbench -gate wrote no profile"
fi

# rcexp scenarios: bad profiles and seed lists fail; a bounded scenario
# run (one profile, one seed) succeeds, and generated workloads work as
# -bench arguments.
expect_msg 1 "$PROFILE_LIST" "$BIN/rcexp" -profile nosuchprofile
expect 1 "$BIN/rcexp" -seeds notanumber
expect 1 "$BIN/rcexp" -seeds 5-2
expect 0 "$BIN/rcexp" -profile mixed -seeds 0
expect 0 "$BIN/rcexp" -quick -bench gen/mixed/0 -exp table1

if [ "$fails" -gt 0 ]; then
    echo "exitcodes: $fails assertion(s) failed"
    exit 1
fi
echo "exitcodes: all assertions passed"
