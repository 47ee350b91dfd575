// Package cli holds the flag-parsing and profiling helpers shared by the
// command-line tools. The library deliberately forgives a zero-value Arch
// (normalize fills in the paper defaults), but an explicit flag value that
// is out of range must be an error, not a silent substitution — `rcrun
// -model 9` used to run model 3 and exit 0.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/core"
)

// ParseBackend maps a -mode flag value to a registered backend. The
// accepted-name set and the error message come from the backend registry,
// so a newly registered backend is accepted — and named in the error —
// without touching this package.
func ParseBackend(s string) (backend.Backend, error) {
	return backend.ByName(s)
}

// ParseMode maps a -mode flag value to the register mode. It accepts
// exactly the registry's names (ParseBackend) and returns the backend's ID
// for tools that carry the selection in Arch.Mode.
func ParseMode(s string) (regconn.RegMode, error) {
	be, err := ParseBackend(s)
	if err != nil {
		return 0, err
	}
	return be.ID(), nil
}

// ModeNames returns the registry's mode names for usage strings, in
// sorted order.
func ModeNames() []string {
	return backend.Names()
}

// ParseModel validates a -model flag value against the four automatic-
// reset models of the paper (§4.1).
func ParseModel(n int) (core.Model, error) {
	m := core.Model(n)
	if !m.Valid() {
		return 0, fmt.Errorf("invalid RC model %d (want 1..4)", n)
	}
	return m, nil
}

// ArchFlags registers on fs the architecture flags the simulator tools
// share: -issue 4, -intcore 16, -fpcore 32, -mode rc and -model 3, the
// paper's center point. The returned function parses them into an Arch
// with 2-cycle loads and combined connects; a tool with more architecture
// flags sets those fields on the result.
func ArchFlags(fs *flag.FlagSet) func() (regconn.Arch, error) {
	var (
		issue   = fs.Int("issue", 4, "issue rate (1/2/4/8)")
		intCore = fs.Int("intcore", 16, "core integer registers")
		fpCore  = fs.Int("fpcore", 32, "core floating-point registers")
		mode    = fs.String("mode", "rc", "register backend: "+strings.Join(ModeNames(), ", "))
		model   = fs.Int("model", 3, "RC automatic-reset model 1..4")
	)
	return func() (regconn.Arch, error) {
		m, err := ParseModel(*model)
		if err != nil {
			return regconn.Arch{}, err
		}
		arch := regconn.Arch{
			Issue:           *issue,
			LoadLatency:     2,
			IntCore:         *intCore,
			FPCore:          *fpCore,
			Model:           m,
			CombineConnects: true,
		}
		arch.Mode, err = ParseMode(*mode)
		return arch, err
	}
}

// StartProfiles begins the runtime/pprof profiles of the -cpuprofile and
// -memprofile flags (either path may be empty) and returns the function
// that finishes them: it stops the CPU profile and writes a post-GC heap
// profile. A tool calls it once on every exit path with its run's error
// and reports what it returns: that error, or else the first error
// writing a profile.
func StartProfiles(cpuPath, memPath string) (stop func(error) error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func(err error) error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if cerr := cpu.Close(); err == nil {
				err = cerr
			}
		}
		if memPath != "" {
			if merr := writeHeapProfile(memPath); err == nil {
				err = merr
			}
		}
		return err
	}, nil
}

// writeHeapProfile writes a heap profile taken after a collection.
func writeHeapProfile(path string) error {
	runtime.GC()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
