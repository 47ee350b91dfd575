package cli

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"regconn"
	"regconn/internal/backend"
	"regconn/internal/core"
)

func TestParseMode(t *testing.T) {
	good := map[string]regconn.RegMode{
		"rc":         regconn.WithRC,
		"spill":      regconn.WithoutRC,
		"unlimited":  regconn.Unlimited,
		"portreduce": regconn.PortReduce,
		"chain":      regconn.Chain,
	}
	for s, want := range good {
		m, err := ParseMode(s)
		if err != nil || m != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, m, err, want)
		}
	}
	for _, s := range []string{"", "RC", "junk", "with-RC"} {
		_, err := ParseMode(s)
		if err == nil {
			t.Errorf("ParseMode(%q) succeeded, want error", s)
			continue
		}
		// The rejection names every registered backend so the user can
		// fix the flag without reading the source.
		for _, name := range backend.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseMode(%q) error %q does not name backend %q", s, err, name)
			}
		}
	}
}

func TestParseBackendMatchesRegistry(t *testing.T) {
	for _, name := range backend.Names() {
		be, err := ParseBackend(name)
		if err != nil {
			t.Errorf("ParseBackend(%q): %v", name, err)
			continue
		}
		if be.Name() != name {
			t.Errorf("ParseBackend(%q) returned backend named %q", name, be.Name())
		}
		m, err := ParseMode(name)
		if err != nil || m != be.ID() {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, m, err, be.ID())
		}
	}
}

func TestParseModel(t *testing.T) {
	for n := 1; n <= 4; n++ {
		m, err := ParseModel(n)
		if err != nil || m != core.Model(n) {
			t.Errorf("ParseModel(%d) = %v, %v", n, m, err)
		}
	}
	// Out-of-range models must be an error here even though the library's
	// Arch.normalize would silently fall back to the paper default.
	for _, n := range []int{0, -1, 5, 9} {
		if _, err := ParseModel(n); err == nil {
			t.Errorf("ParseModel(%d) succeeded, want error", n)
		}
	}
}

// TestArchFlags pins the shared flag block: its defaults are the paper's
// center point with 2-cycle loads and combined connects, set flags land
// in their fields, and bad -model and -mode values are errors.
func TestArchFlags(t *testing.T) {
	parse := func(args ...string) (regconn.Arch, error) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		arch := ArchFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return arch()
	}
	got, err := parse()
	want := regconn.Arch{Issue: 4, LoadLatency: 2, IntCore: 16, FPCore: 32,
		Mode: regconn.WithRC, Model: core.WriteResetReadUpdate, CombineConnects: true}
	if err != nil || got != want {
		t.Errorf("defaults = %+v, %v; want %+v", got, err, want)
	}
	got, err = parse("-issue", "8", "-intcore", "24", "-fpcore", "48", "-mode", "chain", "-model", "1")
	want = regconn.Arch{Issue: 8, LoadLatency: 2, IntCore: 24, FPCore: 48,
		Mode: regconn.Chain, Model: core.Model(1), CombineConnects: true}
	if err != nil || got != want {
		t.Errorf("set flags = %+v, %v; want %+v", got, err, want)
	}
	for _, args := range [][]string{{"-model", "9"}, {"-mode", "junk"}} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%v parsed, want an error", args)
		}
	}
}

// TestStartProfiles: the returned stop writes both profiles whether the
// run failed or not, and reports the run's own error first.
func TestStartProfiles(t *testing.T) {
	runErr := errors.New("run failed")
	for _, want := range []error{nil, runErr} {
		dir := t.TempDir()
		cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
		stop, err := StartProfiles(cpu, mem)
		if err != nil {
			t.Fatal(err)
		}
		if got := stop(want); got != want {
			t.Errorf("stop(%v) = %v", want, got)
		}
		for _, path := range []string{cpu, mem} {
			if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
				t.Errorf("after stop(%v): %s missing or empty (%v)", want, filepath.Base(path), err)
			}
		}
	}
	stop, err := StartProfiles("", "")
	if err != nil || stop(nil) != nil {
		t.Errorf("no profiles: start error %v", err)
	}
	if _, err := StartProfiles(filepath.Join(t.TempDir(), "no", "such", "dir"), ""); err == nil {
		t.Error("an uncreatable CPU profile path started")
	}
}
