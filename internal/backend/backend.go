// Package backend defines the register-architecture seam of the pipeline.
// A Backend owns every per-scheme decision that used to be a switch on the
// three-way register mode smeared across regconn.Build, the register
// allocator, the code generator, the scheduler, the simulator, and the
// static verifier: how the register file is shaped, which allocation
// strategy runs, how lowering annotates the code, what structural
// constraints the scheduler and the machine model enforce, and what
// contract mapcheck verifies.
//
// The set of backends is closed: one table, indexed by ID, holds the five.
// The public regconn package resolves an Arch to a Backend through it,
// and the CLI layer derives its accepted-name set (and error messages)
// from the same table, so tool validation cannot drift from the set.
package backend

import (
	"fmt"
	"sort"
	"strings"

	"regconn/internal/codegen"
	"regconn/internal/core"
	"regconn/internal/machine"
	"regconn/internal/regalloc"
	"regconn/internal/sched"
)

// TotalRegs is the full physical register file size under the extended
// schemes (paper §5.2: "the register file is assumed to contain a total of
// 256 registers").
const TotalRegs = 256

// ID is the numeric identity of a backend. The first three values are the
// legacy RegMode enum and must keep their order: serialized Arch values
// (rcserve canonical point keys) and every published experiment identify
// configurations by these numbers.
type ID uint8

const (
	// Unlimited gives every virtual register its own physical register
	// (the paper's idealized dotted lines and the 1-issue baseline).
	Unlimited ID = iota
	// WithoutRC uses only the core registers and spills the rest.
	WithoutRC
	// WithRC extends the core with connect-accessed extended registers
	// for a 256-register total file (paper §5.2).
	WithRC
	// PortReduce exposes the whole 256-register file directly but models
	// a reduced number of register-file read ports as an issue-stage
	// structural hazard with operand-sharing credit (arXiv 2502.00147).
	PortReduce
	// Chain forwards single-use producer values straight to the next
	// instruction, eliding the register-file write/read pair
	// (arXiv 2503.20609).
	Chain
)

// String renders the backend's display name, driven by the table so it
// cannot drift from the backend set. Unknown values render as
// "RegMode(n)" rather than a sentinel.
func (m ID) String() string {
	if be, err := ByID(m); err == nil {
		return be.Display()
	}
	return fmt.Sprintf("RegMode(%d)", uint8(m))
}

// Params is the architecture slice a backend's hooks consume: the knobs
// that shape the register file and the scheme-specific machinery, already
// normalized by the caller.
type Params struct {
	Issue   int
	IntCore int
	FPCore  int

	// TotalRegs is the full file size available to extending schemes
	// (the paper's 256).
	TotalRegs int

	Model           core.Model
	ConnectLatency  int
	CombineConnects bool
	Windows         codegen.WindowPolicy

	// ReadPorts is the register-file read-port count for the portreduce
	// backend (0 = default to the issue rate).
	ReadPorts int
}

// File is a backend's register-file shaping decision: the total counts fed
// to abi.New alongside the architecture's core counts.
type File struct {
	IntTotal int
	FPTotal  int

	// GrowToDemand marks the idealized file: after allocation the machine
	// totals shrink (or grow) to the program's actual demand, clamped to
	// the core counts.
	GrowToDemand bool
}

// Backend is one register-architecture scheme. Hooks are called in
// pipeline order: File → AllocMode → Codegen → Sched → Finish → Machine.
type Backend interface {
	// ID returns the scheme's numeric identity (the RegMode value).
	ID() ID
	// Name returns the registry/CLI key ("rc", "spill", "unlimited",
	// "portreduce", "chain").
	Name() string
	// Display returns the human-readable name used in reports and stats
	// output ("with-RC", "without-RC", ...).
	Display() string

	// File shapes the register file handed to abi.New.
	File(p Params) File
	// AllocMode selects the register-allocation strategy.
	AllocMode() regalloc.Mode
	// Codegen returns the lowering configuration. The caller fills Conv.
	Codegen(p Params) codegen.Config
	// Sched adjusts the scheduler configuration (base carries the
	// machine-independent fields already filled by the caller).
	Sched(p Params, base sched.Config) sched.Config
	// Machine adjusts the simulator configuration (base carries the
	// architecture-independent fields already filled by the caller,
	// including the post-allocation register totals).
	Machine(p Params, base machine.Config) machine.Config
	// Finish runs after scheduling (and also when scheduling is
	// disabled), before static verification — the hook for post-schedule
	// annotation passes such as chain marking.
	Finish(mp *codegen.MProg, p Params) error
	// UsesRC reports whether the scheme carries RC mapping-table state
	// that the operating-system model must save and restore (§4.2).
	UsesRC() bool
}

// all is the backend table, indexed by ID (modes.go defines the five).
var all = [...]Backend{
	Unlimited:  unlimitedBackend{},
	WithoutRC:  spillBackend{},
	WithRC:     rcBackend{},
	PortReduce: portReduceBackend{},
	Chain:      chainBackend{},
}

// ByName resolves a backend by its name. The error lists the names so
// callers can surface it directly.
func ByName(name string) (Backend, error) {
	for _, be := range all {
		if be.Name() == name {
			return be, nil
		}
	}
	return nil, fmt.Errorf("unknown mode %q (want %s)", name, NameList())
}

// ByID resolves a backend by its numeric identity.
func ByID(id ID) (Backend, error) {
	if int(id) < len(all) {
		return all[id], nil
	}
	return nil, fmt.Errorf("unknown register mode %d (want %s)", uint8(id), NameList())
}

// Names returns the backend names, sorted.
func Names() []string {
	names := make([]string, len(all))
	for i, be := range all {
		names[i] = be.Name()
	}
	sort.Strings(names)
	return names
}

// NameList renders the names as an "a, b, or c" list for error messages
// and usage strings.
func NameList() string {
	names := Names()
	return strings.Join(names[:len(names)-1], ", ") + ", or " + names[len(names)-1]
}
