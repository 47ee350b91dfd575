package backend

import (
	"regconn/internal/codegen"
	"regconn/internal/machine"
	"regconn/internal/regalloc"
	"regconn/internal/sched"
)

// baseCodegen fills the fields every lowering shares; Conv is the
// caller's.
func baseCodegen(p Params, mode regalloc.Mode) codegen.Config {
	return codegen.Config{
		Mode:            mode,
		Model:           p.Model,
		CombineConnects: p.CombineConnects,
		Windows:         p.Windows,
	}
}

// readPorts resolves the portreduce port count: the configured value or
// the issue rate, clamped to two so a two-source instruction can always
// issue.
func readPorts(p Params) int {
	n := p.ReadPorts
	if n == 0 {
		n = p.Issue
	}
	if n < 2 {
		n = 2
	}
	return n
}

// unlimitedBackend is the idealized machine: every virtual register gets
// its own physical register and the file grows to demand.
type unlimitedBackend struct{}

func (unlimitedBackend) ID() ID                   { return Unlimited }
func (unlimitedBackend) Name() string             { return "unlimited" }
func (unlimitedBackend) Display() string          { return "unlimited" }
func (unlimitedBackend) AllocMode() regalloc.Mode { return regalloc.Unlimited }
func (unlimitedBackend) UsesRC() bool             { return false }
func (unlimitedBackend) File(p Params) File {
	return File{IntTotal: p.TotalRegs, FPTotal: p.TotalRegs, GrowToDemand: true}
}
func (unlimitedBackend) Codegen(p Params) codegen.Config {
	return baseCodegen(p, regalloc.Unlimited)
}
func (unlimitedBackend) Sched(p Params, base sched.Config) sched.Config {
	base.UnlimitedMode = true
	return base
}
func (unlimitedBackend) Machine(p Params, base machine.Config) machine.Config {
	// The mapping table is identity over the whole file.
	base.IntCore = base.IntTotal
	base.FPCore = base.FPTotal
	return base
}
func (unlimitedBackend) Finish(mp *codegen.MProg, p Params) error { return nil }

// spillBackend is the conventional machine: core registers only, the rest
// spilled to the stack.
type spillBackend struct{}

func (spillBackend) ID() ID                   { return WithoutRC }
func (spillBackend) Name() string             { return "spill" }
func (spillBackend) Display() string          { return "without-RC" }
func (spillBackend) AllocMode() regalloc.Mode { return regalloc.Spill }
func (spillBackend) UsesRC() bool             { return false }
func (spillBackend) File(p Params) File {
	return File{IntTotal: p.IntCore, FPTotal: p.FPCore}
}
func (spillBackend) Codegen(p Params) codegen.Config {
	return baseCodegen(p, regalloc.Spill)
}
func (spillBackend) Sched(p Params, base sched.Config) sched.Config { return base }
func (spillBackend) Machine(p Params, base machine.Config) machine.Config {
	base.IntTotal, base.FPTotal = p.IntCore, p.FPCore
	return base
}
func (spillBackend) Finish(mp *codegen.MProg, p Params) error { return nil }

// rcBackend is the paper's register-connection machine: a core file
// extended through the mapping table by connect instructions.
type rcBackend struct{}

func (rcBackend) ID() ID                   { return WithRC }
func (rcBackend) Name() string             { return "rc" }
func (rcBackend) Display() string          { return "with-RC" }
func (rcBackend) AllocMode() regalloc.Mode { return regalloc.RC }
func (rcBackend) UsesRC() bool             { return true }
func (rcBackend) File(p Params) File {
	return File{IntTotal: p.TotalRegs, FPTotal: p.TotalRegs}
}
func (rcBackend) Codegen(p Params) codegen.Config {
	return baseCodegen(p, regalloc.RC)
}
func (rcBackend) Sched(p Params, base sched.Config) sched.Config       { return base }
func (rcBackend) Machine(p Params, base machine.Config) machine.Config { return base }
func (rcBackend) Finish(mp *codegen.MProg, p Params) error             { return nil }

// portReduceBackend exposes the whole file directly (no connects, no
// mapping table) but constrains issue by the number of register-file read
// ports, with operand-sharing credit: distinct registers read per cycle,
// not operand slots (arXiv 2502.00147).
type portReduceBackend struct{}

func (portReduceBackend) ID() ID                   { return PortReduce }
func (portReduceBackend) Name() string             { return "portreduce" }
func (portReduceBackend) Display() string          { return "portreduce" }
func (portReduceBackend) AllocMode() regalloc.Mode { return regalloc.RC }
func (portReduceBackend) UsesRC() bool             { return false }
func (portReduceBackend) File(p Params) File {
	return File{IntTotal: p.TotalRegs, FPTotal: p.TotalRegs}
}
func (portReduceBackend) Codegen(p Params) codegen.Config {
	cfg := baseCodegen(p, regalloc.RC)
	cfg.DirectExtended = true
	return cfg
}
func (portReduceBackend) Sched(p Params, base sched.Config) sched.Config {
	base.ReadPorts = readPorts(p)
	return base
}
func (portReduceBackend) Machine(p Params, base machine.Config) machine.Config {
	// Identity map over the whole file; the port count is the hazard.
	base.IntCore = base.IntTotal
	base.FPCore = base.FPTotal
	base.ReadPorts = readPorts(p)
	return base
}
func (portReduceBackend) Finish(mp *codegen.MProg, p Params) error { return nil }

// chainBackend forwards a single-use producer value straight to the next
// instruction, eliding the register-file write/read pair
// (arXiv 2503.20609). Allocation and lowering are the spill machine's; a
// post-schedule pass marks the forwardable pairs.
type chainBackend struct{}

func (chainBackend) ID() ID                   { return Chain }
func (chainBackend) Name() string             { return "chain" }
func (chainBackend) Display() string          { return "chain" }
func (chainBackend) AllocMode() regalloc.Mode { return regalloc.Spill }
func (chainBackend) UsesRC() bool             { return false }
func (chainBackend) File(p Params) File {
	return File{IntTotal: p.IntCore, FPTotal: p.FPCore}
}
func (chainBackend) Codegen(p Params) codegen.Config {
	cfg := baseCodegen(p, regalloc.Spill)
	cfg.Chain = true
	return cfg
}
func (chainBackend) Sched(p Params, base sched.Config) sched.Config { return base }
func (chainBackend) Machine(p Params, base machine.Config) machine.Config {
	base.IntTotal, base.FPTotal = p.IntCore, p.FPCore
	base.Chain = true
	return base
}
func (chainBackend) Finish(mp *codegen.MProg, p Params) error {
	for _, f := range mp.Funcs {
		codegen.MarkChains(f)
	}
	return nil
}
