package machine

import (
	"regconn/internal/codegen"
	"regconn/internal/isa"
)

// Predecode stage of the simulator pipeline: the image's instructions are
// lowered once per run into micro-ops (uops) whose register slots, connect
// pairs, classification flags, and result latencies are pre-extracted.
// Issue (issue.go) and execute (exec.go) then run entirely off this form —
// the per-cycle hot path consults no operand schema and allocates nothing.

// uop is one predecoded micro-op, 56 bytes. Its register slots hold map
// indices: A and B are the registers the instruction reads (unused when
// the opcode reads none there or B is an immediate), Dst the register it
// writes (unused when it writes none). Issue resolves A and B through the
// read maps once and hands the physical registers to execute.
type uop struct {
	Op     isa.Op
	Kind   isa.Kind
	Mem    bool // occupies a memory channel
	UseImm bool // the second source is Imm, not B

	A, B, Dst slot

	Pred   bool // static prediction: branch taken
	NPair  uint8
	CClass isa.RegClass

	// Chain-forwarding marks (Config.Chain). chainOut marks a producer
	// whose result forwards to the next instruction; chainA and chainB
	// mark the consumer's source slots served by the forward (their
	// readiness interlock is skipped); chainDst marks a consumer that
	// overwrites the forwarded register (its WAW interlock against the
	// elided producer write is skipped).
	chainOut, chainA, chainB, chainDst bool

	Target int32
	Pair   [2]isa.ConnectPair // connect operands
	Imm    int64              // immediate, displacement, MOVI constant, FMOVI bits
	lat    int64              // cycles until a dependent instruction may issue
}

// slot is a micro-op's register operand: its class (isa.ClassNone when
// the slot is unused) and map index. Check admits only indices inside a
// map of at most core.MaxRegs entries, so every index fits.
type slot struct {
	class isa.RegClass
	n     uint16
}

// slotOf is r as a micro-op slot.
func slotOf(r isa.Reg) slot { return slot{r.Class, uint16(r.N)} }

func (r slot) valid() bool { return r.class != isa.ClassNone }

// pairs returns the connect operands without allocating.
func (u *uop) pairs() []isa.ConnectPair { return u.Pair[:u.NPair] }

// predecode lowers machine code to micro-ops under the run's latency
// configuration. With chain enabled, the per-instruction annotations'
// forwarding marks are resolved against the operand registers (under the
// chain backend instructions carry physical register numbers directly).
func predecode(code []isa.Instr, ann []codegen.Annot, chain bool, lat isa.Latencies) []uop {
	return predecodeInto(nil, code, ann, chain, lat)
}

// predecodeInto is predecode over a reused micro-op slice: dst's backing
// array is kept when its capacity suffices (the run-arena path), and every
// element is fully rewritten so no mark from a previous lowering survives.
// Machine-level code carries no CALL arguments (Check rejects them), so an
// instruction reads at most its A and B slots.
func predecodeInto(dst []uop, code []isa.Instr, ann []codegen.Annot, chain bool, lat isa.Latencies) []uop {
	us := grown(dst, len(code))
	for i := range code {
		in := &code[i]
		m := in.Op.Meta()
		u := &us[i]
		*u = uop{Op: in.Op, Kind: m.Kind, Mem: m.Mem, UseImm: in.UseImm, Dst: slotOf(in.Def()),
			Pred: in.Pred, NPair: m.NPairs, CClass: in.CClass, Target: int32(in.Target),
			Imm: in.Imm, lat: int64(lat.Of(in.Op))}
		if in.ReadsA() {
			u.A = slotOf(in.A)
		}
		if in.ReadsB() {
			u.B = slotOf(in.B)
		}
		for k := 0; k < int(m.NPairs); k++ {
			u.Pair[k] = isa.ConnectPair{Idx: in.CIdx[k], Phys: in.CPhys[k], Def: m.PairDef[k]}
		}
		if !chain || i >= len(ann) {
			continue
		}
		a := &ann[i]
		u.chainOut = a.ChainOut
		// A slot forwards when it names the annotated operand register.
		fwd := func(r isa.Reg) bool {
			return r.Class == isa.ClassInt && (a.ChainA && r == in.A || a.ChainB && r == in.B)
		}
		u.chainA = u.A.valid() && fwd(in.A)
		u.chainB = u.B.valid() && fwd(in.B)
		u.chainDst = fwd(in.Def())
	}
	return us
}
