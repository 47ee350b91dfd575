// Package mapcheck is the static map-state verifier (rclint): an abstract
// interpreter that symbolically executes the core.MapTable semantics — all
// four automatic-reset models (§2.3), single and combined connects (§2.2),
// and the CALL/RET home reset (§4.1) — over each lowered function's
// machine-code control-flow graph, joining map states at merge points.
//
// At every instruction it proves that
//
//	(a) each source operand's read map resolves to exactly the physical
//	    register the compiler intended (codegen.Annot.PA/PB),
//	(b) each destination's write map lands on the intended register
//	    (codegen.Annot.PDst), and
//	(c) no live connection crosses a call, return, or halt boundary: the
//	    hardware resets the table to home at CALL/RET, and trap handlers
//	    bypass it via the enable flag (§4.3), so a divert that is still
//	    unconsumed at such a site is provably wrong (or dead) code.
//
// The verifier is the static complement of the interpreter oracle: the
// oracle compares end-to-end results of one execution, while mapcheck
// proves the connect placement for *every* path of the compiled program,
// including paths the benchmark input never takes. It checks compiler
// output, so it also enforces the code generator's own invariants — only
// the reserved window registers are ever connect targets, connects route
// to the extended file, and combined connects appear only when the
// configuration enables them.
//
// Abstract domain (DESIGN.md §9): per register class, each map entry's
// read and write side holds either a known physical register or ⊤
// (unknown). Entry states join pointwise: equal values meet to themselves,
// different values to ⊤. Each diverted side additionally carries the
// program counter of the connect that diverted it until a dependent access
// consumes it; an unconsumed divert that is overwritten, auto-reset, or
// alive at a boundary is reported as a dead connect.
package mapcheck

import (
	"fmt"
	"sort"
	"strings"

	"regconn/internal/abi"
	"regconn/internal/codegen"
	"regconn/internal/core"
	"regconn/internal/isa"
	"regconn/internal/regalloc"
)

// Violation is one verifier finding, located to an exact instruction.
type Violation struct {
	Func  string // machine function name
	PC    int    // instruction index within the function
	Rule  string // rule identifier (see the Rule* constants)
	Msg   string // human-readable description
	Instr string // disassembly of the offending instruction
}

// Rule identifiers.
const (
	RuleReadMap     = "read-map"      // source resolves to the wrong/unknown register
	RuleWriteMap    = "write-map"     // destination lands on the wrong/unknown register
	RuleDeadConnect = "dead-connect"  // divert destroyed before any dependent access
	RuleIntent      = "intent"        // operand without a compiler intent annotation
	RuleGeometry    = "geometry"      // operand outside the table/file geometry
	RuleWindow      = "window"        // connect targets a non-window map entry
	RuleMode        = "mode"          // connect in a program compiled without RC
	RuleCombine     = "combine"       // combined connect with combining disabled
	RuleNoConfig    = "no-config"     // program carries no lowering configuration
	RuleBadTarget   = "branch-target" // branch target outside the function
	RuleChain       = "chain"         // chain-forwarding mark missing, spurious, or misplaced
)

func (v Violation) String() string {
	return fmt.Sprintf("%s+%d: [%s] %s  (%s)", v.Func, v.PC, v.Rule, v.Msg, v.Instr)
}

// Verify checks every function of the program under the configuration it
// was lowered with (MProg.Cfg) and returns all findings in function/pc
// order. A correct compilation yields an empty slice.
func Verify(mp *codegen.MProg) []Violation {
	var out []Violation
	if mp.Cfg.Conv == nil {
		return []Violation{{Func: mp.Entry, Rule: RuleNoConfig,
			Msg: "machine program carries no lowering configuration (MProg.Cfg unset)"}}
	}
	for _, f := range mp.Funcs {
		out = append(out, VerifyFunc(f, mp.Cfg)...)
	}
	return out
}

// Check is Verify with the findings folded into a single error (nil when
// the program verifies clean). At most eight findings are listed.
func Check(mp *codegen.MProg) error {
	vs := Verify(mp)
	if len(vs) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "mapcheck: %d violation(s):", len(vs))
	for i, v := range vs {
		if i == 8 {
			fmt.Fprintf(&sb, "\n  ... and %d more", len(vs)-i)
			break
		}
		sb.WriteString("\n  ")
		sb.WriteString(v.String())
	}
	return fmt.Errorf("%s", sb.String())
}

// VerifyFunc checks a single machine function.
func VerifyFunc(mf *codegen.MFunc, cfg codegen.Config) []Violation {
	v := &verifier{mf: mf, cfg: cfg}
	if cfg.Mode == regalloc.RC && !cfg.DirectExtended {
		v.runRC()
	} else {
		// Spill, Unlimited, and DirectExtended (portreduce) all address
		// physical registers directly: the identity check applies.
		v.runIdentity()
	}
	if cfg.Chain {
		v.runChain()
	}
	sort.SliceStable(v.out, func(i, j int) bool { return v.out[i].PC < v.out[j].PC })
	return v.out
}

// unknown is the ⊤ element of the per-entry value lattice.
const unknown = int32(-1)

// noDivert marks an entry side with no unconsumed connect.
const noDivert = int32(-1)

// tabState is the abstract state of one class's mapping table: the value
// each side of each entry resolves to (or unknown), plus the pc of the
// connect whose divert has not yet been consumed by a dependent access.
type tabState struct {
	read, write   []int32
	readC, writeC []int32
}

func newTabState(m int) *tabState {
	t := &tabState{
		read: make([]int32, m), write: make([]int32, m),
		readC: make([]int32, m), writeC: make([]int32, m),
	}
	t.reset()
	return t
}

// reset puts every entry at its home location (the CALL/RET/power-up state).
func (t *tabState) reset() {
	for i := range t.read {
		t.read[i] = int32(i)
		t.write[i] = int32(i)
		t.readC[i] = noDivert
		t.writeC[i] = noDivert
	}
}

func (t *tabState) clone() *tabState {
	c := &tabState{
		read:  append([]int32(nil), t.read...),
		write: append([]int32(nil), t.write...),
		readC: append([]int32(nil), t.readC...), writeC: append([]int32(nil), t.writeC...),
	}
	return c
}

// join merges o into t pointwise and reports whether t changed. Values
// meet to ⊤ when they differ; divert markers survive a join only when both
// sides agree (dropping a marker can only under-report dead connects,
// never produce a false positive).
func (t *tabState) join(o *tabState) bool {
	changed := false
	meet := func(a []int32, b []int32, bottom int32) {
		for i := range a {
			if a[i] != b[i] && a[i] != bottom {
				a[i] = bottom
				changed = true
			}
		}
	}
	// A differing value meets to unknown; a differing marker is dropped.
	for i := range t.read {
		if t.read[i] != o.read[i] && t.read[i] != unknown {
			t.read[i] = unknown
			changed = true
		}
		if t.write[i] != o.write[i] && t.write[i] != unknown {
			t.write[i] = unknown
			changed = true
		}
	}
	meet(t.readC, o.readC, noDivert)
	meet(t.writeC, o.writeC, noDivert)
	return changed
}

// state is the full abstract machine state: one table per register class.
type state struct {
	i, f *tabState
}

func (s *state) of(class isa.RegClass) *tabState {
	if class == isa.ClassFloat {
		return s.f
	}
	return s.i
}

func (s *state) clone() *state { return &state{i: s.i.clone(), f: s.f.clone()} }

func (s *state) join(o *state) bool {
	ci := s.i.join(o.i)
	cf := s.f.join(o.f)
	return ci || cf
}

func (s *state) reset() {
	s.i.reset()
	s.f.reset()
}

// verifier holds the per-function analysis.
type verifier struct {
	mf  *codegen.MFunc
	cfg codegen.Config
	out []Violation

	leader  []bool
	inState map[int]*state
	work    []int
}

func (v *verifier) reportf(pc int, rule, format string, args ...any) {
	v.out = append(v.out, Violation{
		Func: v.mf.Name, PC: pc, Rule: rule,
		Msg:   fmt.Sprintf(format, args...),
		Instr: v.mf.Code[pc].String(),
	})
}

func (v *verifier) conv(class isa.RegClass) *abi.Convention { return v.cfg.Conv.Of(class) }

// runIdentity verifies programs compiled without RC (Spill and Unlimited
// modes): the mapping table is identity over the whole file and the code
// must contain no connects, so every operand index must equal the
// annotated physical register directly.
func (v *verifier) runIdentity() {
	for pc := range v.mf.Code {
		in, ann := &v.mf.Code[pc], &v.mf.Ann[pc]
		m := in.Op.Meta()
		if m.Connect {
			v.reportf(pc, RuleMode, "connect instruction in a program compiled without RC")
			continue
		}
		check := func(slot string, idx int, want int32) {
			if want == codegen.NoPhys {
				v.reportf(pc, RuleIntent, "%s operand read without intent annotation", slot)
				return
			}
			if int32(idx) != want {
				v.reportf(pc, RuleReadMap,
					"%s operand addresses r/f%d but the compiler intended physical %d (identity mapping)",
					slot, idx, want)
			}
		}
		if in.ReadsA() {
			check("A", in.A.N, ann.PA)
		}
		if in.ReadsB() {
			check("B", in.B.N, ann.PB)
		}
		if in.Def().Valid() {
			if ann.PDst == codegen.NoPhys {
				v.reportf(pc, RuleIntent, "destination written without intent annotation")
			} else if int32(in.Dst.N) != ann.PDst {
				v.reportf(pc, RuleWriteMap,
					"destination addresses %v but the compiler intended physical %d (identity mapping)",
					in.Dst, ann.PDst)
			}
		}
	}
}

// runRC verifies a with-RC function: forward dataflow to a fixpoint over
// the instruction-level CFG, then one reporting pass per reachable block
// under the final entry states.
func (v *verifier) runRC() {
	n := len(v.mf.Code)
	if n == 0 {
		return
	}
	// Leaders: function entry, branch targets, and the instruction after
	// every terminator.
	v.leader = make([]bool, n)
	v.leader[0] = true
	for pc := range v.mf.Code {
		in := &v.mf.Code[pc]
		m := in.Op.Meta()
		if m.Branch {
			if in.Target >= 0 && in.Target < n {
				v.leader[in.Target] = true
			}
		}
		if m.Terminator && pc+1 < n {
			v.leader[pc+1] = true
		}
	}

	entry := &state{
		i: newTabState(v.cfg.Conv.Int.Core),
		f: newTabState(v.cfg.Conv.FP.Core),
	}
	v.inState = map[int]*state{0: entry}
	v.work = []int{0}
	for len(v.work) > 0 {
		pc := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		v.walk(pc, v.inState[pc].clone(), false)
	}

	// Reporting pass: each reachable block exactly once, in address order.
	blocks := make([]int, 0, len(v.inState))
	for pc := range v.inState {
		blocks = append(blocks, pc)
	}
	sort.Ints(blocks)
	for _, pc := range blocks {
		v.walk(pc, v.inState[pc].clone(), true)
	}
}

// flow propagates st into the block starting at target (fixpoint phase
// only); the reporting phase re-walks blocks from their final in-states
// and must not propagate again.
func (v *verifier) flow(target int, st *state, report bool) {
	if report {
		return
	}
	cur, ok := v.inState[target]
	if !ok {
		v.inState[target] = st.clone()
		v.work = append(v.work, target)
		return
	}
	if cur.join(st) {
		v.work = append(v.work, target)
	}
}

// walk interprets one basic block from pc under st, transferring state
// across each instruction and dispatching successors. With report set it
// additionally records violations (state transfer is identical in both
// phases, so the fixpoint and the reporting pass see the same states).
func (v *verifier) walk(pc int, st *state, report bool) {
	n := len(v.mf.Code)
	for ; pc < n; pc++ {
		in := &v.mf.Code[pc]
		m := in.Op.Meta()
		v.step(st, pc, report)
		switch {
		case m.Branch:
			if in.Target < 0 || in.Target >= n {
				if report {
					v.reportf(pc, RuleBadTarget, "branch target %d outside function [0,%d)", in.Target, n)
				}
			} else {
				v.flow(in.Target, st, report)
			}
			if !m.CondBranch {
				return // unconditional: no fallthrough
			}
		case in.Op == isa.RET, in.Op == isa.HALT:
			return
		}
		if pc+1 < n && v.leader[pc+1] {
			v.flow(pc+1, st, report)
			return
		}
	}
}

// step applies one instruction's checks and abstract-state transfer.
func (v *verifier) step(st *state, pc int, report bool) {
	in, ann := &v.mf.Code[pc], &v.mf.Ann[pc]
	m := in.Op.Meta()
	switch {
	case m.Connect:
		v.stepConnect(st, pc, report)
	case in.Op == isa.CALL:
		v.checkBoundary(st, pc, "call", report)
		st.reset() // hardware resets the table to home (§4.1)
	case in.Op == isa.RET:
		if in.A.Valid() {
			v.checkRead(st, pc, "A", in.A, ann.PA, report)
		}
		v.checkBoundary(st, pc, "return", report)
	case in.Op == isa.HALT:
		v.checkBoundary(st, pc, "halt", report)
	default:
		if in.ReadsA() {
			v.checkRead(st, pc, "A", in.A, ann.PA, report)
		}
		if in.ReadsB() {
			v.checkRead(st, pc, "B", in.B, ann.PB, report)
		}
		if in.Def().Valid() {
			v.stepWrite(st, pc, ann.PDst, report)
		}
	}
}

// stepConnect applies a connect instruction: operand validation plus the
// map-entry updates, in pair order.
func (v *verifier) stepConnect(st *state, pc int, report bool) {
	in := &v.mf.Code[pc]
	m := in.Op.Meta()
	if m.NPairs == 2 && !v.cfg.CombineConnects && report {
		v.reportf(pc, RuleCombine, "combined connect emitted with CombineConnects disabled")
	}
	cv := v.conv(in.CClass)
	ts := st.of(in.CClass)
	for k := 0; k < int(m.NPairs); k++ {
		idx, phys, def := int(in.CIdx[k]), int(in.CPhys[k]), m.PairDef[k]
		if idx >= cv.Core || phys >= cv.Total {
			if report {
				v.reportf(pc, RuleGeometry,
					"connect pair %d (%d -> %d) outside table geometry m=%d n=%d",
					k, idx, phys, cv.Core, cv.Total)
			}
			continue
		}
		if !isWindow(cv, idx) {
			if report {
				v.reportf(pc, RuleWindow,
					"connect targets map entry %d, which is not a reserved window (%v)",
					idx, cv.SpillTemps)
			}
		}
		if !cv.IsExtended(phys) && report {
			v.reportf(pc, RuleWindow,
				"connect routes map entry %d to core register %d; only the extended file is a valid connect target",
				idx, phys)
		}
		side, mark := ts.read, ts.readC
		if def {
			side, mark = ts.write, ts.writeC
		}
		if mark[idx] != noDivert && report {
			v.reportf(pc, RuleDeadConnect,
				"connect at pc %d diverted %s map entry %d but no dependent access ran before this overwrite",
				mark[idx], sideName(def), idx)
		}
		side[idx] = int32(phys)
		if phys != idx {
			mark[idx] = int32(pc)
		} else {
			mark[idx] = noDivert
		}
	}
}

// checkRead verifies one source operand against its intent annotation and
// consumes the entry's divert marker.
func (v *verifier) checkRead(st *state, pc int, slot string, r isa.Reg, want int32, report bool) {
	cv := v.conv(r.Class)
	if r.N < 0 || r.N >= cv.Core {
		if report {
			v.reportf(pc, RuleGeometry, "%s operand %v outside addressable range [0,%d)", slot, r, cv.Core)
		}
		return
	}
	ts := st.of(r.Class)
	if report {
		switch got := ts.read[r.N]; {
		case want == codegen.NoPhys:
			v.reportf(pc, RuleIntent, "%s operand %v read without intent annotation", slot, r)
		case got == unknown:
			v.reportf(pc, RuleReadMap,
				"%s operand %v reads through a map entry whose resolution is path-dependent (intended physical %d)",
				slot, r, want)
		case got != want:
			v.reportf(pc, RuleReadMap,
				"%s operand %v resolves to physical %d but the compiler intended %d",
				slot, r, got, want)
		}
	}
	ts.readC[r.N] = noDivert
}

// stepWrite verifies the destination operand and applies the automatic-
// reset side effect of the configured model (§2.3, mirrors
// core.MapTable.NoteWrite).
func (v *verifier) stepWrite(st *state, pc int, want int32, report bool) {
	in := &v.mf.Code[pc]
	d := in.Dst
	cv := v.conv(d.Class)
	if d.N < 0 || d.N >= cv.Core {
		if report {
			v.reportf(pc, RuleGeometry, "destination %v outside addressable range [0,%d)", d, cv.Core)
		}
		return
	}
	ts := st.of(d.Class)
	old := ts.write[d.N]
	if report {
		switch {
		case want == codegen.NoPhys:
			v.reportf(pc, RuleIntent, "destination %v written without intent annotation", d)
		case old == unknown:
			v.reportf(pc, RuleWriteMap,
				"destination %v writes through a map entry whose resolution is path-dependent (intended physical %d)",
				d, want)
		case old != want:
			v.reportf(pc, RuleWriteMap,
				"destination %v lands on physical %d but the compiler intended %d",
				d, old, want)
		}
	}
	ts.writeC[d.N] = noDivert
	home := int32(d.N)
	switch v.cfg.Model {
	case core.NoReset:
		// maps unchanged
	case core.WriteReset:
		ts.write[d.N] = home
	case core.WriteResetReadUpdate:
		if ts.readC[d.N] != noDivert && report {
			v.reportf(pc, RuleDeadConnect,
				"connect at pc %d diverted read map entry %d but the write here retargets it before any read",
				ts.readC[d.N], d.N)
		}
		ts.read[d.N] = old
		ts.readC[d.N] = noDivert
		ts.write[d.N] = home
	case core.ReadWriteReset:
		if ts.readC[d.N] != noDivert && report {
			v.reportf(pc, RuleDeadConnect,
				"connect at pc %d diverted read map entry %d but the write here resets it before any read",
				ts.readC[d.N], d.N)
		}
		ts.read[d.N] = home
		ts.readC[d.N] = noDivert
		ts.write[d.N] = home
	}
}

// checkBoundary enforces rule (c): the hardware destroys all connection
// state at calls and returns (home reset, §4.1), and nothing survives a
// halt, so any divert still unconsumed at such a site can never influence
// execution — the connect that created it is misplaced or dead.
func (v *verifier) checkBoundary(st *state, pc int, site string, report bool) {
	if !report {
		return
	}
	for _, class := range []isa.RegClass{isa.ClassInt, isa.ClassFloat} {
		ts := st.of(class)
		for i := range ts.readC {
			if ts.readC[i] != noDivert {
				v.reportf(pc, RuleDeadConnect,
					"connect at pc %d diverted %s read map entry %d but the divert reaches this %s unconsumed",
					ts.readC[i], class, i, site)
			}
			if ts.writeC[i] != noDivert {
				v.reportf(pc, RuleDeadConnect,
					"connect at pc %d diverted %s write map entry %d but the divert reaches this %s unconsumed",
					ts.writeC[i], class, i, site)
			}
		}
	}
}

func sideName(def bool) string {
	if def {
		return "write"
	}
	return "read"
}

// isWindow reports whether idx is one of the reserved connect windows
// (the spill temporaries double as windows in RC mode; codegen never
// connects any other entry, which is what keeps allocated core registers
// at home globally).
func isWindow(cv *abi.Convention, idx int) bool {
	for _, w := range cv.SpillTemps {
		if w == idx {
			return true
		}
	}
	return false
}
