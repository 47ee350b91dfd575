// Package prof rolls the simulator's per-PC cycle attribution
// (machine.PCProf) up to the compiler's units of meaning — functions,
// basic blocks, and the virtual registers whose accesses forced connect
// traffic — and renders the rcprof reports. Collection happens inside the
// issue engine (internal/machine charges each cycle as the ledger accounts
// for it, and refuses a run whose per-PC columns do not sum to its ledger
// buckets); this package is pure analysis over a finished (Image, Result)
// pair.
package prof

import (
	"errors"
	"fmt"
	"sort"

	"regconn/internal/codegen"
	"regconn/internal/isa"
	"regconn/internal/machine"
)

// FuncSpan is one function's address range in the image.
type FuncSpan struct {
	Name       string
	Start, End int // [Start, End) in Image.Code
}

// Profile joins one run's per-PC attribution with the image's static
// metadata (function spans, per-instruction annotations).
type Profile struct {
	Img *machine.Image
	Res *machine.Result
	PC  *machine.PCProf

	funcs []FuncSpan      // address order
	ann   []codegen.Annot // aligned with Img.Code
}

// New builds a profile view over a run. The result must carry per-PC
// attribution (Arch.Profile, or a machine.PCProf as Config.Probe).
func New(img *machine.Image, res *machine.Result) (*Profile, error) {
	if img == nil || res == nil {
		return nil, errors.New("prof: nil image or result")
	}
	if res.Prof == nil {
		return nil, errors.New("prof: result carries no per-PC attribution (enable profiling)")
	}
	if res.Prof.Len() != len(img.Code) {
		return nil, fmt.Errorf("prof: attribution covers %d PCs, image has %d instructions",
			res.Prof.Len(), len(img.Code))
	}
	p := &Profile{Img: img, Res: res, PC: res.Prof}
	off := 0
	for _, f := range img.Prog.Funcs {
		if start := img.FuncStart[f.Name]; start != off {
			return nil, fmt.Errorf("prof: image layout mismatch: %q starts at %d, expected %d",
				f.Name, start, off)
		}
		if len(f.Ann) != len(f.Code) {
			return nil, fmt.Errorf("prof: %q has %d annotations for %d instructions",
				f.Name, len(f.Ann), len(f.Code))
		}
		p.funcs = append(p.funcs, FuncSpan{Name: f.Name, Start: off, End: off + len(f.Code)})
		p.ann = append(p.ann, f.Ann...)
		off += len(f.Code)
	}
	if off != len(img.Code) {
		return nil, fmt.Errorf("prof: functions cover %d instructions, image has %d", off, len(img.Code))
	}
	return p, nil
}

// FuncOf returns the function span containing pc.
func (p *Profile) FuncOf(pc int) FuncSpan {
	i := sort.Search(len(p.funcs), func(i int) bool { return p.funcs[i].End > pc })
	if i < len(p.funcs) && pc >= p.funcs[i].Start {
		return p.funcs[i]
	}
	return FuncSpan{Name: "?", Start: pc, End: pc + 1}
}

// Row is one aggregated report line: the attribution buckets summed over
// some set of PCs (a single PC, a basic block, a function, a vreg's
// connects).
type Row struct {
	Name   string
	PC     int   // representative pc (top-PC rows), -1 otherwise
	Instrs int64 // dynamic instructions (connect pairs for vreg rows)
	Cycles int64 // total attributed cycles (sum of the buckets below)

	Issue       int64 // issue cycles opened here
	StallData   int64
	StallMem    int64
	StallConn   int64
	StallBranch int64
	Trap        int64
	Halt        int64
}

// addPC accumulates one PC's attribution into the row.
func (p *Profile) addPC(r *Row, pc int) {
	r.Instrs += p.PC.Instrs[pc]
	r.Cycles += p.PC.CyclesAt(pc)
	r.Issue += p.PC.IssueCycles[pc]
	r.StallData += p.PC.StallData[pc]
	r.StallMem += p.PC.StallMem[pc]
	r.StallConn += p.PC.StallConn[pc]
	r.StallBranch += p.PC.StallBranch[pc]
	r.Trap += p.PC.TrapOverhead[pc]
	r.Halt += p.PC.Halt[pc]
}

// sortRows orders rows by attributed cycles (descending), breaking ties by
// name then pc so reports are deterministic.
func sortRows(rows []Row) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cycles != rows[j].Cycles {
			return rows[i].Cycles > rows[j].Cycles
		}
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].PC < rows[j].PC
	})
}

// TopPCs returns the n hottest static instructions by attributed cycles.
func (p *Profile) TopPCs(n int) []Row {
	var rows []Row
	for pc := range p.Img.Code {
		if p.PC.CyclesAt(pc) == 0 && p.PC.Instrs[pc] == 0 {
			continue
		}
		fs := p.FuncOf(pc)
		r := Row{Name: fmt.Sprintf("%s+%d", fs.Name, pc-fs.Start), PC: pc}
		p.addPC(&r, pc)
		rows = append(rows, r)
	}
	sortRows(rows)
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// Funcs returns per-function attribution totals, hottest first.
func (p *Profile) Funcs() []Row {
	var rows []Row
	for _, fs := range p.funcs {
		r := Row{Name: fs.Name, PC: -1}
		for pc := fs.Start; pc < fs.End; pc++ {
			p.addPC(&r, pc)
		}
		if r.Cycles == 0 && r.Instrs == 0 {
			continue
		}
		rows = append(rows, r)
	}
	sortRows(rows)
	return rows
}

// leaders marks the basic-block leaders of the image: function entries,
// branch targets, and the instruction after every terminator or call. The
// scheduler only reorders within these boundaries, so leaders derived from
// the final code are the blocks the machine actually executed.
func (p *Profile) leaders() []bool {
	lead := make([]bool, len(p.Img.Code))
	for _, fs := range p.funcs {
		if fs.Start < len(lead) {
			lead[fs.Start] = true
		}
	}
	for pc := range p.Img.Code {
		in := &p.Img.Code[pc]
		if in.Op == isa.BR || in.Op.IsCondBranch() {
			if in.Target >= 0 && in.Target < len(lead) {
				lead[in.Target] = true
			}
		}
		if (in.Op.IsTerminator() || in.Op == isa.CALL) && pc+1 < len(lead) {
			lead[pc+1] = true
		}
	}
	return lead
}

// Blocks returns the n hottest basic blocks by attributed cycles. Block
// names give the function plus the block's instruction offset range.
func (p *Profile) Blocks(n int) []Row {
	lead := p.leaders()
	var rows []Row
	for start := 0; start < len(lead); {
		end := start + 1
		for end < len(lead) && !lead[end] {
			end++
		}
		fs := p.FuncOf(start)
		r := Row{Name: fmt.Sprintf("%s+%d..%d", fs.Name, start-fs.Start, end-1-fs.Start), PC: start}
		for pc := start; pc < end; pc++ {
			p.addPC(&r, pc)
		}
		if r.Cycles != 0 || r.Instrs != 0 {
			rows = append(rows, r)
		}
		start = end
	}
	sortRows(rows)
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// ConnectOverhead sums the attribution over every connect instruction in
// the image plus the connect-interlock stalls they induced elsewhere —
// the run's total cycle cost of the register-connection mechanism as the
// profiler sees it.
func (p *Profile) ConnectOverhead() Row {
	r := Row{Name: "connects", PC: -1}
	for pc := range p.Img.Code {
		if p.Img.Code[pc].Op.IsConnect() {
			p.addPC(&r, pc)
		}
	}
	return r
}

// VRegs attributes connect traffic to the virtual registers that forced
// it, using the codegen debug info (Annot.CVReg). For a combined connect
// serving two vregs, the instruction's cycles are split between them (the
// first slot gets the odd cycle); pair counts are exact per slot. Connect
// pairs with no recorded vreg aggregate under "(unattributed)".
func (p *Profile) VRegs() []Row {
	acc := map[string]*Row{}
	charge := func(name string, pairs, cycles int64) {
		r, ok := acc[name]
		if !ok {
			r = &Row{Name: name, PC: -1}
			acc[name] = r
		}
		r.Instrs += pairs
		r.Cycles += cycles
	}
	for pc := range p.Img.Code {
		in := &p.Img.Code[pc]
		if !in.Op.IsConnect() {
			continue
		}
		pairs := p.PC.Instrs[pc]
		cycles := p.PC.CyclesAt(pc)
		if pairs == 0 && cycles == 0 {
			continue
		}
		fs := p.FuncOf(pc)
		prefix := "r"
		if in.CClass == isa.ClassFloat {
			prefix = "f"
		}
		name := func(slot int) string {
			v := p.ann[pc].CVReg[slot]
			if v == codegen.NoVReg {
				return "(unattributed)"
			}
			return fmt.Sprintf("%s/%s%d", fs.Name, prefix, v)
		}
		if in.Op == isa.CONUU || in.Op == isa.CONDU || in.Op == isa.CONDD {
			charge(name(0), pairs, (cycles+1)/2)
			charge(name(1), pairs, cycles/2)
		} else {
			charge(name(0), pairs, cycles)
		}
	}
	rows := make([]Row, 0, len(acc))
	for _, r := range acc {
		rows = append(rows, *r)
	}
	sortRows(rows)
	return rows
}
