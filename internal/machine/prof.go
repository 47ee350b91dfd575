package machine

// Per-PC cycle attribution (the rcprof collection layer). A PCProf
// attached as Config.Probe charges every cycle the aggregate ledger
// (Result.CheckLedger) accounts for to one static instruction:
//
//   - each issued instruction charges Instrs at its own PC, and the first
//     instruction to issue in a cycle additionally charges IssueCycles
//     (so issue cycles are owned by the instruction that opened them);
//   - a zero-issue stall cycle charges StallData/StallMem/StallConn at the
//     PC of the instruction that failed to issue;
//   - a mispredict's front-end refill penalty charges StallBranch at the
//     mispredicted branch's PC;
//   - trap/context-switch overhead charges TrapOverhead at the PC that was
//     about to issue when the interrupt fired;
//   - the final no-issue HALT fetch charges Halt at the HALT's PC.
//
// CheckAgainst proves the per-PC columns sum bit-exactly back to the
// ledger buckets, so attribution can never silently drift from PR 2's
// accounting (see DESIGN.md §10).

import (
	"errors"
	"fmt"
)

// PCProf is the per-static-instruction attribution of one simulation. All
// slices are indexed by absolute instruction address (Image.Code index).
// Attach one (the zero value will do) as Config.Probe of a single-process
// run: Reset sizes and zeroes it, and the result exports it as Result.Prof.
type PCProf struct {
	Instrs       []int64 // dynamic instructions issued at this PC
	IssueCycles  []int64 // issue cycles opened by this PC (first issuer)
	StallData    []int64 // operand-not-ready stall cycles blocked here
	StallMem     []int64 // memory-channel stall cycles blocked here
	StallConn    []int64 // connect-interlock stall cycles blocked here
	StallBranch  []int64 // mispredict penalty cycles caused by this branch
	TrapOverhead []int64 // interrupt overhead charged at the resume PC
	Halt         []int64 // final no-issue HALT fetch cycle
}

// reset sizes every column to n instructions, all zero.
func (p *PCProf) reset(n int) {
	for _, col := range []*[]int64{&p.Instrs, &p.IssueCycles, &p.StallData, &p.StallMem,
		&p.StallConn, &p.StallBranch, &p.TrapOverhead, &p.Halt} {
		*col = zeroed(*col, n)
	}
}

// Event charges one pipeline event to its PC (the Probe method).
func (p *PCProf) Event(e Event) {
	switch e.Kind {
	case EvIssue:
		p.Instrs[e.PC]++
		if e.Slot == 0 {
			// The cycle's issue slot time is owned by the instruction
			// that opened it.
			p.IssueCycles[e.PC]++
		}
	case EvStall:
		switch stallReason(e.Arg) {
		case stallData:
			p.StallData[e.PC]++
		case stallMem:
			p.StallMem[e.PC]++
		case stallConn:
			p.StallConn[e.PC]++
		}
	case EvMispredict:
		p.StallBranch[e.PC] += e.Dur
	case EvTrap:
		p.TrapOverhead[e.PC] += e.Dur
	case EvHalt:
		if e.Slot == 0 {
			p.Halt[e.PC]++
		}
	}
}

// Len returns the number of static instructions covered.
func (p *PCProf) Len() int { return len(p.Instrs) }

// CyclesAt returns the total cycles attributed to one PC (every bucket the
// ledger partitions ActiveCycles into).
func (p *PCProf) CyclesAt(pc int) int64 {
	return p.IssueCycles[pc] + p.StallData[pc] + p.StallMem[pc] + p.StallConn[pc] +
		p.StallBranch[pc] + p.TrapOverhead[pc] + p.Halt[pc]
}

// sum totals one attribution column.
func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// CheckAgainst verifies that every per-PC attribution column sums exactly
// to its aggregate ledger bucket in r: issued instructions to the issue
// histogram's instruction count, issue cycles to the histogram's non-zero
// cycles, each stall column to its stall counter, branch penalties to
// StallBranch, trap overhead to TrapOverheads, and halt to HaltCycles.
// Together with Result.CheckLedger this proves per-PC attribution is a
// partition refinement of ActiveCycles.
func (p *PCProf) CheckAgainst(r *Result) error {
	if r.IssueHist == nil {
		return errors.New("machine: result has no issue histogram")
	}
	var histCycles, histInstrs int64
	for k, c := range r.IssueHist {
		if k > 0 {
			histCycles += c
		}
		histInstrs += int64(k) * c
	}
	checks := []struct {
		name      string
		col       []int64
		wantTotal int64
	}{
		{"instrs", p.Instrs, histInstrs},
		{"issue-cycles", p.IssueCycles, histCycles},
		{"stall-data", p.StallData, r.StallData},
		{"stall-mem", p.StallMem, r.StallMem},
		{"stall-connect", p.StallConn, r.StallConn},
		{"stall-branch", p.StallBranch, r.StallBranch},
		{"trap-overhead", p.TrapOverhead, r.TrapOverheads},
		{"halt", p.Halt, r.HaltCycles},
	}
	for _, c := range checks {
		if got := sum(c.col); got != c.wantTotal {
			return fmt.Errorf("machine: per-PC %s attribution sums to %d, ledger bucket has %d",
				c.name, got, c.wantTotal)
		}
	}
	return nil
}
