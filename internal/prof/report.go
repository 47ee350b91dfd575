package prof

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// pct formats x as a percentage of total (0 when total is 0).
func pct(x, total int64) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(x)/float64(total))
}

// WriteReport renders the full text report: a ledger summary, the topN
// hottest PCs and basic blocks, the per-function stall table, and the
// connect-overhead-by-vreg table. The output is deterministic for a
// deterministic run (golden-tested).
func (p *Profile) WriteReport(w io.Writer, topN int) error {
	if err := p.CrossCheck(); err != nil {
		return fmt.Errorf("prof: refusing to report unverified attribution: %w", err)
	}
	r := p.Res
	var issueCycles int64
	for k, c := range r.IssueHist {
		if k > 0 {
			issueCycles += c
		}
	}
	total := r.ActiveCycles

	fmt.Fprintf(w, "attribution profile: %d cycles, %d instrs, ipc %.3f\n",
		r.ActiveCycles, r.Instrs, float64(r.Instrs)/float64(maxI64(r.ActiveCycles, 1)))
	fmt.Fprintf(w, "  issue %d (%s)  stall-data %d (%s)  stall-mem %d (%s)  stall-conn %d (%s)\n",
		issueCycles, pct(issueCycles, total),
		r.StallData, pct(r.StallData, total),
		r.StallMem, pct(r.StallMem, total),
		r.StallConn, pct(r.StallConn, total))
	fmt.Fprintf(w, "  stall-branch %d (%s)  trap %d (%s)  halt %d\n",
		r.StallBranch, pct(r.StallBranch, total),
		r.TrapOverheads, pct(r.TrapOverheads, total), r.HaltCycles)
	co := p.ConnectOverhead()
	fmt.Fprintf(w, "  connect overhead: %d connects, %d cycles (%s of run)\n",
		r.Connects, co.Cycles, pct(co.Cycles, total))

	fmt.Fprintf(w, "\ntop %d PCs by attributed cycles:\n", topN)
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  pc\tcycles\t%%\tinstrs\twhere\tinstruction\n")
	for _, row := range p.TopPCs(topN) {
		fmt.Fprintf(tw, "  %d\t%d\t%s\t%d\t%s\t%s\n",
			row.PC, row.Cycles, pct(row.Cycles, total), row.Instrs, row.Name,
			p.Img.Code[row.PC].String())
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\ntop %d basic blocks:\n", topN)
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  block\tcycles\t%%\tinstrs\n")
	for _, row := range p.Blocks(topN) {
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%d\n", row.Name, row.Cycles, pct(row.Cycles, total), row.Instrs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nfunctions:\n")
	tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "  func\tcycles\t%%\tinstrs\tissue\tdata\tmem\tconn\tbranch\ttrap\n")
	for _, row := range p.Funcs() {
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Name, row.Cycles, pct(row.Cycles, total), row.Instrs,
			row.Issue, row.StallData, row.StallMem, row.StallConn, row.StallBranch, row.Trap)
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	if vr := p.VRegs(); len(vr) > 0 {
		fmt.Fprintf(w, "\nconnect overhead by virtual register:\n")
		tw = tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "  vreg\tpairs\tcycles\n")
		for _, row := range vr {
			fmt.Fprintf(tw, "  %s\t%d\t%d\n", row.Name, row.Instrs, row.Cycles)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
	}
	return nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
