package machine

// Machine-readable statistics export: a flattened, JSON-tagged view of a
// Result for tooling (rcrun -stats, rcexp -stats, rcbench). Stats carries
// plain data only — no memory image — so it can be marshalled, diffed
// across runs, and folded into benchmark reports.

import (
	"regconn/internal/core"
	"regconn/internal/isa"
)

// Ledger is the per-bucket cycle attribution of one simulation. The
// buckets partition ActiveCycles exactly; Result.CheckLedger enforces the
// invariant (see DESIGN.md §8 for the attribution semantics).
type Ledger struct {
	Issued       int64 `json:"issued"`                // cycles issuing >= 1 instruction
	StallData    int64 `json:"stall_data"`            // operand not ready
	StallMem     int64 `json:"stall_mem"`             // memory channels exhausted
	StallConnect int64 `json:"stall_connect"`         // connect-latency interlock
	StallPorts   int64 `json:"stall_ports,omitempty"` // read ports exhausted (portreduce)
	StallBranch  int64 `json:"stall_branch"`          // mispredict refill penalty
	TrapOverhead int64 `json:"trap_overhead"`         // handlers / context switches
	Halt         int64 `json:"halt"`                  // final HALT fetch with no issue
	Total        int64 `json:"total"`                 // sum of the above == ActiveCycles
}

// Stats is the machine-readable summary of one simulation.
type Stats struct {
	Cycles       int64            `json:"cycles"`
	ActiveCycles int64            `json:"active_cycles"`
	Instrs       int64            `json:"instrs"`
	IPC          float64          `json:"ipc"`
	Connects     int64            `json:"connects"`
	MemOps       int64            `json:"mem_ops"`
	Mispredicts  int64            `json:"mispredicts"`
	Traps        int64            `json:"traps"`
	Ledger       Ledger           `json:"ledger"`
	IssueHist    []int64          `json:"issue_hist"`
	MapInt       core.Stats       `json:"map_int"`
	MapFP        core.Stats       `json:"map_fp"`
	OpMix        map[string]int64 `json:"op_mix"`

	// Chain-forwarding telemetry (the chain backend; zero elsewhere).
	ChainPairs       int64 `json:"chain_pairs,omitempty"`
	ChainElidedReads int64 `json:"chain_elided_reads,omitempty"`

	// PortLimitedCycles counts issue cycles cut short by the read-port
	// limit (the portreduce backend; zero elsewhere).
	PortLimitedCycles int64 `json:"port_limited_cycles,omitempty"`
}

// Stats flattens the result into its export form.
func (r *Result) Stats() Stats {
	led := Ledger{
		StallData:    r.StallData,
		StallMem:     r.StallMem,
		StallConnect: r.StallConn,
		StallPorts:   r.StallPorts,
		StallBranch:  r.StallBranch,
		TrapOverhead: r.TrapOverheads,
		Halt:         r.HaltCycles,
	}
	for k, c := range r.IssueHist {
		if k > 0 {
			led.Issued += c
		}
	}
	led.Total = led.Issued + led.StallData + led.StallMem + led.StallConnect +
		led.StallPorts + led.StallBranch + led.TrapOverhead + led.Halt
	mix := make(map[string]int64)
	for k, n := range r.OpMix {
		if n != 0 {
			mix[isa.Kind(k).String()] = n
		}
	}
	return Stats{
		Cycles:       r.Cycles,
		ActiveCycles: r.ActiveCycles,
		Instrs:       r.Instrs,
		IPC:          r.IPC(),
		Connects:     r.Connects,
		MemOps:       r.MemOps,
		Mispredicts:  r.Mispredicts,
		Traps:        r.Traps,
		Ledger:       led,
		IssueHist:    append([]int64(nil), r.IssueHist...),
		// Deep-copied: on an arena-owned Result the breakdown slices alias
		// scratch the next Reset overwrites, and Stats must outlive it.
		MapInt:            r.MapInt.Clone(),
		MapFP:             r.MapFP.Clone(),
		OpMix:             mix,
		ChainPairs:        r.ChainPairs,
		ChainElidedReads:  r.ChainElidedReads,
		PortLimitedCycles: r.PortLimitedCycles,
	}
}
