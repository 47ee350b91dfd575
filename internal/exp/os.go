package exp

import (
	"fmt"

	"regconn"
	"regconn/internal/bench"
)

// AblationPressure quantifies the paper's premise (§1): ILP optimization
// increases the register requirement. For each benchmark it reports the
// register demand of its 16-core RC build (Result.Demand: the most
// distinct registers plus spill slots of the benchmark's class that the
// allocator assigned in any one function) under scalar compilation and
// under ILP compilation for 2/4/8-issue targets.
func (r *Runner) AblationPressure() (*Table, error) {
	t := &Table{
		ID:    "pressure",
		Title: "Register demand (distinct registers allocated, benchmark's class) vs compilation level",
		Cols:  []string{"scalar", "ilp-2", "ilp-4", "ilp-8"},
		Notes: []string{"the paper's premise (§1): optimization and scheduling for wider issue raise the register requirement past small register files"},
	}
	return r.tabulate(t, false, r.sortedBench(), func(bm bench.Benchmark) []cell {
		// Every build allocates registers, so a zero demand is a result
		// that predates the field (a daemon's older store), not a value.
		// The points set Verify, which no figure's points do. The golden
		// ledger grid does: an integer benchmark's ilp-4 point is its
		// LedgerConfigs center-rc point.
		demandOf := func(col string, a regconn.Arch) cell {
			return cell{archFor(bm, 16, a), func(res *Result) (float64, error) {
				if res.Demand == 0 {
					return 0, fmt.Errorf("%s: no register demand recorded for its %s point", bm.Name, col)
				}
				return float64(res.Demand), nil
			}}
		}
		return []cell{
			demandOf("scalar", regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, ScalarOnly: true, Verify: true}),
			demandOf("ilp-2", regconn.Arch{Issue: 2, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, Verify: true}),
			demandOf("ilp-4", regconn.Arch{Issue: 4, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, Verify: true}),
			demandOf("ilp-8", regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, Verify: true}),
		}
	})
}

// AblationAccum measures accumulator variable expansion (an IMPACT
// transformation): speedup with and without it, at the paper's pressured
// operating point (16/32 cores) and with ample registers (unlimited). The
// tradeoff — more ILP for reduction chains vs. more live partials — is why
// expansion is opt-in.
func (r *Runner) AblationAccum() (*Table, error) {
	t := &Table{
		ID:    "accum",
		Title: "Accumulator expansion: speedup off/on at 16/32 cores (RC) and unlimited, 8-issue",
		Cols:  []string{"rc/off", "rc/on", "unl/off", "unl/on"},
		Notes: []string{"expansion raises reduction ILP but also register pressure; profitable only with registers to spare"},
	}
	return r.tabulate(t, true, r.sortedBench(), func(bm bench.Benchmark) []cell {
		core := core1632(bm)
		return speedups(
			archFor(bm, core, regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true}),
			archFor(bm, core, regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.WithRC, CombineConnects: true, ExpandAccumulators: true}),
			regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.Unlimited},
			regconn.Arch{Issue: 8, LoadLatency: 2, Mode: regconn.Unlimited, ExpandAccumulators: true},
		)
	})
}

// AblationOS quantifies the operating-system costs discussed in paper
// §4.2–4.3: what share of cycles goes to context switching under the
// PSW-flag policy vs. a conservative OS, and to interrupt handlers using
// the map-enable flag vs. naive per-register map bookkeeping.
func (r *Runner) AblationOS() (*Table, error) {
	t := &Table{
		ID:    "os",
		Title: "OS overhead %: context switches every 10k cycles; interrupts every 2k cycles",
		Cols:  []string{"sw/orig", "sw/rc", "sw/noflag", "trap/flag", "trap/naive"},
		Notes: []string{
			"sw/orig: original-architecture process, PSW flag on (core registers only, §4.2)",
			"sw/rc: RC process (core + extended + map state)",
			"sw/noflag: original-architecture process, conservative OS without the PSW flag",
			"trap/flag: handler uses the register-map enable bit (§4.3)",
			"trap/naive: handler saves/connects/restores a map entry per register",
		},
	}
	return r.tabulate(t, false, r.sortedBench(), func(bm bench.Benchmark) []cell {
		// overhead reads the share of cycles spent in trap handlers and
		// context switches; a point whose traps never fired measures nothing.
		overhead := func(a regconn.Arch) cell {
			return cell{a, func(res *Result) (float64, error) {
				if res.Stats.Traps == 0 {
					return 0, fmt.Errorf("%s: no traps fired", bm.Name)
				}
				return 100 * float64(res.Stats.Ledger.TrapOverhead) / float64(res.Cycles), nil
			}}
		}
		core := core1632(bm)
		rcArch := archFor(bm, core, regconn.Arch{Issue: 4, LoadLatency: 2,
			Mode: regconn.WithRC, CombineConnects: true})
		origArch := archFor(bm, core, regconn.Arch{Issue: 4, LoadLatency: 2,
			Mode: regconn.WithoutRC})

		mkSwitch := func(base regconn.Arch, pswFlag bool) cell {
			base.Trap = regconn.TrapConfig{Interval: 10000, ContextSwitch: true, PSWFlag: pswFlag}
			return overhead(base)
		}
		mkTrap := func(base regconn.Arch, flag bool) cell {
			base.Trap = regconn.TrapConfig{Interval: 2000, HandlerCycles: 30,
				HandlerRegs: 8, UseEnableFlag: flag}
			return overhead(base)
		}
		return []cell{
			mkSwitch(origArch, true),
			mkSwitch(rcArch, true),
			mkSwitch(origArch, false),
			mkTrap(rcArch, true),
			mkTrap(rcArch, false),
		}
	})
}
