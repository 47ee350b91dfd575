package sched

import (
	"slices"
	"sort"

	"regconn/internal/analysis"
	"regconn/internal/codegen"
	"regconn/internal/isa"
)

// Schedule list-schedules the machine function in place, region by region.
// A region is a maximal single-entry run of instructions: it starts at the
// function entry, at a branch-target label, or after an unconditional
// control transfer. Instructions never move across region boundaries, so
// all label addresses are preserved.
func Schedule(mf *codegen.MFunc, cfg Config) {
	n := len(mf.Code)
	if n <= 1 {
		return
	}
	if cfg.ReadPorts > 0 && cfg.ReadPorts < 2 {
		cfg.ReadPorts = 2 // a two-source instruction must always fit
	}
	ids := newPhysID(mf, cfg)
	liveAt := liveness(mf, ids, cfg)

	label := make([]bool, n+1)
	for i := range mf.Code {
		in := &mf.Code[i]
		if in.Op == isa.BR || in.Op.IsCondBranch() {
			label[in.Target] = true
		}
	}
	var sc scratch
	start := 0
	for i := 1; i <= n; i++ {
		boundary := i == n || label[i]
		if !boundary {
			switch mf.Code[i-1].Op {
			case isa.BR, isa.RET, isa.HALT:
				boundary = true
			}
		}
		if boundary {
			scheduleRegion(mf, start, i, ids, liveAt, cfg, &sc)
			start = i
		}
	}
}

// scratch is the working storage of scheduleRegion, reused by every
// region of one Schedule call: regions are scheduled one after another,
// and nothing of a region's outlives it.
type scratch struct {
	nodes     []node
	regs      []int  // every node's uses and defs
	edges     []edge // every node's successors
	order     []int
	scheduled []bool
	npredLeft []int
	ready     []int
	portStamp []int
	code      []isa.Instr
	ann       []codegen.Annot
}

// node is per-instruction dependence information within a region.
type node struct {
	uses, defs []int // dense phys ids
	mapR, mapW []int // dense map-entry resource ids
	isMem      bool
	isStore    bool
	isBranch   bool // conditional or unconditional branch
	predTaken  bool // branch predicted taken (no speculation above it)
	isBarrier  bool // call / ret / halt
	spec       bool // may speculate above a side-exit branch
	lat        int

	succs []edge
	npred int
	// list-scheduling state
	height int
	ready  int // earliest issue cycle permitted by scheduled predecessors
}

type edge struct {
	to  int
	lat int
}

// mapRes gives each mapping-table entry side a dense resource id.
func mapRes(class isa.RegClass, def bool, idx, maxCore int) int {
	c := 0
	if class == isa.ClassFloat {
		c = 1
	}
	s := 0
	if def {
		s = 1
	}
	return ((c*2)+s)*maxCore + idx
}

func intersects(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func scheduleRegion(mf *codegen.MFunc, start, end int, ids physID, liveAt map[int]analysis.BitSet, cfg Config, sc *scratch) {
	n := end - start
	if n <= 1 {
		return
	}
	maxCore := cfg.Conv.Int.Core
	if cfg.Conv.FP.Core > maxCore {
		maxCore = cfg.Conv.FP.Core
	}
	if mx := ids.nInt; mx > maxCore {
		maxCore = mx // Unlimited mode: indices range over the whole file
	}
	if mx := ids.nFP; mx > maxCore {
		maxCore = mx
	}

	nodes := slices.Grow(sc.nodes[:0], n)[:n]
	sc.nodes = nodes
	clear(nodes)
	// Each node's uses and defs are windows of one array; a window is
	// capped, so no append through it reaches the next. An array that
	// grows leaves the earlier windows on the old one, intact.
	regs := sc.regs[:0]
	for k := 0; k < n; k++ {
		i := start + k
		in, ann := &mf.Code[i], &mf.Ann[i]
		nd := &nodes[k]
		from := len(regs)
		regs = instrUses(in, ann, ids, cfg, regs)
		nd.uses = regs[from:len(regs):len(regs)]
		from = len(regs)
		regs = instrDefs(in, ann, ids, cfg, regs)
		nd.defs = regs[from:len(regs):len(regs)]
		nd.isMem = in.Op.IsMem()
		nd.isStore = in.Op.Kind() == isa.KindStore
		nd.isBranch = in.Op == isa.BR || in.Op.IsCondBranch()
		nd.predTaken = in.Op == isa.BR || (in.Op.IsCondBranch() && in.Pred)
		nd.isBarrier = in.Op == isa.CALL || in.Op == isa.RET || in.Op == isa.HALT
		nd.lat = cfg.Lat.Of(in.Op)

		// Map-entry resources.
		if in.Op.IsConnect() {
			for _, p := range in.ConnectPairs() {
				nd.mapW = append(nd.mapW, mapRes(in.CClass, p.Def, int(p.Idx), maxCore))
			}
		} else if !nd.isBarrier {
			addIdx := func(r isa.Reg, def bool) {
				if !r.Valid() {
					return
				}
				nd.mapR = append(nd.mapR, mapRes(r.Class, def, r.N, maxCore))
			}
			var buf [3]isa.Reg
			for _, u := range in.Uses(buf[:0]) {
				addIdx(u, false)
			}
			if d := in.Def(); d.Valid() {
				addIdx(d, true)
				// The automatic-reset side effect may rewrite both map
				// sides of the destination entry (conservative over all
				// four models).
				nd.mapW = append(nd.mapW,
					mapRes(d.Class, false, d.N, maxCore),
					mapRes(d.Class, true, d.N, maxCore))
			}
		}

		// Speculation class: restartable and side-effect free.
		switch in.Op {
		case isa.DIV, isa.REM: // may trap
			nd.spec = false
		default:
			nd.spec = !nd.isStore && !nd.isBranch && !nd.isBarrier && !in.Op.IsConnect()
		}
	}

	sc.regs = regs

	// Positions (region-relative) of defs per phys id, for the opaque-root
	// stability check in mayAlias, built by its first query: most regions
	// make none.
	var defPos map[int][]int
	hasDefBetween := func(phys int, i, j int) bool {
		if defPos == nil {
			defPos = map[int][]int{}
			for k := range nodes {
				for _, d := range nodes[k].defs {
					defPos[d] = append(defPos[d], k)
				}
			}
		}
		ps := defPos[phys]
		// any position strictly between i and j
		lo := sort.SearchInts(ps, i+1)
		return lo < len(ps) && ps[lo] < j
	}

	mayAlias := func(i, j int) bool {
		a, b := &mf.Ann[start+i], &mf.Ann[start+j]
		ka, kb := a.MemRootKind, b.MemRootKind
		if ka == codegen.RootUnknown || kb == codegen.RootUnknown {
			return true
		}
		if ka != kb {
			// Distinct object kinds never overlap except opaque, which
			// can point anywhere.
			return ka == codegen.RootOpaque || kb == codegen.RootOpaque
		}
		switch ka {
		case codegen.RootGlobal:
			if a.MemRoot != b.MemRoot {
				return false
			}
			return !(a.MemOffKnown && b.MemOffKnown && a.MemOff != b.MemOff)
		case codegen.RootStack:
			return !(a.MemOffKnown && b.MemOffKnown && a.MemOff != b.MemOff)
		case codegen.RootOpaque:
			if a.MemRoot != b.MemRoot || a.MemRootPhys != b.MemRootPhys ||
				a.MemRootPhys == codegen.NoPhys {
				return true
			}
			if !a.MemOffKnown || !b.MemOffKnown || a.MemOff == b.MemOff {
				return true
			}
			// Same root register, different offsets: independent only if
			// the root's value is unchanged between the two accesses.
			rootID := ids.id(isa.ClassInt, a.MemRootPhys)
			return hasDefBetween(rootID, i, j)
		}
		return true
	}

	// Each node's successors, in ascending order, are a window of an
	// array with room for every candidate, so no append copies: when the
	// array runs short, the next window starts a fresh one of twice the
	// size.
	edges := sc.edges[:0]
	addEdge := func(i, j, lat int) {
		edges = append(edges, edge{j, lat})
		nodes[j].npred++
	}
	for i := 0; i < n; i++ {
		ni := &nodes[i]
		if room := n - 1 - i; cap(edges)-len(edges) < room {
			edges = make([]edge, 0, max(2*cap(edges), room))
		}
		from := len(edges)
		for j := i + 1; j < n; j++ {
			nj := &nodes[j]
			// Barriers order against everything (and their clobber lists
			// are large, so skip the fine-grained checks).
			if ni.isBarrier || nj.isBarrier {
				addEdge(i, j, ni.lat)
				continue
			}
			lat := -1 // max over reasons; -1 = no edge
			need := func(l int) {
				if l > lat {
					lat = l
				}
			}
			// Register data dependences on resolved physical registers.
			if intersects(ni.defs, nj.uses) { // RAW
				need(ni.lat)
			}
			if intersects(ni.defs, nj.defs) { // WAW (scoreboard)
				need(ni.lat)
			}
			if intersects(ni.uses, nj.defs) { // WAR
				need(0)
			}
			// Mapping-table entry dependences.
			if intersects(ni.mapW, nj.mapR) || intersects(ni.mapW, nj.mapW) {
				l := 0
				if mf.Code[start+i].Op.IsConnect() {
					l = cfg.ConnectLatency
				}
				need(l)
			}
			if intersects(ni.mapR, nj.mapW) {
				need(0)
			}
			// Memory dependences.
			if ni.isMem && nj.isMem && (ni.isStore || nj.isStore) && mayAlias(i, j) {
				need(0)
			}
			// Control: nothing sinks below a branch...
			if nj.isBranch {
				need(0)
			}
			// ...and only safely-speculatable instructions hoist above
			// one, and only when the branch is predicted not-taken —
			// speculation follows the superblock trace, so code below a
			// predicted-taken branch (e.g. after a loop back edge) stays
			// put instead of executing every iteration.
			if ni.isBranch && lat < 0 {
				hoistable := nj.spec && !ni.predTaken
				if hoistable {
					target := mf.Code[start+i].Target
					if live, ok := liveAt[target]; ok {
						for _, d := range nj.defs {
							if live.Has(d) {
								hoistable = false
								break
							}
						}
					} else {
						hoistable = false
					}
				}
				if !hoistable {
					need(0)
				}
			}
			if lat >= 0 {
				addEdge(i, j, lat)
			}
		}
		ni.succs = edges[from:len(edges):len(edges)]
	}
	sc.edges = edges

	// Height (critical path) priority.
	for i := n - 1; i >= 0; i-- {
		h := 0
		for _, e := range nodes[i].succs {
			if x := nodes[e.to].height + maxOf(e.lat, 1); x > h {
				h = x
			}
		}
		nodes[i].height = h
	}

	// List scheduling.
	order := sc.order[:0]
	scheduled := slices.Grow(sc.scheduled[:0], n)[:n]
	clear(scheduled)
	npredLeft := slices.Grow(sc.npredLeft[:0], n)[:n]
	for i := range nodes {
		npredLeft[i] = nodes[i].npred
	}
	ready := sc.ready[:0]
	for i := range nodes {
		if npredLeft[i] == 0 {
			ready = append(ready, i)
		}
	}
	// Read-port tracking (portreduce): distinct registers read per cycle
	// and class, with operand-sharing credit. Barriers are exempt — their
	// use lists model calling-convention clobbers, not datapath reads.
	var portStamp []int
	portI, portF := 0, 0
	if cfg.ReadPorts > 0 {
		portStamp = slices.Grow(sc.portStamp[:0], ids.total())[:ids.total()]
		sc.portStamp = portStamp
		for i := range portStamp {
			portStamp[i] = -1
		}
	}
	cycle := 0
	portNeed := func(uses []int) (ni, nf int) {
		for k, u := range uses {
			if portStamp[u] == cycle {
				continue // already read this cycle: shared
			}
			dup := false
			for _, v := range uses[:k] {
				if v == u {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if u < ids.nInt {
				ni++
			} else {
				nf++
			}
		}
		return
	}
	portCommit := func(uses []int) {
		for _, u := range uses {
			if portStamp[u] == cycle {
				continue
			}
			portStamp[u] = cycle
			if u < ids.nInt {
				portI++
			} else {
				portF++
			}
		}
	}
	for len(order) < n {
		issued := 0
		memUsed := 0
		portI, portF = 0, 0
		branched := false
		for issued < cfg.Issue && !branched {
			// Pick the ready node with the greatest height whose ready
			// cycle has arrived and whose resources fit.
			best := -1
			for _, r := range ready {
				if scheduled[r] || nodes[r].ready > cycle {
					continue
				}
				if nodes[r].isMem && memUsed >= cfg.MemChannels {
					continue
				}
				if cfg.ReadPorts > 0 && !nodes[r].isBarrier {
					ni, nf := portNeed(nodes[r].uses)
					if portI+ni > cfg.ReadPorts || portF+nf > cfg.ReadPorts {
						continue
					}
				}
				if best == -1 || nodes[r].height > nodes[best].height ||
					(nodes[r].height == nodes[best].height && r < best) {
					best = r
				}
			}
			if best == -1 {
				break
			}
			scheduled[best] = true
			order = append(order, best)
			issued++
			if nodes[best].isMem {
				memUsed++
			}
			if cfg.ReadPorts > 0 && !nodes[best].isBarrier {
				portCommit(nodes[best].uses)
			}
			if nodes[best].isBranch || nodes[best].isBarrier {
				branched = true // close the issue group conservatively
			}
			for _, e := range nodes[best].succs {
				npredLeft[e.to]--
				if at := cycle + e.lat; at > nodes[e.to].ready {
					nodes[e.to].ready = at
				}
				if npredLeft[e.to] == 0 {
					ready = append(ready, e.to)
				}
			}
		}
		cycle++
	}

	// Rewrite the region in scheduled order.
	sc.order, sc.scheduled, sc.npredLeft, sc.ready = order, scheduled, npredLeft, ready
	newCode := slices.Grow(sc.code[:0], n)[:n]
	newAnn := slices.Grow(sc.ann[:0], n)[:n]
	sc.code, sc.ann = newCode, newAnn
	for pos, idx := range order {
		newCode[pos] = mf.Code[start+idx]
		newAnn[pos] = mf.Ann[start+idx]
	}
	copy(mf.Code[start:end], newCode)
	copy(mf.Ann[start:end], newAnn)
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}
