// Package core implements the paper's primary contribution: the register
// mapping table that realizes Register Connection (RC).
//
// The base architecture addresses m registers per class; the extended
// architecture provides n > m physical registers. Every register operand is
// an index into an m-entry mapping table whose entries each hold a *read
// map* and a *write map* (paper §2.1): source operands are redirected
// through the read map, destinations through the write map. The connect
// instructions (§2.2) rewrite map entries; the four automatic-reset models
// (§2.3, Figure 3) additionally adjust the maps as a side effect of every
// register write. CALL/RET reset the table to home locations (§4.1), and an
// enable flag lets trap handlers bypass the table entirely (§4.3).
package core

import "fmt"

// Model selects one of the four automatic register-connection models of
// paper §2.3 (Figure 3). All models alter only the mapping entry of the
// destination index, and only as a side effect of a register write.
type Model uint8

const (
	// NoReset (model 1): the mapping table changes only via explicit
	// connect instructions.
	NoReset Model = iota + 1

	// WriteReset (model 2): after a write through index i, the write map
	// of i resets to the home location. Reading the written value still
	// requires an explicit connect-use.
	WriteReset

	// WriteResetReadUpdate (model 3, the model evaluated in the paper):
	// after a write through index i, the read map of i is set to the old
	// write map (so subsequent reads see the written value) and the write
	// map resets to the home location.
	WriteResetReadUpdate

	// ReadWriteReset (model 4): after a write through index i, both maps
	// of i reset to the home location.
	ReadWriteReset
)

func (m Model) String() string {
	switch m {
	case NoReset:
		return "no-reset"
	case WriteReset:
		return "write-reset"
	case WriteResetReadUpdate:
		return "write-reset+read-update"
	case ReadWriteReset:
		return "read/write-reset"
	}
	return fmt.Sprintf("model(%d)", uint8(m))
}

// Valid reports whether m is one of the four defined models.
func (m Model) Valid() bool { return m >= NoReset && m <= ReadWriteReset }

// Stats is the telemetry of one mapping table: how often each observable
// mutation class occurred over the table's lifetime. Counters describe the
// physical table, not the process using it, so they accumulate across
// context save/restore. GenAdvances is the number of generation-counter
// advances (observable mapping changes) since construction.
//
// The per-index slices break the connect/auto-reset totals down by map
// entry (length m, index = map entry); they are nil when the table saw no
// mutation of that class, so idle tables export compactly. Each slice sums
// to its total counter (enforced by CheckIndexSums and the unit tests).
type Stats struct {
	ConnectUses int64 `json:"connect_uses"` // explicit connect-use instructions
	ConnectDefs int64 `json:"connect_defs"` // explicit connect-def instructions
	AutoResets  int64 `json:"auto_resets"`  // NoteWrite side effects that changed a map entry
	Resets      int64 `json:"resets"`       // Reset calls that found a diverted table
	Restores    int64 `json:"restores"`     // context restores
	GenAdvances int64 `json:"gen_advances"` // observable mapping changes

	ConnectUsesByIndex []int64 `json:"connect_uses_by_index,omitempty"`
	ConnectDefsByIndex []int64 `json:"connect_defs_by_index,omitempty"`
	AutoResetsByIndex  []int64 `json:"auto_resets_by_index,omitempty"`
}

// CheckIndexSums verifies that each per-index breakdown sums exactly to its
// total counter (a nil breakdown stands for all-zero and requires a zero
// total).
func (s Stats) CheckIndexSums() error {
	check := func(name string, total int64, byIdx []int64) error {
		var sum int64
		for _, c := range byIdx {
			sum += c
		}
		if sum != total {
			return fmt.Errorf("core: per-index %s sum %d does not match total %d", name, sum, total)
		}
		return nil
	}
	if err := check("connect-use", s.ConnectUses, s.ConnectUsesByIndex); err != nil {
		return err
	}
	if err := check("connect-def", s.ConnectDefs, s.ConnectDefsByIndex); err != nil {
		return err
	}
	return check("auto-reset", s.AutoResets, s.AutoResetsByIndex)
}

// MapTable is the register mapping table for one register class. The zero
// value is not usable; construct with NewMapTable.
type MapTable struct {
	model   Model
	m       int // addressable indices (core registers)
	n       int // physical registers, n >= m
	read    []uint16
	write   []uint16
	enabled bool
	stats   Stats

	// Per-map-index mutation counters (length m), feeding the Stats
	// breakdowns. Kept separate from stats so the aggregate struct stays
	// cheap to copy.
	usesByIdx []int64
	defsByIdx []int64
	autoByIdx []int64

	// gen counts observable mapping changes: it advances only when a map
	// entry actually changes value, a diverted table resets, a context is
	// restored, or the enable flag flips. It feeds Stats.GenAdvances, and
	// NoteWrite counts an automatic reset only when it moved gen. off
	// tracks how many map slots are away from their home location, making
	// Reset free when nothing is diverted.
	gen uint64
	off int
}

// MaxRegs bounds a register file: map entries hold 16-bit physical
// register numbers, so a table accepts 1 <= m <= n <= MaxRegs.
const MaxRegs = 1 << 16

// NewMapTable returns a table with m addressable indices over n physical
// registers, all entries at their home locations, mapping enabled, using
// the given automatic-reset model. It panics if the geometry is invalid:
// the table is hardware, and a malformed machine is a programming error.
func NewMapTable(model Model, m, n int) *MapTable {
	t := &MapTable{}
	t.Reinit(model, m, n)
	return t
}

// Reinit reinitializes the table in place to exactly the state
// NewMapTable(model, m, n) constructs — all entries at home, mapping
// enabled, generation 1, telemetry zeroed — reusing the existing slice
// capacity when it suffices. It is the allocation-free reset of the
// simulator's run arenas (machine.Machine); like NewMapTable it panics on
// invalid geometry.
func (t *MapTable) Reinit(model Model, m, n int) {
	if !model.Valid() {
		panic(fmt.Sprintf("core: invalid model %d", model))
	}
	if m <= 0 || n < m || n > MaxRegs {
		panic(fmt.Sprintf("core: invalid geometry m=%d n=%d", m, n))
	}
	t.model, t.m, t.n = model, m, n
	t.read = growSlice(t.read, m)
	t.write = growSlice(t.write, m)
	t.usesByIdx = growSlice(t.usesByIdx, m)
	t.defsByIdx = growSlice(t.defsByIdx, m)
	t.autoByIdx = growSlice(t.autoByIdx, m)
	clear(t.usesByIdx)
	clear(t.defsByIdx)
	clear(t.autoByIdx)
	for i := range t.read {
		t.read[i] = uint16(i)
		t.write[i] = uint16(i)
	}
	t.enabled = true
	t.stats = Stats{}
	t.gen = 1
	t.off = 0
}

// growSlice returns s resized to length n, reusing its backing array when
// the capacity allows (contents are then stale — callers reinitialize).
func growSlice[E uint16 | int64](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// Stats returns the table's accumulated mutation telemetry. The per-index
// breakdowns are copied snapshots and are nil when their total is zero.
func (t *MapTable) Stats() Stats {
	s := t.stats
	s.GenAdvances = int64(t.gen - 1) // gen starts at 1
	if s.ConnectUses > 0 {
		s.ConnectUsesByIndex = append([]int64(nil), t.usesByIdx...)
	}
	if s.ConnectDefs > 0 {
		s.ConnectDefsByIndex = append([]int64(nil), t.defsByIdx...)
	}
	if s.AutoResets > 0 {
		s.AutoResetsByIndex = append([]int64(nil), t.autoByIdx...)
	}
	return s
}

// StatsInto writes the table's telemetry into dst, reusing dst's existing
// breakdown slices when their capacity suffices — the allocation-free
// variant of Stats for the simulator's run arenas. The result is
// value-identical to Stats(): breakdowns are nil when their total is zero.
// dst's breakdowns must not alias another table's live counters.
func (t *MapTable) StatsInto(dst *Stats) {
	uses, defs, auto := dst.ConnectUsesByIndex, dst.ConnectDefsByIndex, dst.AutoResetsByIndex
	*dst = t.stats
	dst.GenAdvances = int64(t.gen - 1) // gen starts at 1
	dst.ConnectUsesByIndex, dst.ConnectDefsByIndex, dst.AutoResetsByIndex = nil, nil, nil
	if dst.ConnectUses > 0 {
		dst.ConnectUsesByIndex = append(uses[:0], t.usesByIdx...)
	}
	if dst.ConnectDefs > 0 {
		dst.ConnectDefsByIndex = append(defs[:0], t.defsByIdx...)
	}
	if dst.AutoResets > 0 {
		dst.AutoResetsByIndex = append(auto[:0], t.autoByIdx...)
	}
}

// Clone returns a deep copy of the stats: the breakdown slices are copied,
// so the clone stays valid after the source (possibly an arena-owned
// scratch) is overwritten by a later run.
func (s Stats) Clone() Stats {
	if s.ConnectUsesByIndex != nil {
		s.ConnectUsesByIndex = append([]int64(nil), s.ConnectUsesByIndex...)
	}
	if s.ConnectDefsByIndex != nil {
		s.ConnectDefsByIndex = append([]int64(nil), s.ConnectDefsByIndex...)
	}
	if s.AutoResetsByIndex != nil {
		s.AutoResetsByIndex = append([]int64(nil), s.AutoResetsByIndex...)
	}
	return s
}

// setRead and setWrite route every map mutation through one place so the
// generation counter and off-home count stay exact.
func (t *MapTable) setRead(idx int, phys uint16) {
	old := t.read[idx]
	if old == phys {
		return
	}
	home := uint16(idx)
	if old == home {
		t.off++
	} else if phys == home {
		t.off--
	}
	t.read[idx] = phys
	t.gen++
}

func (t *MapTable) setWrite(idx int, phys uint16) {
	old := t.write[idx]
	if old == phys {
		return
	}
	home := uint16(idx)
	if old == home {
		t.off++
	} else if phys == home {
		t.off--
	}
	t.write[idx] = phys
	t.gen++
}

// Model returns the automatic-reset model the table was built with.
func (t *MapTable) Model() Model { return t.model }

// Core returns m, the number of addressable indices (core registers).
func (t *MapTable) Core() int { return t.m }

// Phys returns n, the total number of physical registers.
func (t *MapTable) Phys() int { return t.n }

// Reset restores every entry to its home location (read i -> i,
// write i -> i). Hardware performs this at power-up and on CALL/RET
// (paper §4.1). A table already at home resets for free and does not
// advance the generation counter.
func (t *MapTable) Reset() {
	if t.off == 0 {
		return
	}
	for i := range t.read {
		t.read[i] = uint16(i)
		t.write[i] = uint16(i)
	}
	t.off = 0
	t.gen++
	t.stats.Resets++
}

// Enabled reports whether mapping is enabled. When disabled (trap/interrupt
// entry, §4.3), all accesses go directly to the core registers.
func (t *MapTable) Enabled() bool { return t.enabled }

// SetEnabled sets the register-map enable flag of the processor status word.
func (t *MapTable) SetEnabled(on bool) {
	if t.enabled != on {
		t.enabled = on
		t.gen++
	}
}

// ConnectUse sets the read map of idx to phys: all subsequent reads through
// idx are redirected to phys (connect-use, §2.2).
func (t *MapTable) ConnectUse(idx, phys int) {
	t.check(idx, phys)
	t.setRead(idx, uint16(phys))
	t.stats.ConnectUses++
	t.usesByIdx[idx]++
}

// ConnectDef sets the write map of idx to phys: all subsequent writes
// through idx are redirected to phys (connect-def, §2.2).
func (t *MapTable) ConnectDef(idx, phys int) {
	t.check(idx, phys)
	t.setWrite(idx, uint16(phys))
	t.stats.ConnectDefs++
	t.defsByIdx[idx]++
}

// ReadPhys, WritePhys and NoteWrite are the simulator's per-operand
// lookups, kept small enough to inline. Each reads its map entry before
// anything else, so an index outside [0, m) panics through the slice's
// bounds check whether mapping is enabled or not; the simulator admits
// only in-range indices (machine.Check).

// ReadPhys returns the physical register accessed when idx is used as a
// source operand.
func (t *MapTable) ReadPhys(idx int) int {
	p := t.read[idx]
	if !t.enabled {
		return idx
	}
	return int(p)
}

// WritePhys returns the physical register accessed when idx is used as a
// destination operand. It does not apply the automatic reset; call
// NoteWrite once the write has architecturally happened.
func (t *MapTable) WritePhys(idx int) int {
	p := t.write[idx]
	if !t.enabled {
		return idx
	}
	return int(p)
}

// NoteWrite applies the automatic-reset side effect of a completed register
// write through idx, per the table's model (§2.3). It returns the physical
// register the write went to. An entry whose maps are both at home is left
// as it is by every model, so such a write returns at once.
func (t *MapTable) NoteWrite(idx int) int {
	home := uint16(idx)
	if w := t.write[idx]; !t.enabled || w == home && t.read[idx] == home {
		return idx
	}
	return t.autoReset(idx)
}

// autoReset is NoteWrite's model step for an enabled entry away from home.
func (t *MapTable) autoReset(idx int) int {
	phys := t.write[idx]
	before := t.gen
	switch t.model {
	case NoReset:
		// maps unchanged
	case WriteReset:
		t.setWrite(idx, uint16(idx))
	case WriteResetReadUpdate:
		t.setRead(idx, phys)
		t.setWrite(idx, uint16(idx))
	case ReadWriteReset:
		t.setRead(idx, uint16(idx))
		t.setWrite(idx, uint16(idx))
	}
	if t.gen != before {
		t.stats.AutoResets++
		t.autoByIdx[idx]++
	}
	return int(phys)
}

// ReadMap and WriteMap return copies of the current maps (for context
// switching, §4.2, and for tests).
func (t *MapTable) ReadMap() []uint16  { return append([]uint16(nil), t.read...) }
func (t *MapTable) WriteMap() []uint16 { return append([]uint16(nil), t.write...) }

// AtHome reports whether every entry of both maps is at its home location.
func (t *MapTable) AtHome() bool { return t.off == 0 }

// Context is the saved connection state of one mapping table, the extra
// process state an RC-aware operating system preserves across context
// switches (paper §4.2).
type Context struct {
	Read, Write []uint16
	Enabled     bool
}

// SaveContext captures the connection state.
func (t *MapTable) SaveContext() Context {
	return Context{Read: t.ReadMap(), Write: t.WriteMap(), Enabled: t.enabled}
}

// SaveContextInto captures the connection state into c, reusing its slices
// when their capacity suffices — the allocation-free SaveContext used on
// the simulator's trap path, which saves and restores every interrupt.
func (t *MapTable) SaveContextInto(c *Context) {
	c.Read = append(c.Read[:0], t.read...)
	c.Write = append(c.Write[:0], t.write...)
	c.Enabled = t.enabled
}

// HomeContext returns the connection state of a freshly constructed
// m-entry table: both maps at their home locations, mapping enabled. It is
// the initial PCB state of a multiprogrammed process, built without
// constructing a throwaway table.
func HomeContext(m int) Context {
	c := Context{Read: make([]uint16, m), Write: make([]uint16, m), Enabled: true}
	for i := range c.Read {
		c.Read[i] = uint16(i)
		c.Write[i] = uint16(i)
	}
	return c
}

// RestoreContext restores connection state saved by SaveContext. It panics
// if the context geometry does not match the table, or if any entry
// references a physical register outside the table's file — a corrupted or
// foreign context must not be silently installed (every map lookup after
// an unchecked copy would index the register file out of bounds).
func (t *MapTable) RestoreContext(c Context) {
	if len(c.Read) != t.m || len(c.Write) != t.m {
		panic(fmt.Sprintf("core: context geometry %d/%d does not match table m=%d",
			len(c.Read), len(c.Write), t.m))
	}
	for i := 0; i < t.m; i++ {
		if int(c.Read[i]) >= t.n {
			panic(fmt.Sprintf("core: context read map entry %d references physical register %d outside file [0,%d)",
				i, c.Read[i], t.n))
		}
		if int(c.Write[i]) >= t.n {
			panic(fmt.Sprintf("core: context write map entry %d references physical register %d outside file [0,%d)",
				i, c.Write[i], t.n))
		}
	}
	copy(t.read, c.Read)
	copy(t.write, c.Write)
	t.enabled = c.Enabled
	t.stats.Restores++
	t.off = 0
	for i := range t.read {
		if t.read[i] != uint16(i) {
			t.off++
		}
		if t.write[i] != uint16(i) {
			t.off++
		}
	}
	t.gen++
}

func (t *MapTable) checkIdx(idx int) {
	if idx < 0 || idx >= t.m {
		panic(fmt.Sprintf("core: map index %d out of range [0,%d)", idx, t.m))
	}
}

func (t *MapTable) check(idx, phys int) {
	t.checkIdx(idx)
	if phys < 0 || phys >= t.n {
		panic(fmt.Sprintf("core: physical register %d out of range [0,%d)", phys, t.n))
	}
}
