package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewMapTableStartsAtHome(t *testing.T) {
	tab := NewMapTable(WriteResetReadUpdate, 8, 256)
	if !tab.AtHome() {
		t.Fatal("fresh table not at home")
	}
	for i := 0; i < 8; i++ {
		if tab.ReadPhys(i) != i || tab.WritePhys(i) != i {
			t.Errorf("index %d not at home", i)
		}
	}
	if tab.Core() != 8 || tab.Phys() != 256 {
		t.Errorf("geometry = %d/%d", tab.Core(), tab.Phys())
	}
}

func TestConnectUseDef(t *testing.T) {
	tab := NewMapTable(NoReset, 4, 12)
	tab.ConnectUse(2, 10)
	tab.ConnectDef(3, 7)
	if tab.ReadPhys(2) != 10 {
		t.Errorf("read map 2 = %d, want 10", tab.ReadPhys(2))
	}
	if tab.WritePhys(3) != 7 {
		t.Errorf("write map 3 = %d, want 7", tab.WritePhys(3))
	}
	// Paper Figure 2: connects redirect an add's operands.
	// connect_use ri2,rp10; connect_use ri3,rp7 (as def there);
	// reads via 2 go to 10, write via 3 goes to 7.
	if tab.ReadPhys(0) != 0 || tab.WritePhys(2) != 2 {
		t.Error("unrelated entries must stay at home")
	}
}

// TestModelSemantics encodes Figure 3 of the paper: the state of the map
// entry after "write via Rix" under each model, starting from
// read=a, write=b (both diverted).
func TestModelSemantics(t *testing.T) {
	const (
		idx  = 1
		a    = 9  // initial read map
		b    = 10 // initial write map
		home = idx
	)
	cases := []struct {
		model               Model
		wantRead, wantWrite int
	}{
		{NoReset, a, b},
		{WriteReset, a, home},
		{WriteResetReadUpdate, b, home},
		{ReadWriteReset, home, home},
	}
	for _, c := range cases {
		tab := NewMapTable(c.model, 4, 16)
		tab.ConnectUse(idx, a)
		tab.ConnectDef(idx, b)
		phys := tab.NoteWrite(idx)
		if phys != b {
			t.Errorf("%v: write went to %d, want %d", c.model, phys, b)
		}
		if got := tab.ReadPhys(idx); got != c.wantRead {
			t.Errorf("%v: read map after write = %d, want %d", c.model, got, c.wantRead)
		}
		if got := tab.WritePhys(idx); got != c.wantWrite {
			t.Errorf("%v: write map after write = %d, want %d", c.model, got, c.wantWrite)
		}
	}
}

// TestModel3PaperExample reproduces the code sequence of paper §3: after a
// connect-def and a write, reads see the written location without an extra
// connect-use.
func TestModel3PaperExample(t *testing.T) {
	tab := NewMapTable(WriteResetReadUpdate, 8, 256)
	// connect_use Ri6,Rp9 ; (1) Ri2 += Ri6
	tab.ConnectUse(6, 9)
	if tab.ReadPhys(6) != 9 {
		t.Fatal("Ri6 reads must reach Rp9")
	}
	tab.NoteWrite(2) // instruction 1 writes Ri2 (home)
	// connect_def Ri7,Rp10 ; (2) Ri7 = Ri3 + 1
	tab.ConnectDef(7, 10)
	if got := tab.WritePhys(7); got != 10 {
		t.Fatalf("Ri7 write map = %d, want 10", got)
	}
	tab.NoteWrite(7)
	// (3) Ri4 = Ri7 + Ri5: no connect-use needed — the read map of Ri7
	// was set to Rp10 by the write side effect.
	if got := tab.ReadPhys(7); got != 10 {
		t.Errorf("Ri7 read map after write = %d, want 10 (model 3 side effect)", got)
	}
	if got := tab.WritePhys(7); got != 7 {
		t.Errorf("Ri7 write map after write = %d, want home 7", got)
	}
}

func TestResetAndCALLSemantics(t *testing.T) {
	tab := NewMapTable(WriteResetReadUpdate, 8, 64)
	tab.ConnectUse(5, 30)
	tab.ConnectDef(6, 31)
	if tab.AtHome() {
		t.Fatal("table should be diverted")
	}
	tab.Reset() // jsr/rts behaviour, paper §4.1
	if !tab.AtHome() {
		t.Fatal("reset did not restore home mapping")
	}
}

func TestEnableFlagBypassesMap(t *testing.T) {
	tab := NewMapTable(WriteResetReadUpdate, 8, 64)
	tab.ConnectUse(3, 40)
	tab.SetEnabled(false) // trap entry, paper §4.3
	if tab.ReadPhys(3) != 3 {
		t.Error("disabled map must read core registers directly")
	}
	if tab.NoteWrite(3) != 3 {
		t.Error("disabled map must write core registers directly")
	}
	tab.SetEnabled(true) // return from exception restores the PSW
	if tab.ReadPhys(3) != 40 {
		t.Error("re-enabled map lost connection state")
	}
}

func TestContextSaveRestore(t *testing.T) {
	tab := NewMapTable(NoReset, 8, 64)
	tab.ConnectUse(2, 20)
	tab.ConnectDef(4, 21)
	ctx := tab.SaveContext()
	tab.Reset()
	tab.ConnectUse(2, 33)
	tab.RestoreContext(ctx)
	if tab.ReadPhys(2) != 20 || tab.WritePhys(4) != 21 {
		t.Error("context restore did not reproduce connection state")
	}
}

func TestGeometryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad model", func() { NewMapTable(Model(9), 8, 64) })
	mustPanic("n<m", func() { NewMapTable(NoReset, 8, 4) })
	mustPanic("m=0", func() { NewMapTable(NoReset, 0, 4) })
	tab := NewMapTable(NoReset, 8, 64)
	mustPanic("idx range", func() { tab.ReadPhys(8) })
	mustPanic("phys range", func() { tab.ConnectUse(0, 64) })
	mustPanic("ctx geometry", func() { tab.RestoreContext(Context{Read: make([]uint16, 4), Write: make([]uint16, 4)}) })
}

// TestMapAccessorsPanicOutOfRange: the per-operand lookups carry no
// explicit range check, so their map reads must bound them. An index at m
// or below zero panics in ReadPhys, WritePhys and NoteWrite with mapping
// enabled and disabled (the disabled path returns idx without needing the
// map entry), also on a table reinitialized to fewer entries than its
// slices hold.
func TestMapAccessorsPanicOutOfRange(t *testing.T) {
	shrunk := NewMapTable(WriteResetReadUpdate, 16, 64)
	shrunk.Reinit(WriteResetReadUpdate, 8, 64)
	for _, tab := range []*MapTable{NewMapTable(WriteResetReadUpdate, 8, 64), shrunk} {
		for _, enabled := range []bool{true, false} {
			tab.SetEnabled(enabled)
			for name, fn := range map[string]func(int) int{
				"ReadPhys": tab.ReadPhys, "WritePhys": tab.WritePhys, "NoteWrite": tab.NoteWrite,
			} {
				for _, idx := range []int{tab.Core(), -1} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("%s(%d) with mapping enabled=%v did not panic", name, idx, enabled)
							}
						}()
						fn(idx)
					}()
				}
				if got := fn(tab.Core() - 1); got != tab.Core()-1 {
					t.Errorf("%s(%d) = %d at home, want %d", name, tab.Core()-1, got, tab.Core()-1)
				}
			}
		}
	}
}

func TestRestoreContextBounds(t *testing.T) {
	// A context whose entries reference physical registers outside the
	// table's file must be rejected, not silently installed: once copied,
	// every lookup through the poisoned entry would index the register
	// file out of bounds.
	mustPanic := func(name string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: expected panic", name)
				return
			}
			if !strings.Contains(fmt.Sprint(r), "outside file") {
				t.Errorf("%s: panic message %q does not explain the bounds violation", name, r)
			}
		}()
		fn()
	}
	tab := NewMapTable(NoReset, 8, 64)
	good := tab.SaveContext()

	bad := Context{Read: append([]uint16(nil), good.Read...), Write: append([]uint16(nil), good.Write...)}
	bad.Read[3] = 64 // == n: first out-of-file register
	mustPanic("read entry out of file", func() { tab.RestoreContext(bad) })

	bad2 := Context{Read: append([]uint16(nil), good.Read...), Write: append([]uint16(nil), good.Write...)}
	bad2.Write[7] = 9999
	mustPanic("write entry out of file", func() { tab.RestoreContext(bad2) })

	// The rejected restores must not have modified the table.
	for i := 0; i < 8; i++ {
		if tab.ReadPhys(i) != i || tab.WritePhys(i) != i {
			t.Fatalf("rejected restore mutated the table at entry %d", i)
		}
	}
	// A context at the geometry boundary (phys n-1) is legal.
	ok := Context{Read: append([]uint16(nil), good.Read...), Write: append([]uint16(nil), good.Write...), Enabled: good.Enabled}
	ok.Read[2] = 63
	tab.RestoreContext(ok)
	if tab.ReadPhys(2) != 63 {
		t.Fatal("legal boundary context not restored")
	}
}

// Property: under any sequence of connects and writes, (1) every map entry
// stays within [0, n); (2) with the map disabled accesses are identity;
// (3) Reset always restores home; (4) upward compatibility — a trace with
// no connects on models 2-4 keeps the table at home forever (an original-
// architecture binary behaves as if there were no extended registers).
func TestQuickMapInvariants(t *testing.T) {
	f := func(seed int64, modelSel uint8, ops []uint8) bool {
		model := Model(modelSel%4 + 1)
		const m, n = 8, 64
		tab := NewMapTable(model, m, n)
		rng := rand.New(rand.NewSource(seed))
		for _, o := range ops {
			idx := rng.Intn(m)
			phys := rng.Intn(n)
			switch o % 3 {
			case 0:
				tab.ConnectUse(idx, phys)
			case 1:
				tab.ConnectDef(idx, phys)
			case 2:
				tab.NoteWrite(idx)
			}
			for i := 0; i < m; i++ {
				if r := tab.ReadPhys(i); r < 0 || r >= n {
					return false
				}
				if w := tab.WritePhys(i); w < 0 || w >= n {
					return false
				}
			}
		}
		tab.Reset()
		return tab.AtHome()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickUpwardCompatibility(t *testing.T) {
	// A binary compiled for the original architecture executes no connect
	// instructions; under every model, writes must keep all maps at home.
	f := func(writes []uint8) bool {
		for _, model := range []Model{NoReset, WriteReset, WriteResetReadUpdate, ReadWriteReset} {
			tab := NewMapTable(model, 8, 256)
			for _, w := range writes {
				idx := int(w) % 8
				if tab.NoteWrite(idx) != idx {
					return false
				}
				if !tab.AtHome() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestModelStrings(t *testing.T) {
	for _, m := range []Model{NoReset, WriteReset, WriteResetReadUpdate, ReadWriteReset} {
		if !m.Valid() {
			t.Errorf("%v invalid", m)
		}
		if m.String() == "" {
			t.Errorf("model %d has empty name", m)
		}
	}
	if Model(0).Valid() || Model(5).Valid() {
		t.Error("invalid models accepted")
	}
}

// TestPerIndexCounters drives a mixed mutation sequence and checks that the
// per-index breakdowns attribute every connect and auto-reset to the right
// map entry and sum exactly to the aggregate totals.
func TestPerIndexCounters(t *testing.T) {
	tab := NewMapTable(WriteResetReadUpdate, 4, 16)
	tab.ConnectUse(1, 9)
	tab.ConnectUse(1, 10)
	tab.ConnectDef(2, 11)
	tab.NoteWrite(2) // model 3: read<-11, write<-home (auto reset on idx 2)
	tab.NoteWrite(3) // at-home write: no map change, no auto reset
	tab.ConnectDef(0, 12)
	tab.NoteWrite(0)

	s := tab.Stats()
	if err := s.CheckIndexSums(); err != nil {
		t.Fatal(err)
	}
	wantUses := []int64{0, 2, 0, 0}
	wantDefs := []int64{1, 0, 1, 0}
	wantAuto := []int64{1, 0, 1, 0}
	for i := 0; i < 4; i++ {
		if s.ConnectUsesByIndex[i] != wantUses[i] {
			t.Errorf("uses[%d] = %d, want %d", i, s.ConnectUsesByIndex[i], wantUses[i])
		}
		if s.ConnectDefsByIndex[i] != wantDefs[i] {
			t.Errorf("defs[%d] = %d, want %d", i, s.ConnectDefsByIndex[i], wantDefs[i])
		}
		if s.AutoResetsByIndex[i] != wantAuto[i] {
			t.Errorf("auto[%d] = %d, want %d", i, s.AutoResetsByIndex[i], wantAuto[i])
		}
	}
}

// TestPerIndexCountersIdleExport checks that a table with no mutations of a
// class exports a nil breakdown for it (compact JSON) and that the random
// mutation mix of the quick invariants keeps sums exact.
func TestPerIndexCountersIdleExport(t *testing.T) {
	tab := NewMapTable(NoReset, 4, 8)
	if s := tab.Stats(); s.ConnectUsesByIndex != nil || s.ConnectDefsByIndex != nil || s.AutoResetsByIndex != nil {
		t.Fatal("idle table must export nil per-index breakdowns")
	}
	tab.ConnectUse(3, 7)
	s := tab.Stats()
	if s.ConnectUsesByIndex == nil || s.ConnectDefsByIndex != nil {
		t.Fatal("only the mutated class should export a breakdown")
	}
	if err := s.CheckIndexSums(); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	for _, model := range []Model{NoReset, WriteReset, WriteResetReadUpdate, ReadWriteReset} {
		tab := NewMapTable(model, 6, 24)
		for i := 0; i < 500; i++ {
			idx, phys := rng.Intn(6), rng.Intn(24)
			switch rng.Intn(4) {
			case 0:
				tab.ConnectUse(idx, phys)
			case 1:
				tab.ConnectDef(idx, phys)
			case 2:
				tab.NoteWrite(idx)
			case 3:
				tab.Reset()
			}
		}
		if err := tab.Stats().CheckIndexSums(); err != nil {
			t.Fatalf("model %v: %v", model, err)
		}
	}
}
