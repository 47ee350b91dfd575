package mem

import (
	"runtime"
	"testing"
	"testing/quick"

	"regconn/internal/ir"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(1 << 16)
	m.StoreI(8, 42)
	if m.LoadI(8) != 42 {
		t.Fatal("int round trip failed")
	}
	m.StoreF(16, 3.25)
	if m.LoadF(16) != 3.25 {
		t.Fatal("float round trip failed")
	}
	if m.Size() != 1<<16 || m.StackTop() != 1<<16 {
		t.Fatal("size/stacktop wrong")
	}
}

func TestFaults(t *testing.T) {
	m := New(1 << 12)
	for _, addr := range []int64{-8, 1 << 12, 12 /* unaligned */} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("addr %d: expected fault", addr)
				} else if _, ok := r.(*Fault); !ok {
					t.Errorf("addr %d: panic type %T", addr, r)
				}
			}()
			m.LoadI(addr)
		}()
	}
	f := &Fault{Addr: 12, Reason: "unaligned access"}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func TestLayoutAndImage(t *testing.T) {
	p := ir.NewProgram()
	a := p.AddGlobal("a", 16)
	a.InitI = []int64{5, 6}
	b := p.AddGlobal("b", 8)
	b.InitF = []float64{2.5}
	l := ComputeLayout(p)
	if l["a"] != GlobalBase || l["b"] != GlobalBase+16 {
		t.Fatalf("layout = %v", l)
	}
	if l.DataEnd(p) != GlobalBase+24 {
		t.Fatalf("data end = %d", l.DataEnd(p))
	}
	m := InitImage(p, l, 1<<16)
	if m.LoadI(l["a"]) != 5 || m.LoadI(l["a"]+8) != 6 {
		t.Error("int init wrong")
	}
	if m.LoadF(l["b"]) != 2.5 {
		t.Error("float init wrong")
	}
}

// faults reports whether f panics with a *Fault.
func faults(f func()) (ok bool) {
	defer func() {
		_, ok = recover().(*Fault)
	}()
	f()
	return false
}

// allocBytes returns the heap bytes one call of f allocates, averaged over
// runs calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// checkZero fails the test unless every word of m reads 0.
func checkZero(t *testing.T, m *Memory) {
	t.Helper()
	for addr := int64(0); addr < m.Size(); addr += 8 {
		if v := m.LoadI(addr); v != 0 {
			t.Fatalf("word %#x reads %d, want 0", addr, v)
		}
	}
}

func TestQuickMemoryIsLastWriteWins(t *testing.T) {
	// Three full pages and a partial fourth, so the size is not a page
	// multiple; every run also stores to the image's last word.
	const size = 3<<pageShift + 5000
	f := func(writes []struct {
		Slot uint32
		Val  int64
	}, last int64) bool {
		m := New(size)
		words := m.Size() / 8
		want := map[int64]int64{}
		store := func(addr, v int64) {
			m.StoreI(addr, v)
			want[addr] = v
		}
		for _, w := range writes {
			store(int64(w.Slot)%words*8, w.Val)
		}
		store(m.Size()-8, last)
		for _, addr := range []int64{m.Size(), -8, 12, m.Size() - 4} {
			if !faults(func() { m.StoreI(addr, 1) }) || !faults(func() { m.LoadI(addr) }) {
				return false
			}
		}
		for addr := int64(0); addr < m.Size(); addr += 8 {
			if m.LoadI(addr) != want[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewAllocatesOnlyDirectory pins the sparse image: a default-size
// memory costs its page directory, not 16 MiB, and loads from pages never
// stored to read 0 without allocating one.
func TestNewAllocatesOnlyDirectory(t *testing.T) {
	var m *Memory
	if n := allocBytes(20, func() { m = New(DefaultSize) }); n >= 8<<10 {
		t.Fatalf("New(DefaultSize) allocates %d bytes, want under 8 KiB", n)
	}
	if n := testing.AllocsPerRun(5, func() { checkZero(t, m) }); n != 0 {
		t.Fatalf("loads from never-stored pages allocate %.0f times per pass", n)
	}
}

// TestResetZeroesAndKeepsPages pins the arena contract: after Reset every
// word reads 0 again, and repeating the same stores reuses the pages they
// allocated the first time.
func TestResetZeroesAndKeepsPages(t *testing.T) {
	m := New(DefaultSize)
	addrs := []int64{GlobalBase, GlobalBase + 8, 5 << pageShift, m.StackTop() - 8}
	store := func() {
		for i, a := range addrs {
			m.StoreI(a, int64(i+1))
		}
	}
	store()
	m.Reset()
	checkZero(t, m)
	if n := testing.AllocsPerRun(10, func() {
		store()
		m.Reset()
	}); n != 0 {
		t.Fatalf("stores after Reset allocate %.0f times per run, want 0", n)
	}
}

// TestReinitResizes pins Reinit to another size: the memory behaves like
// New(size), with that size's bounds and no data from before.
func TestReinitResizes(t *testing.T) {
	m := New(1 << 16)
	m.StoreI(8, 5)
	const size = 2<<pageShift + 24
	m.Reinit(size)
	fresh := New(size)
	if m.Size() != fresh.Size() || m.StackTop() != fresh.StackTop() {
		t.Fatalf("Reinit size %d stack top %d, New gives %d / %d", m.Size(), m.StackTop(), fresh.Size(), fresh.StackTop())
	}
	checkZero(t, m)
	m.StoreI(m.Size()-8, 7)
	if m.LoadI(m.Size()-8) != 7 || !faults(func() { m.LoadI(m.Size()) }) {
		t.Fatal("resized memory does not store its last word or fault past it")
	}
}
