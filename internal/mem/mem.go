// Package mem provides the sparse, paged, deterministic memory image shared
// by the IR interpreter and the machine simulator. The paper assumes a 100%
// cache hit rate (§5.3), so memory is modeled as a fixed-latency word store;
// the latency itself lives in the timing model, not here.
//
// Layout: globals are placed consecutively from GlobalBase; the stack
// occupies the top of the address space and grows down. All accesses move
// aligned 8-byte words.
//
// Backing: the address space is a directory of 64 KiB pages. A page is
// allocated on its first store, and a page never stored to reads as zero,
// so an image costs its directory plus the pages its program wrote (a few
// hundred KiB of globals and stack), not its full Size.
package mem

import (
	"fmt"
	"math"

	"regconn/internal/ir"
)

// GlobalBase is the address of the first global data object.
const GlobalBase = 1 << 12

// DefaultSize is the default memory image size in bytes (16 MiB).
const DefaultSize = 1 << 24

// MaxSize is the largest memory image size in bytes (1 GiB). The page
// directory grows with the size, one pointer and one dirty byte per page
// (128 KiB of pointers at MaxSize), so callers that size an image from
// outside input reject anything larger, or negative, before calling New.
const MaxSize = 1 << 30

// A page is 64 KiB (pageWords words): coarse enough that the directory of a
// 16 MiB image is 256 entries and the per-store bookkeeping is one byte
// write, fine enough that an image whose program touches a few hundred KiB
// of globals and stack allocates, and on Reset clears, only those pages.
const (
	pageShift = 16 // log2 of the page size in bytes
	pageWords = 1 << (pageShift - 3)
)

// Memory is a byte-addressed, word-accessed memory image. A store
// allocates its page on first use and marks it dirty, so neither New nor
// Reset pays for the whole image: New allocates only the directory, and
// Reset rezeroes in place just the pages written since the last reset.
type Memory struct {
	pages []*[pageWords]int64 // nil until the page's first store
	dirty []bool              // per page: written since the last New/Reset
	size  uint64              // bytes, a word multiple
}

// New returns a zeroed memory of the given size in bytes (rounded up to a
// word multiple). It allocates only the page directory; 0 <= size <=
// MaxSize keeps that directory small.
func New(size int64) *Memory {
	n := (size + 7) / 8
	np := (n + pageWords - 1) / pageWords
	return &Memory{
		pages: make([]*[pageWords]int64, np),
		dirty: make([]bool, np),
		size:  uint64(n) * 8,
	}
}

// Reset rezeroes the memory in place: every page written since the last
// New/Reset is cleared (and its dirty mark dropped) but stays allocated,
// leaving the image bit-identical to a freshly allocated one of the same
// size.
func (m *Memory) Reset() {
	for p, d := range m.dirty {
		if d {
			clear(m.pages[p][:])
			m.dirty[p] = false
		}
	}
}

// Reinit makes the memory equivalent to New(size), reusing the allocated
// pages when the size is unchanged and starting over otherwise.
func (m *Memory) Reinit(size int64) {
	if (size+7)/8*8 != m.Size() {
		*m = *New(size)
		return
	}
	m.Reset()
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int64 { return int64(m.size) }

// StackTop returns the initial stack pointer (just past the highest word).
func (m *Memory) StackTop() int64 { return m.Size() }

// check faults unless addr is an aligned word inside the image.
func (m *Memory) check(addr int64) {
	if addr%8 != 0 {
		panic(&Fault{Addr: addr, Reason: "unaligned access"})
	}
	if uint64(addr) >= m.size {
		panic(&Fault{Addr: addr, Reason: "out of range"})
	}
}

// LoadI loads an integer word; StoreI stores one. StoreI allocates a
// missing page inline rather than through a helper call: the call would
// push StoreI and StoreF past the inliner's budget, and both run on every
// simulated store.
func (m *Memory) LoadI(addr int64) int64 {
	m.check(addr)
	if p := m.pages[addr>>pageShift]; p != nil {
		return p[addr>>3&(pageWords-1)]
	}
	return 0
}
func (m *Memory) StoreI(addr, v int64) {
	m.check(addr)
	pg := addr >> pageShift
	if m.pages[pg] == nil {
		m.pages[pg] = new([pageWords]int64)
	}
	m.pages[pg][addr>>3&(pageWords-1)] = v
	m.dirty[pg] = true
}

// LoadF and StoreF view the word as a float64 bit pattern.
func (m *Memory) LoadF(addr int64) float64 { return math.Float64frombits(uint64(m.LoadI(addr))) }
func (m *Memory) StoreF(addr int64, v float64) {
	m.StoreI(addr, int64(math.Float64bits(v)))
}

// Fault is a memory access violation. The interpreter and simulator convert
// it into an execution error.
type Fault struct {
	Addr   int64
	Reason string
}

func (f *Fault) Error() string { return fmt.Sprintf("memory fault at %#x: %s", f.Addr, f.Reason) }

// Layout maps each global name to its assigned address.
type Layout map[string]int64

// ComputeLayout assigns consecutive addresses from GlobalBase to the
// program's globals.
func ComputeLayout(p *ir.Program) Layout {
	l := make(Layout, len(p.Globals))
	addr := int64(GlobalBase)
	for _, g := range p.Globals {
		l[g.Name] = addr
		addr += g.Size
	}
	return l
}

// DataEnd returns the first address past the global data section.
func (l Layout) DataEnd(p *ir.Program) int64 {
	end := int64(GlobalBase)
	for _, g := range p.Globals {
		if a := l[g.Name] + g.Size; a > end {
			end = a
		}
	}
	return end
}

// InitImage builds a fresh memory image of the given size with the
// program's globals initialized at their layout addresses.
func InitImage(p *ir.Program, l Layout, size int64) *Memory {
	return InitImageInto(nil, p, l, size)
}

// InitImageInto is InitImage over a reused memory: a nil m allocates
// fresh, otherwise m is rezeroed in place (Reinit) and the globals are
// rewritten. It is the arena path of the simulator — one run's image
// becomes the next run's, without reallocating or rezeroing untouched
// pages.
func InitImageInto(m *Memory, p *ir.Program, l Layout, size int64) *Memory {
	if m == nil {
		m = New(size)
	} else {
		m.Reinit(size)
	}
	for _, g := range p.Globals {
		base := l[g.Name]
		for i, v := range g.InitI {
			m.StoreI(base+int64(i)*8, v)
		}
		for i, v := range g.InitF {
			m.StoreF(base+int64(i)*8, v)
		}
	}
	return m
}
