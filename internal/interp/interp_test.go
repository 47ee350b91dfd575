package interp

import (
	"errors"
	"runtime"
	"testing"

	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/mem"
)

// buildFib builds a recursive fib plus a main calling it.
func buildFib(p *ir.Program) {
	fb := ir.NewFunc(p, "fib", 1, 0)
	n := fb.Param(0)
	base := fb.NewBlock() // fallthrough: n <= 1
	rec := fb.NewBlock()
	fb.BgtI(n, 1, rec)
	fb.SetBlock(base)
	fb.Ret(n)
	fb.SetBlock(rec)
	a := fb.Call("fib", fb.SubI(n, 1))
	b := fb.Call("fib", fb.SubI(n, 2))
	fb.Ret(fb.Add(a, b))
}

func TestFib(t *testing.T) {
	p := ir.NewProgram()
	buildFib(p)
	if err := ir.Verify(p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, "fib", []int64{10}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 55 {
		t.Errorf("fib(10) = %d, want 55", res.Ret)
	}
	if res.Steps == 0 {
		t.Error("no steps counted")
	}
}

func TestArraySumAndGlobals(t *testing.T) {
	p := ir.NewProgram()
	g := p.AddGlobal("arr", 10*8)
	g.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := ir.NewFunc(p, "main", 0, 0)
	base := b.Addr(g, 0)
	s := b.Const(0)
	i := b.Const(0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	addr := b.Add(base, b.MulI(i, 8))
	v := b.Ld(addr, 0)
	s2 := b.Add(s, v)
	b.St(s2, base, 80) // running sum spilled after the array
	i2 := b.AddI(i, 1)
	// write back loop-carried values
	loopBlk := b.Block()
	loopBlk.Instrs = append(loopBlk.Instrs, mov(s, s2), mov(i, i2))
	b.BltI(i, 10, loop)
	done := b.NewBlock()
	b.SetBlock(done)
	b.Ret(s)
	if err := ir.Verify(p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, "main", nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 55 {
		t.Errorf("sum = %d, want 55", res.Ret)
	}
	// Out-of-bounds store target was the word just past the init data;
	// check the final memory image recorded it.
	if got := res.Mem.LoadI(res.Layout["arr"] + 80); got != 55 {
		t.Errorf("mem[arr+80] = %d, want 55", got)
	}
}

func TestFloatKernel(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFunc(p, "dot", 1, 0)
	n := b.Param(0)
	acc := b.FConst(0)
	x := b.FConst(1.5)
	y := b.FConst(2.0)
	i := b.Const(0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	acc2 := b.FAdd(acc, b.FMul(x, y))
	blk := b.Block()
	blk.Instrs = append(blk.Instrs, fmov(acc, acc2))
	i2 := b.AddI(i, 1)
	blk = b.Block()
	blk.Instrs = append(blk.Instrs, mov(i, i2))
	b.Blt(i, n, loop)
	out := b.NewBlock()
	b.SetBlock(out)
	b.Ret(b.FToI(acc))
	if err := ir.Verify(p); err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, "dot", []int64{4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ret != 12 { // 4 * 3.0
		t.Errorf("dot = %d, want 12", res.Ret)
	}
}

func TestProfileCounts(t *testing.T) {
	p := ir.NewProgram()
	buildFib(p)
	_, err := Run(p, "fib", []int64{8}, Options{Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	f := p.Func("fib")
	// fib(8) calls fib 67 times in total; the entry block runs each call.
	if f.Blocks[0].Weight != 67 {
		t.Errorf("entry weight = %v, want 67", f.Blocks[0].Weight)
	}
	ClearProfile(p)
	if f.Blocks[0].Weight != 0 {
		t.Error("ClearProfile did not reset")
	}
}

func TestStepLimit(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFunc(p, "spin", 0, 0)
	loop := b.NewBlock()
	b.Br(loop)
	b.SetBlock(loop)
	b.Br(loop)
	_, err := Run(p, "spin", nil, Options{MaxSteps: 1000})
	if err == nil {
		t.Fatal("expected step-limit error")
	}
}

func TestMemoryFaultIsError(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFunc(p, "bad", 0, 0)
	addr := b.Const(-8)
	v := b.Ld(addr, 0)
	b.Ret(v)
	_, err := Run(p, "bad", nil, Options{})
	if err == nil {
		t.Fatal("expected memory fault")
	}
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v (%T) does not wrap *mem.Fault", err, err)
	}
}

func TestInitImageFaultIsError(t *testing.T) {
	// A global initializer that does not fit in MemSize faults during image
	// setup, before the first instruction. That fault must come back as an
	// error like any other guest memory violation, not kill the host.
	p := ir.NewProgram()
	g := p.AddGlobal("big", 8*8)
	g.InitI = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	b := ir.NewFunc(p, "main", 0, 0)
	b.Ret(b.Const(0))
	res, err := Run(p, "main", nil, Options{MemSize: mem.GlobalBase})
	if err == nil {
		t.Fatalf("expected init-image fault, got result %+v", res)
	}
	var f *mem.Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %v (%T) does not wrap *mem.Fault", err, err)
	}
	if f.Reason != "out of range" {
		t.Errorf("fault reason = %q, want out of range", f.Reason)
	}
}

// TestMemSizeBounds pins mem.MaxSize at the interpreter: a negative size
// or one above the cap is an error before any image exists, and the cap
// itself runs.
func TestMemSizeBounds(t *testing.T) {
	p := ir.NewProgram()
	buildFib(p)
	for _, tc := range []struct {
		size int64
		ok   bool
	}{{-8, false}, {mem.MaxSize + 8, false}, {1 << 40, false}, {mem.MaxSize, true}} {
		res, err := Run(p, "fib", []int64{10}, Options{MemSize: tc.size})
		if (err == nil) != tc.ok {
			t.Errorf("MemSize %d: result %v, error %v; want ok=%v", tc.size, res, err, tc.ok)
		}
	}
}

// TestRunImageIsSparse pins the interpreter's memory image to the pages
// its program stores to: a small program's whole run allocates under
// 1 MiB, not a 16 MiB image.
func TestRunImageIsSparse(t *testing.T) {
	p := ir.NewProgram()
	buildFib(p)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(p, "fib", []int64{10}, Options{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("Run allocates %d bytes, want under 1 MiB", n)
	}
}

func TestDivideByZeroIsError(t *testing.T) {
	p := ir.NewProgram()
	b := ir.NewFunc(p, "dz", 1, 0)
	z := b.Const(0)
	b.Ret(b.Div(b.Const(1), z))
	if _, err := Run(p, "dz", []int64{0}, Options{}); err == nil {
		t.Fatal("expected divide-by-zero error")
	}
}

// helpers constructing raw MOVs into existing registers (loop-carried vars)
func mov(dst, src isa.Reg) isa.Instr  { return isa.Instr{Op: isa.MOV, Dst: dst, A: src} }
func fmov(dst, src isa.Reg) isa.Instr { return isa.Instr{Op: isa.FMOV, Dst: dst, A: src} }
