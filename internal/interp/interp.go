// Package interp executes IR directly. It serves three roles in the
// reproduction pipeline (DESIGN.md §6):
//
//  1. Profiling: block execution counts and branch taken counts drive the
//     allocator's priority function, block layout, and static branch
//     prediction — the roles IMPACT's profiler played for the paper.
//  2. Correctness oracle: every compiled configuration's simulated memory
//     image and result are compared against the interpreter's.
//  3. The paper's "unlimited registers, conventional optimization,
//     single-issue" baseline denominator is validated against it.
package interp

import (
	"errors"
	"fmt"

	"regconn/internal/ir"
	"regconn/internal/isa"
	"regconn/internal/mem"
)

// Options configures a run.
type Options struct {
	// Profile accumulates block weights and branch taken counts into the
	// IR's Block fields.
	Profile bool
	// MaxSteps aborts runaway executions (0 = default limit).
	MaxSteps int64
	// MemSize is the memory image size in bytes (0 = mem.DefaultSize);
	// Run rejects a negative size or one above mem.MaxSize.
	MemSize int64
}

// Result reports a completed execution.
type Result struct {
	Ret    int64       // integer return value of the entry function
	FRet   float64     // floating return value of the entry function
	Steps  int64       // dynamic IR instructions executed
	Mem    *mem.Memory // final memory image
	Layout mem.Layout
}

// ErrStepLimit reports that execution exceeded Options.MaxSteps.
var ErrStepLimit = errors.New("interp: step limit exceeded")

const defaultMaxSteps = 1 << 32

type machine struct {
	prog   *ir.Program
	layout mem.Layout
	mem    *mem.Memory
	opts   Options
	steps  int64
	sp     int64
}

// Run executes the named entry function with the given integer arguments
// and returns the result. The entry function must take only integer
// parameters.
func Run(p *ir.Program, entry string, args []int64, opts Options) (*Result, error) {
	f := p.Func(entry)
	if f == nil {
		return nil, fmt.Errorf("interp: no function %q", entry)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = defaultMaxSteps
	}
	if opts.MemSize < 0 || opts.MemSize > mem.MaxSize {
		return nil, fmt.Errorf("interp: memory size %d outside [0, %d]", opts.MemSize, mem.MaxSize)
	}
	if opts.MemSize == 0 {
		opts.MemSize = mem.DefaultSize
	}
	layout := mem.ComputeLayout(p)

	// Everything that can raise a mem.Fault panic — including image
	// initialization, which faults when a global's initializer does not fit
	// in opts.MemSize — runs inside the recovering closure, so a guest
	// memory violation always comes back as an error, never a host panic.
	var res Result
	var m *machine
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if f, ok := r.(*mem.Fault); ok {
					err = fmt.Errorf("interp: %w", f)
					return
				}
				panic(r)
			}
		}()
		m = &machine{
			prog:   p,
			layout: layout,
			mem:    mem.InitImage(p, layout, opts.MemSize),
			opts:   opts,
		}
		m.sp = m.mem.StackTop()
		ret, fret, e := m.call(f, args, nil)
		if e != nil {
			return e
		}
		res.Ret, res.FRet = ret, fret
		return nil
	}()
	if err != nil {
		return nil, err
	}
	res.Steps = m.steps
	res.Mem = m.mem
	res.Layout = layout
	return &res, nil
}

// call runs one function invocation to completion.
func (m *machine) call(f *ir.Func, iargs []int64, fargs []float64) (int64, float64, error) {
	ri := make([]int64, f.NextInt)
	rf := make([]float64, f.NextFloat)
	ii, fi := 0, 0
	for _, p := range f.Params {
		switch p.Class {
		case isa.ClassInt:
			if ii >= len(iargs) {
				return 0, 0, fmt.Errorf("interp: %s: missing int arg %d", f.Name, ii)
			}
			ri[p.N] = iargs[ii]
			ii++
		case isa.ClassFloat:
			if fi >= len(fargs) {
				return 0, 0, fmt.Errorf("interp: %s: missing float arg %d", f.Name, fi)
			}
			rf[p.N] = fargs[fi]
			fi++
		}
	}

	bi := 0 // current block index
	for {
		b := f.Blocks[bi]
		if m.opts.Profile {
			b.Weight++
		}
		next := bi + 1
		jumped := false
	instrs:
		for k := range b.Instrs {
			in := &b.Instrs[k]
			m.steps++
			if m.steps > m.opts.MaxSteps {
				return 0, 0, fmt.Errorf("%w in %s", ErrStepLimit, f.Name)
			}
			src2 := func() int64 {
				if in.UseImm {
					return in.Imm
				}
				return ri[in.B.N]
			}
			switch in.Op {
			case isa.NOP:
			case isa.ADD:
				ri[in.Dst.N] = ri[in.A.N] + src2()
			case isa.SUB:
				ri[in.Dst.N] = ri[in.A.N] - src2()
			case isa.MUL:
				ri[in.Dst.N] = ri[in.A.N] * src2()
			case isa.DIV:
				d := src2()
				if d == 0 {
					return 0, 0, fmt.Errorf("interp: %s: divide by zero", f.Name)
				}
				ri[in.Dst.N] = ri[in.A.N] / d
			case isa.REM:
				d := src2()
				if d == 0 {
					return 0, 0, fmt.Errorf("interp: %s: rem by zero", f.Name)
				}
				ri[in.Dst.N] = ri[in.A.N] % d
			case isa.AND:
				ri[in.Dst.N] = ri[in.A.N] & src2()
			case isa.OR:
				ri[in.Dst.N] = ri[in.A.N] | src2()
			case isa.XOR:
				ri[in.Dst.N] = ri[in.A.N] ^ src2()
			case isa.SLL:
				ri[in.Dst.N] = ri[in.A.N] << uint64(src2()&63)
			case isa.SRL:
				ri[in.Dst.N] = int64(uint64(ri[in.A.N]) >> uint64(src2()&63))
			case isa.SRA:
				ri[in.Dst.N] = ri[in.A.N] >> uint64(src2()&63)
			case isa.SLT:
				if ri[in.A.N] < src2() {
					ri[in.Dst.N] = 1
				} else {
					ri[in.Dst.N] = 0
				}
			case isa.MOV:
				ri[in.Dst.N] = ri[in.A.N]
			case isa.MOVI:
				ri[in.Dst.N] = in.Imm
			case isa.LGA:
				ri[in.Dst.N] = m.layout[in.Sym] + in.Imm
			case isa.LD:
				ri[in.Dst.N] = m.mem.LoadI(ri[in.A.N] + in.Imm)
			case isa.ST:
				m.mem.StoreI(ri[in.A.N]+in.Imm, ri[in.B.N])
			case isa.FLD:
				rf[in.Dst.N] = m.mem.LoadF(ri[in.A.N] + in.Imm)
			case isa.FST:
				m.mem.StoreF(ri[in.A.N]+in.Imm, rf[in.B.N])
			case isa.FADD:
				rf[in.Dst.N] = rf[in.A.N] + rf[in.B.N]
			case isa.FSUB:
				rf[in.Dst.N] = rf[in.A.N] - rf[in.B.N]
			case isa.FMUL:
				rf[in.Dst.N] = rf[in.A.N] * rf[in.B.N]
			case isa.FDIV:
				rf[in.Dst.N] = rf[in.A.N] / rf[in.B.N]
			case isa.FMOV:
				rf[in.Dst.N] = rf[in.A.N]
			case isa.FMOVI:
				rf[in.Dst.N] = in.FImm()
			case isa.FNEG:
				rf[in.Dst.N] = -rf[in.A.N]
			case isa.FABS:
				v := rf[in.A.N]
				if v < 0 {
					v = -v
				}
				rf[in.Dst.N] = v
			case isa.CVTIF:
				rf[in.Dst.N] = float64(ri[in.A.N])
			case isa.CVTFI:
				ri[in.Dst.N] = int64(rf[in.A.N])
			case isa.BR:
				next = in.Target
				jumped = true
				break instrs
			case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
				taken := intBranchTaken(in.Op, ri[in.A.N], src2())
				if m.opts.Profile && taken {
					b.TakenWeight++
				}
				if taken {
					next = in.Target
					jumped = true
				}
				break instrs
			case isa.FBEQ, isa.FBNE, isa.FBLT, isa.FBLE:
				taken := fpBranchTaken(in.Op, rf[in.A.N], rf[in.B.N])
				if m.opts.Profile && taken {
					b.TakenWeight++
				}
				if taken {
					next = in.Target
					jumped = true
				}
				break instrs
			case isa.CALL:
				callee := m.prog.Func(in.Sym)
				var ia []int64
				var fa []float64
				for _, a := range in.Args {
					if a.Class == isa.ClassInt {
						ia = append(ia, ri[a.N])
					} else {
						fa = append(fa, rf[a.N])
					}
				}
				r, fr, err := m.call(callee, ia, fa)
				if err != nil {
					return 0, 0, err
				}
				if in.Dst.Valid() {
					if in.Dst.Class == isa.ClassInt {
						ri[in.Dst.N] = r
					} else {
						rf[in.Dst.N] = fr
					}
				}
			case isa.RET:
				if in.A.Valid() {
					if in.A.Class == isa.ClassInt {
						return ri[in.A.N], 0, nil
					}
					return 0, rf[in.A.N], nil
				}
				return 0, 0, nil
			case isa.HALT:
				return 0, 0, nil
			default:
				return 0, 0, fmt.Errorf("interp: %s: cannot execute %v in IR form", f.Name, in.Op)
			}
		}
		if !jumped && next >= len(f.Blocks) {
			return 0, 0, fmt.Errorf("interp: %s: fell off function end", f.Name)
		}
		bi = next
	}
}

func intBranchTaken(op isa.Op, a, b int64) bool {
	switch op {
	case isa.BEQ:
		return a == b
	case isa.BNE:
		return a != b
	case isa.BLT:
		return a < b
	case isa.BLE:
		return a <= b
	case isa.BGT:
		return a > b
	case isa.BGE:
		return a >= b
	}
	return false
}

func fpBranchTaken(op isa.Op, a, b float64) bool {
	switch op {
	case isa.FBEQ:
		return a == b
	case isa.FBNE:
		return a != b
	case isa.FBLT:
		return a < b
	case isa.FBLE:
		return a <= b
	}
	return false
}

// ClearProfile zeroes all profile weights in the program.
func ClearProfile(p *ir.Program) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			b.Weight = 0
			b.TakenWeight = 0
		}
	}
}
