package isa

import "fmt"

// RegClass distinguishes the integer and floating-point register files.
type RegClass uint8

// Register classes.
const (
	ClassNone  RegClass = iota // no register (operand unused / immediate)
	ClassInt                   // integer file
	ClassFloat                 // floating-point file

	// ClassEither appears only in the operand schema (OpMeta): an
	// optional slot that may hold a register of either class. No Reg
	// carries it.
	ClassEither
)

func (c RegClass) String() string {
	switch c {
	case ClassInt:
		return "int"
	case ClassFloat:
		return "float"
	case ClassEither:
		return "int or float"
	case ClassNone:
		return "none"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Reg names a register. Before register allocation N is a virtual register
// number (unbounded); after allocation N is a map index into the register
// mapping table (equivalently, a core-register number of the base
// architecture). The zero value is "no register".
type Reg struct {
	Class RegClass
	N     int
}

// Convenience constructors.
func IntReg(n int) Reg   { return Reg{ClassInt, n} }
func FloatReg(n int) Reg { return Reg{ClassFloat, n} }

// Valid reports whether r names a register at all.
func (r Reg) Valid() bool { return r.Class != ClassNone }

func (r Reg) String() string {
	switch r.Class {
	case ClassInt:
		return fmt.Sprintf("r%d", r.N)
	case ClassFloat:
		return fmt.Sprintf("f%d", r.N)
	}
	return "_"
}

// Architectural register conventions (paper §5.1 and DESIGN.md §3):
// R0 is hardwired to zero, R1 is the stack pointer, R2/F2 carry return
// values, and four integer registers (the highest-numbered allocatable
// ones, chosen by the allocator) are reserved as spill temporaries.
const (
	RegZero = 0 // integer register hardwired to 0
	RegSP   = 1 // stack pointer
	RegRV   = 2 // integer return value
	RegFRV  = 2 // floating-point return value (F2)
)
