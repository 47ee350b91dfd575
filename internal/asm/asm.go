// Package asm provides a textual assembler and disassembler for the
// machine ISA, including the register-connection instructions. It lets raw
// machine programs — connects and all — be written, inspected, and run
// without the compiler, and gives the repository's tools a stable text
// format (cmd/rcasm).
//
// Syntax (one instruction per line, ';' starts a comment):
//
//	.global name size          ; data object, size in bytes
//	.init name index value     ; integer word initializer
//	.initf name index value    ; float word initializer
//	.func name                 ; begin function
//	label:                     ; local label
//	    movi r2, #42
//	    add r3, r2, #8
//	    ld r4, 16(r3)
//	    st r4, 0(r3)
//	    fadd f1, f2, f3
//	    blt r2, r3, label
//	    con_du ri3:rp100, ri4:rp101   ; connect-def-use (fp: fi3:fp100)
//	    call helper
//	    ret
//	    halt
package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"regconn/internal/codegen"
	"regconn/internal/ir"
	"regconn/internal/isa"
)

// Assemble parses source text into a loadable machine program. The entry
// point is the first function unless one is named "__start".
func Assemble(src string) (*codegen.MProg, error) {
	p := &parser{
		prog:    ir.NewProgram(),
		mp:      &codegen.MProg{},
		opNames: opNames(),
	}
	if err := p.run(src); err != nil {
		return nil, err
	}
	p.mp.IR = p.prog
	if p.mp.Entry == "" {
		if len(p.mp.Funcs) == 0 {
			return nil, fmt.Errorf("asm: no functions")
		}
		p.mp.Entry = p.mp.Funcs[0].Name
	}
	return p.mp, nil
}

type parser struct {
	prog    *ir.Program
	mp      *codegen.MProg
	opNames map[string]isa.Op

	cur    *codegen.MFunc
	labels map[string]int
	fixes  []labelFix
	line   int
}

type labelFix struct {
	instr int
	label string
	line  int
}

func opNames() map[string]isa.Op {
	m := map[string]isa.Op{}
	for op := isa.Op(0); op < isa.Op(255); op++ {
		name := op.String()
		if strings.HasPrefix(name, "op(") {
			continue
		}
		m[name] = op
		if op == isa.HALT {
			break
		}
	}
	return m
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("asm: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

func (p *parser) run(src string) error {
	for i, raw := range strings.Split(src, "\n") {
		p.line = i + 1
		line := raw
		if c := strings.IndexByte(line, ';'); c >= 0 {
			line = line[:c]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.parseLine(line); err != nil {
			return err
		}
	}
	return p.endFunc()
}

func (p *parser) parseLine(line string) error {
	switch {
	case strings.HasPrefix(line, ".global"):
		return p.parseGlobal(line)
	case strings.HasPrefix(line, ".initf"):
		return p.parseInit(line, true)
	case strings.HasPrefix(line, ".init"):
		return p.parseInit(line, false)
	case strings.HasPrefix(line, ".func"):
		f := strings.Fields(line)
		if len(f) != 2 {
			return p.errf(".func needs a name")
		}
		if err := p.endFunc(); err != nil {
			return err
		}
		p.cur = &codegen.MFunc{Name: f[1]}
		p.labels = map[string]int{}
		return nil
	case strings.HasSuffix(line, ":"):
		if p.cur == nil {
			return p.errf("label outside function")
		}
		name := strings.TrimSuffix(line, ":")
		if _, dup := p.labels[name]; dup {
			return p.errf("duplicate label %q", name)
		}
		p.labels[name] = len(p.cur.Code)
		return nil
	default:
		if p.cur == nil {
			return p.errf("instruction outside function")
		}
		in, fix, err := p.parseInstr(line)
		if err != nil {
			return err
		}
		if fix != "" {
			p.fixes = append(p.fixes, labelFix{len(p.cur.Code), fix, p.line})
		}
		p.cur.Code = append(p.cur.Code, in)
		p.cur.Ann = append(p.cur.Ann, codegen.Annot{PDst: codegen.NoPhys, PA: codegen.NoPhys, PB: codegen.NoPhys})
		return nil
	}
}

func (p *parser) endFunc() error {
	if p.cur == nil {
		return nil
	}
	for _, fx := range p.fixes {
		at, ok := p.labels[fx.label]
		if !ok {
			return fmt.Errorf("asm: line %d: undefined label %q", fx.line, fx.label)
		}
		p.cur.Code[fx.instr].Target = at
	}
	p.fixes = p.fixes[:0]
	if p.cur.Name == "__start" {
		p.mp.Entry = "__start"
	}
	p.mp.Funcs = append(p.mp.Funcs, p.cur)
	p.cur = nil
	return nil
}

func (p *parser) parseGlobal(line string) error {
	f := strings.Fields(line)
	if len(f) != 3 {
		return p.errf(".global needs name and size")
	}
	size, err := strconv.ParseInt(f[2], 10, 64)
	if err != nil || size <= 0 {
		return p.errf("bad size %q", f[2])
	}
	p.prog.AddGlobal(f[1], size)
	return nil
}

func (p *parser) parseInit(line string, fp bool) error {
	f := strings.Fields(line)
	if len(f) != 4 {
		return p.errf(".init needs name, index, value")
	}
	var g *ir.Global
	for _, gg := range p.prog.Globals {
		if gg.Name == f[1] {
			g = gg
		}
	}
	if g == nil {
		return p.errf("unknown global %q", f[1])
	}
	idx, err := strconv.Atoi(f[2])
	if err != nil || idx < 0 || int64(idx) >= g.Words() {
		return p.errf("bad index %q", f[2])
	}
	if fp {
		v, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return p.errf("bad float %q", f[3])
		}
		for len(g.InitF) <= idx {
			g.InitF = append(g.InitF, 0)
		}
		g.InitF[idx] = v
	} else {
		v, err := strconv.ParseInt(f[3], 10, 64)
		if err != nil {
			return p.errf("bad int %q", f[3])
		}
		for len(g.InitI) <= idx {
			g.InitI = append(g.InitI, 0)
		}
		g.InitI[idx] = v
	}
	return nil
}

// splitOperands splits "a, b, c" respecting no nesting (the syntax has
// none).
func splitOperands(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func (p *parser) parseReg(tok string, class isa.RegClass) (isa.Reg, error) {
	want := byte('r')
	if class == isa.ClassFloat {
		want = 'f'
	}
	if len(tok) < 2 || tok[0] != want {
		return isa.Reg{}, p.errf("expected %c-register, got %q", want, tok)
	}
	n, err := strconv.Atoi(tok[1:])
	if err != nil || n < 0 {
		return isa.Reg{}, p.errf("bad register %q", tok)
	}
	return isa.Reg{Class: class, N: n}, nil
}

func (p *parser) parseImm(tok string) (int64, error) {
	if !strings.HasPrefix(tok, "#") {
		return 0, p.errf("expected immediate, got %q", tok)
	}
	v, err := strconv.ParseInt(tok[1:], 0, 64)
	if err != nil {
		return 0, p.errf("bad immediate %q", tok)
	}
	return v, nil
}

// parseMem parses "off(rN)", a base register of the given class.
func (p *parser) parseMem(tok string, class isa.RegClass) (isa.Reg, int64, error) {
	open := strings.IndexByte(tok, '(')
	if open < 0 || !strings.HasSuffix(tok, ")") {
		return isa.Reg{}, 0, p.errf("expected off(reg), got %q", tok)
	}
	off, err := strconv.ParseInt(tok[:open], 10, 64)
	if err != nil {
		return isa.Reg{}, 0, p.errf("bad offset in %q", tok)
	}
	base, err := p.parseReg(tok[open+1:len(tok)-1], class)
	if err != nil {
		return isa.Reg{}, 0, err
	}
	return base, off, nil
}

// parseConnPair parses "ri3:rp100" / "fi3:fp100".
func (p *parser) parseConnPair(tok string) (idx, phys uint16, class isa.RegClass, err error) {
	class = isa.ClassInt
	pfxI, pfxP := "ri", "rp"
	if strings.HasPrefix(tok, "fi") {
		class = isa.ClassFloat
		pfxI, pfxP = "fi", "fp"
	}
	colon := strings.IndexByte(tok, ':')
	if colon < 0 || !strings.HasPrefix(tok, pfxI) || !strings.HasPrefix(tok[colon+1:], pfxP) {
		return 0, 0, class, p.errf("expected %s<n>:%s<n>, got %q", pfxI, pfxP, tok)
	}
	i, err1 := strconv.Atoi(tok[len(pfxI):colon])
	ph, err2 := strconv.Atoi(tok[colon+1+len(pfxP):])
	if err1 != nil || err2 != nil || i < 0 || ph < 0 || i > 0xffff || ph > 0xffff {
		return 0, 0, class, p.errf("bad connect pair %q", tok)
	}
	return uint16(i), uint16(ph), class, nil
}

// parseInstr parses one instruction line and returns it with its branch
// label, if any. Register classes come from the opcode's operand schema
// (isa.Meta); the syntax adds only the operand layouts: immediates and
// symbols for MOVI/FMOVI/LGA, off(base) addresses for memory ops (a store
// names its value first), connect pairs, and a trailing branch label.
func (p *parser) parseInstr(line string) (isa.Instr, string, error) {
	sp := strings.IndexAny(line, " \t")
	mn := line
	rest := ""
	if sp >= 0 {
		mn, rest = line[:sp], strings.TrimSpace(line[sp+1:])
	}
	op, ok := p.opNames[mn]
	if !ok {
		return isa.Instr{}, "", p.errf("unknown mnemonic %q", mn)
	}
	ops := splitOperands(rest)
	in := isa.Instr{Op: op}
	m := op.Meta()

	need := func(n int) error {
		if len(ops) != n {
			return p.errf("%s needs %d operands, got %d", mn, n, len(ops))
		}
		return nil
	}

	var err error
	switch {
	case op == isa.RET: // machine RET carries its value in r2/f2
		return in, "", need(0)
	case op == isa.CALL:
		if err = need(1); err != nil {
			return in, "", err
		}
		in.Sym = ops[0]
		return in, "", nil
	case m.Connect:
		if err = need(int(m.NPairs)); err != nil {
			return in, "", err
		}
		for i, tok := range ops {
			idx, phys, class, cerr := p.parseConnPair(tok)
			if cerr != nil {
				return in, "", cerr
			}
			if i > 0 && class != in.CClass {
				return in, "", p.errf("connect pairs must address one register file")
			}
			in.CIdx[i], in.CPhys[i], in.CClass = idx, phys, class
		}
		return in, "", nil
	case op == isa.MOVI, op == isa.FMOVI, op == isa.LGA:
		if err = need(2); err != nil {
			return in, "", err
		}
		if in.Dst, err = p.parseReg(ops[0], m.Dst); err != nil {
			return in, "", err
		}
		in.Sym, in.Imm, err = p.parseConst(op, ops[1])
		return in, "", err
	case m.Mem:
		if err = need(2); err != nil {
			return in, "", err
		}
		val, class := &in.Dst, m.Dst
		if class == isa.ClassNone { // store: the value is the B slot
			val, class = &in.B, m.B
		}
		if *val, err = p.parseReg(ops[0], class); err != nil {
			return in, "", err
		}
		in.A, in.Imm, err = p.parseMem(ops[1], m.A)
		return in, "", err
	}

	// Register operands in slot order, then the branch label.
	slots := [...]struct {
		r     *isa.Reg
		class isa.RegClass
	}{{&in.Dst, m.Dst}, {&in.A, m.A}, {&in.B, m.B}}
	n := 0
	for _, sl := range slots {
		if sl.class != isa.ClassNone {
			n++
		}
	}
	if m.Branch {
		n++
	}
	if err = need(n); err != nil {
		return in, "", err
	}
	k := 0
	for _, sl := range slots {
		if sl.class == isa.ClassNone {
			continue
		}
		tok := ops[k]
		k++
		if sl.r == &in.B && strings.HasPrefix(tok, "#") {
			if !m.BImm {
				return in, "", p.errf("%s takes no immediates", mn)
			}
			in.UseImm = true
			if in.Imm, err = p.parseImm(tok); err != nil {
				return in, "", err
			}
			continue
		}
		if *sl.r, err = p.parseReg(tok, sl.class); err != nil {
			return in, "", err
		}
	}
	if m.Branch {
		return in, ops[k], nil
	}
	return in, "", nil
}

// parseConst parses the constant operand of MOVI (#int), FMOVI (#float,
// returned as its bit pattern) or LGA (sym+off).
func (p *parser) parseConst(op isa.Op, tok string) (sym string, imm int64, err error) {
	switch op {
	case isa.MOVI:
		imm, err = p.parseImm(tok)
		return "", imm, err
	case isa.FMOVI:
		if !strings.HasPrefix(tok, "#") {
			return "", 0, p.errf("expected float immediate")
		}
		v, ferr := strconv.ParseFloat(tok[1:], 64)
		if ferr != nil {
			return "", 0, p.errf("bad float %q", tok)
		}
		return "", int64(math.Float64bits(v)), nil
	}
	plus := strings.LastIndexByte(tok, '+')
	if plus < 0 {
		return "", 0, p.errf("expected sym+off, got %q", tok)
	}
	if imm, err = strconv.ParseInt(tok[plus+1:], 10, 64); err != nil {
		return "", 0, p.errf("bad offset in %q", tok)
	}
	return tok[:plus], imm, nil
}
