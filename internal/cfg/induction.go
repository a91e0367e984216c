package cfg

import "repro/internal/ir"

// RegInfo summarizes where each register of a function is defined. It
// backs the light-weight "scalar evolution" used for trip counts and
// parametric function costs.
type RegInfo struct {
	f *ir.Func
	// The static definitions of register r are sites[first[r]:first[r+1]],
	// in block and instruction order. Parameters have an implicit
	// definition not listed here.
	first []int32
	sites []defSite
}

// defSite is where an instruction defining a register sits.
type defSite struct{ block, index int32 }

// DefSite returns the unique definition site (block index, instruction
// index) of r, when r has exactly one static definition.
func (ri *RegInfo) DefSite(r ir.Reg) (block, index int, ok bool) {
	if ri.defCount(r) != 1 {
		return 0, 0, false
	}
	s := ri.sites[ri.first[r]]
	return int(s.block), int(s.index), true
}

// defs returns the definition sites of r.
func (ri *RegInfo) defs(r ir.Reg) []defSite {
	if r < 0 || int(r) >= len(ri.first)-1 {
		return nil
	}
	return ri.sites[ri.first[r]:ri.first[r+1]]
}

// defCount returns the number of static definitions of r.
func (ri *RegInfo) defCount(r ir.Reg) int { return len(ri.defs(r)) }

// instr returns the instruction at s.
func (ri *RegInfo) instr(s defSite) *ir.Instr { return &ri.f.Blocks[s.block].Instrs[s.index] }

// defines reports whether in is a static definition of its Dst.
func defines(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpProbe, ir.OpNop:
		return false
	}
	return in.Dst != ir.NoReg
}

// build makes ri the register info of f, in ri's own arrays when they
// are large enough. It counts the definitions per register, then files
// each site at its register's cursor.
func (ri *RegInfo) build(f *ir.Func) {
	n := f.NumRegs
	first := grown(ri.first, n+2)
	clear(first)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; defines(in) {
				first[in.Dst+2]++
			}
		}
	}
	// first[r+1] becomes the start of r's sites, then the cursor that
	// ends at the start of r+1.
	for r := 2; r < n+2; r++ {
		first[r] += first[r-1]
	}
	sites := grown(ri.sites, int(first[n+1]))
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			if in := &b.Instrs[i]; defines(in) {
				sites[first[in.Dst+1]] = defSite{int32(bi), int32(i)}
				first[in.Dst+1]++
			}
		}
	}
	*ri = RegInfo{f: f, first: first[:n+1], sites: sites}
}

// ConstValue reports whether r is a compile-time constant: a register
// whose single static definition is `mov imm` (and which is not a
// parameter).
func (ri *RegInfo) ConstValue(r ir.Reg) (int64, bool) {
	if r == ir.NoReg || int(r) < ri.f.NumParams {
		return 0, false
	}
	if ri.defCount(r) != 1 {
		return 0, false
	}
	d := ri.instr(ri.sites[ri.first[r]])
	if d.Op == ir.OpMov && d.BImm {
		return d.Imm, true
	}
	return 0, false
}

// ParamValue reports whether r is an unmodified function parameter,
// returning the parameter index.
func (ri *RegInfo) ParamValue(r ir.Reg) (int, bool) {
	if r == ir.NoReg || int(r) >= ri.f.NumParams {
		return 0, false
	}
	if ri.defCount(r) != 0 {
		return 0, false
	}
	return int(r), true
}

// SingleDefOutside reports whether r is stable across loop l: either an
// unmodified parameter, or a register with exactly one definition that
// lies outside the loop.
func (ri *RegInfo) SingleDefOutside(r ir.Reg, l *Loop) bool {
	if r == ir.NoReg {
		return false
	}
	if int(r) < ri.f.NumParams {
		return ri.defCount(r) == 0
	}
	defs := ri.defs(r)
	return len(defs) == 1 && !l.Has(int(defs[0].block))
}

// Induction describes a recognized canonical induction variable of a
// loop: i starts at Init, advances by the constant Step each
// iteration, and the loop continues while `i CmpOp Bound` holds, tested
// in the loop header.
type Induction struct {
	Found  bool
	IndVar ir.Reg
	// Step is the constant per-iteration increment (> 0).
	Step int64
	// Init: either a known constant or a register.
	InitConst   int64
	InitIsConst bool
	InitReg     ir.Reg
	// Bound register and its static interpretation.
	Bound        ir.Reg
	BoundConst   int64
	BoundIsConst bool
	BoundParam   int
	BoundIsParam bool
	// CmpOp is ir.OpCmpLt or ir.OpCmpLe.
	CmpOp ir.Opcode
	// StepBlock is the block index holding the `i += Step` definition.
	StepBlock int
	// StepIndex is that instruction's index within StepBlock.
	StepIndex int
}

// TripCount returns the constant iteration count when both bounds are
// known constants.
func (iv *Induction) TripCount() (int64, bool) {
	if !iv.Found || !iv.InitIsConst || !iv.BoundIsConst {
		return 0, false
	}
	limit := iv.BoundConst
	if iv.CmpOp == ir.OpCmpLe {
		limit++
	}
	if limit <= iv.InitConst {
		return 0, true
	}
	n := (limit - iv.InitConst + iv.Step - 1) / iv.Step
	return n, true
}

// ParamTripCount returns (paramIndex, scale, offset) such that the trip
// count is approximately offset + param/scale, when the bound is an
// unmodified parameter and the init is a constant. This is the affine
// form used for parametric function costs (§3.3).
func (iv *Induction) ParamTripCount() (param int, step int64, initConst int64, ok bool) {
	if !iv.Found || !iv.InitIsConst || !iv.BoundIsParam {
		return 0, 0, 0, false
	}
	return iv.BoundParam, iv.Step, iv.InitConst, true
}

// AnalyzeInduction recognizes the canonical induction variable of loop
// l, if any. The loop must be simplified (preheader + single latch);
// the pattern is:
//
//	header:  %c = lt/le %i, %bound ; br %c, <into loop>, <exit>
//	body:    ... %i = add %i, step ...   (single in-loop definition)
//	pre:     %i defined once outside the loop (mov const / mov reg)
//
// Loops whose condition is written `gt/ge %bound, %i` are normalized.
// ri must describe f as it is: the definitions of the induction
// register are read from it.
func AnalyzeInduction(f *ir.Func, g *Graph, l *Loop, ri *RegInfo) Induction {
	none := Induction{}
	header := f.Blocks[l.Header]
	if header.Term.Kind != ir.TermBr {
		return none
	}
	// Exactly one branch target must leave the loop.
	thenIn := l.Has(header.Term.Then.Index)
	elseIn := l.Has(header.Term.Else.Index)
	if thenIn == elseIn {
		return none
	}
	// Find the comparison defining the branch condition in the header.
	cond := header.Term.Cond
	var cmp *ir.Instr
	for i := len(header.Instrs) - 1; i >= 0; i-- {
		in := &header.Instrs[i]
		if in.Dst == cond && in.Op != ir.OpStore && in.Op != ir.OpProbe {
			cmp = in
			break
		}
	}
	if cmp == nil {
		return none
	}
	var indReg, boundReg ir.Reg
	var boundImm int64
	boundIsImm := false
	var op ir.Opcode
	switch cmp.Op {
	case ir.OpCmpLt, ir.OpCmpLe:
		indReg = cmp.A
		op = cmp.Op
		if cmp.BImm {
			boundImm, boundIsImm = cmp.Imm, true
		} else {
			boundReg = cmp.B
		}
	case ir.OpCmpGt, ir.OpCmpGe:
		// bound > i  ≡  i < bound
		if cmp.BImm {
			return none // imm > i: unusual, skip
		}
		indReg = cmp.B
		boundReg = cmp.A
		if cmp.Op == ir.OpCmpGt {
			op = ir.OpCmpLt
		} else {
			op = ir.OpCmpLe
		}
	default:
		return none
	}
	// If the comparison is inverted (loop continues on false), the
	// then-branch must enter the loop for our normalized ops.
	if !thenIn {
		return none
	}
	// The induction register must have exactly one in-loop definition
	// of the form `i = add i, step` and one out-of-loop definition.
	var stepIn *ir.Instr
	stepBlock, stepIndex := -1, -1
	var outDef *ir.Instr
	inLoopDefs, outLoopDefs := 0, 0
	for _, d := range ri.defs(indReg) {
		in := ri.instr(d)
		if l.Has(int(d.block)) {
			inLoopDefs++
			stepIn = in
			stepBlock, stepIndex = int(d.block), int(d.index)
		} else {
			outLoopDefs++
			outDef = in
		}
	}
	if inLoopDefs != 1 || outLoopDefs != 1 {
		return none
	}
	if stepIn.Op != ir.OpAdd || stepIn.A != indReg || !stepIn.BImm || stepIn.Imm <= 0 {
		return none
	}
	iv := Induction{
		Found:     true,
		IndVar:    indReg,
		Step:      stepIn.Imm,
		CmpOp:     op,
		Bound:     boundReg,
		StepBlock: stepBlock,
		StepIndex: stepIndex,
	}
	// Init value.
	switch {
	case outDef.Op == ir.OpMov && outDef.BImm:
		iv.InitIsConst = true
		iv.InitConst = outDef.Imm
		iv.InitReg = ir.NoReg
	case outDef.Op == ir.OpMov:
		iv.InitReg = outDef.A
		if c, ok := ri.ConstValue(outDef.A); ok {
			iv.InitIsConst = true
			iv.InitConst = c
		}
	default:
		iv.InitReg = ir.NoReg
	}
	// Bound interpretation.
	if boundIsImm {
		iv.BoundIsConst = true
		iv.BoundConst = boundImm
		iv.Bound = ir.NoReg
	} else {
		if c, ok := ri.ConstValue(boundReg); ok {
			iv.BoundIsConst = true
			iv.BoundConst = c
		} else if p, ok := ri.ParamValue(boundReg); ok {
			iv.BoundIsParam = true
			iv.BoundParam = p
		}
	}
	return iv
}
