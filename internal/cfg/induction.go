package cfg

import "repro/internal/ir"

// RegInfo summarizes where each register of a function is defined. It
// backs the light-weight "scalar evolution" used for trip counts and
// parametric function costs.
type RegInfo struct {
	f *ir.Func
	// defCount[r] is the number of static definitions of r. Parameters
	// have an implicit definition not counted here.
	defCount []int
	// onlyDef[r] is the unique defining instruction when defCount==1.
	onlyDef []*ir.Instr
	// onlyDefBlock[r] is that definition's block index.
	onlyDefBlock []int
	// onlyDefIndex[r] is the definition's index within its block.
	onlyDefIndex []int
}

// DefSite returns the unique definition site (block index, instruction
// index) of r, when r has exactly one static definition.
func (ri *RegInfo) DefSite(r ir.Reg) (block, index int, ok bool) {
	if r == ir.NoReg || int(r) >= len(ri.defCount) || ri.defCount[r] != 1 {
		return 0, 0, false
	}
	return ri.onlyDefBlock[r], ri.onlyDefIndex[r], true
}

// AnalyzeRegs scans f and records definition sites for every register.
func AnalyzeRegs(f *ir.Func) *RegInfo {
	n := f.NumRegs
	ints := make([]int, 3*n) // defCount, onlyDefBlock, onlyDefIndex
	ri := &RegInfo{
		f:            f,
		defCount:     ints[:n:n],
		onlyDef:      make([]*ir.Instr, n),
		onlyDefBlock: ints[n : 2*n : 2*n],
		onlyDefIndex: ints[2*n:],
	}
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Dst == ir.NoReg {
				continue
			}
			switch in.Op {
			case ir.OpStore, ir.OpProbe, ir.OpNop:
				continue
			}
			ri.defCount[in.Dst]++
			ri.onlyDef[in.Dst] = in
			ri.onlyDefBlock[in.Dst] = bi
			ri.onlyDefIndex[in.Dst] = i
		}
	}
	return ri
}

// ConstValue reports whether r is a compile-time constant: a register
// whose single static definition is `mov imm` (and which is not a
// parameter).
func (ri *RegInfo) ConstValue(r ir.Reg) (int64, bool) {
	if r == ir.NoReg || int(r) < ri.f.NumParams {
		return 0, false
	}
	if ri.defCount[r] != 1 {
		return 0, false
	}
	d := ri.onlyDef[r]
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
	if ri.defCount[r] != 0 {
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
		return ri.defCount[r] == 0
	}
	return ri.defCount[r] == 1 && !l.Has(ri.onlyDefBlock[r])
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
	for bi, b := range f.Blocks {
		for ii := range b.Instrs {
			in := &b.Instrs[ii]
			if in.Dst != indReg || in.Op == ir.OpStore || in.Op == ir.OpProbe {
				continue
			}
			if l.Has(bi) {
				inLoopDefs++
				stepIn = in
				stepBlock, stepIndex = bi, ii
			} else {
				outLoopDefs++
				outDef = in
			}
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
