package analysis

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/ir"
)

// This file implements the loop transform of §3.4 (Table 5) and the
// single-block loop cloning of §3.5. Both are CFG surgeries that only
// append blocks and rewire terminators, so previously collected probe
// marks (which reference blocks by pointer) stay valid.

// findHeaderCmp locates the comparison defining the header's branch
// condition. Returns nil when the pattern is absent.
func findHeaderCmp(h *ir.Block) *ir.Instr {
	if h.Term.Kind != ir.TermBr {
		return nil
	}
	for i := len(h.Instrs) - 1; i >= 0; i-- {
		in := &h.Instrs[i]
		if in.Dst == h.Term.Cond && in.Op != ir.OpStore && in.Op != ir.OpProbe {
			return in
		}
	}
	return nil
}

// canTransform checks the §3.4 preconditions: a simplified loop with a
// recognized induction variable, exiting only through its header test,
// whose bound is stable across the loop and whose body is free of
// probe barriers.
func (a *analyzer) canTransform(c *Container) bool {
	l, iv := c.Loop.Natural, c.Loop.Ind
	if l == nil || !iv.Found || l.Preheader < 0 {
		return false
	}
	if len(l.Latches) != 1 || len(l.Exits) != 1 || l.Exits[0] != l.Header {
		return false
	}
	if a.hasBarrier(c) {
		return false
	}
	h := a.f.Blocks[l.Header]
	if findHeaderCmp(h) == nil {
		return false
	}
	if iv.Bound != ir.NoReg && !a.ri.SingleDefOutside(iv.Bound, l) {
		return false
	}
	return iv.Bound != ir.NoReg || iv.BoundIsConst
}

// canClone checks the §3.5 preconditions: a simple (small) loop whose
// trip count is only known at run time.
func (a *analyzer) canClone(c *Container) bool {
	if c.Loop.Trips.IsConst() || c.NumBlocks() > maxCloneBlocks {
		return false
	}
	return a.canTransform(c)
}

// incPerStep converts a per-iteration cost into the per-induction-step
// increment used by dynamic probes: inc_total = (i - k) * incPerStep.
func incPerStep(perIter, step int64) int64 {
	inc := (perIter + step/2) / step
	if inc < 1 {
		inc = 1
	}
	return inc
}

// transformBlocks is the number of blocks transformLoop adds.
const transformBlocks = 3

// transformLoop rewrites the loop per Table 5: an uninstrumented inner
// loop bounded to roughly ProbeInterval IR, inside an outer loop that
// probes once per chunk with a dynamically computed increment.
func (a *analyzer) transformLoop(c *Container, perIter int64) {
	f, l, iv := a.f, c.Loop.Natural, c.Loop.Ind
	h := f.Blocks[l.Header]
	cmp := findHeaderCmp(h)
	if cmp == nil {
		panic("analysis: transformLoop preconditions violated")
	}
	// Which branch side exits the loop?
	thenExits := !l.Has(h.Term.Then.Index)
	exitTarget := h.Term.Then
	if !thenExits {
		exitTarget = h.Term.Else
	}

	// Chunk size: number of iterations that fit in one probe interval.
	iters := a.opts.ProbeInterval / perIter
	if iters < 1 {
		iters = 1
	}
	advance := iters * iv.Step

	// The three names are cut from one string: ".chunk" is a prefix of
	// ".chunkprobe".
	names := h.Name + ".chunkprobe" + h.Name + ".outer"
	n := len(h.Name)
	f.ReserveBlocks(transformBlocks)
	outer := f.NewBlock(names[n+len(".chunkprobe"):])
	chunk := f.NewBlock(names[:n+len(".chunk")])
	probeB := f.NewBlock(names[:n+len(".chunkprobe")])

	// outer: re-test the original condition against the original bound.
	cOut := f.NewReg()
	cmpCopy := *cmp
	cmpCopy.Dst = cOut
	leExtra := int64(0)
	if iv.CmpOp == ir.OpCmpLe {
		leExtra = 1
	}
	// outer's one instruction, then chunk's three, or four when a
	// register bound needs its +1.
	ncode := 4
	if iv.Bound != ir.NoReg && leExtra != 0 {
		ncode = 5
	}
	code := append(make([]ir.Instr, 0, ncode), cmpCopy)
	if thenExits {
		outer.Term = ir.Terminator{Kind: ir.TermBr, Cond: cOut, Then: exitTarget, Else: chunk, Val: ir.NoReg}
	} else {
		outer.Term = ir.Terminator{Kind: ir.TermBr, Cond: cOut, Then: chunk, Else: exitTarget, Val: ir.NoReg}
	}

	// chunk: k = i; j = min(i + advance, bound[+1]); jump into the loop.
	k, lim, j := f.NewReg(), f.NewReg(), f.NewReg()
	code = append(code,
		ir.Instr{Op: ir.OpMov, Dst: k, A: iv.IndVar, B: ir.NoReg},
		ir.Instr{Op: ir.OpAdd, Dst: lim, A: iv.IndVar, B: ir.NoReg, Imm: advance, BImm: true},
	)
	if iv.Bound == ir.NoReg {
		code = append(code,
			ir.Instr{Op: ir.OpMin, Dst: j, A: lim, B: ir.NoReg, Imm: iv.BoundConst + leExtra, BImm: true})
	} else if leExtra != 0 {
		bplus := f.NewReg()
		code = append(code,
			ir.Instr{Op: ir.OpAdd, Dst: bplus, A: iv.Bound, B: ir.NoReg, Imm: 1, BImm: true},
			ir.Instr{Op: ir.OpMin, Dst: j, A: lim, B: bplus})
	} else {
		code = append(code,
			ir.Instr{Op: ir.OpMin, Dst: j, A: lim, B: iv.Bound})
	}
	outer.Instrs, chunk.Instrs = code[:1:1], code[1:]
	chunk.Term = ir.Terminator{Kind: ir.TermJmp, Then: h, Cond: ir.NoReg, Val: ir.NoReg}

	// Header now tests i < j (strict, against the chunk limit).
	cmp.Op = ir.OpCmpLt
	cmp.A = iv.IndVar
	cmp.B = j
	cmp.BImm = false
	if thenExits {
		h.Term.Then = probeB
	} else {
		h.Term.Else = probeB
	}

	// probe block: account (i - k) iterations, then re-enter the outer
	// loop.
	a.markLoop(probeB, 0, incPerStep(perIter, iv.Step), iv.IndVar, k)
	probeB.Term = ir.Terminator{Kind: ir.TermJmp, Then: outer, Cond: ir.NoReg, Val: ir.NoReg}

	// The preheader now enters through the outer test.
	ph := f.Blocks[l.Preheader]
	retargeted := false
	if ph.Term.Then == h {
		ph.Term.Then = outer
		retargeted = true
	}
	if ph.Term.Kind == ir.TermBr && ph.Term.Else == h {
		ph.Term.Else = outer
		retargeted = true
	}
	if !retargeted {
		panic(fmt.Sprintf("analysis: preheader %q does not target header %q", ph.Name, h.Name))
	}
	f.Reindex()
}

// cloneLoop implements §3.5: duplicate the (simple) loop into an
// uninstrumented fast version selected at run time when the whole loop
// fits under the probe interval, accounted by a single dynamic probe
// after the loop. The original loop remains and is subsequently
// transformed (§3.4) as the slow path.
func (a *analyzer) cloneLoop(c *Container, perIter int64) {
	f, l, iv := a.f, c.Loop.Natural, c.Loop.Ind
	h := f.Blocks[l.Header]
	ph := f.Blocks[l.Preheader]

	// Copy the loop blocks, in ascending index order: the clone of
	// l.Blocks[k] is f.Blocks[base+k]. The copies' instructions share
	// one array; a copied call keeps its index into f's call table.
	base, n := len(f.Blocks), 0
	for _, bi := range l.Blocks {
		n += len(f.Blocks[bi].Instrs)
	}
	instrs := make([]ir.Instr, n)
	// The names are cut from one string: each block's name and ".fast",
	// the header's with ".fastprobe", which has ".fast" as its prefix.
	var sb strings.Builder
	size := len("probe")
	for _, bi := range l.Blocks {
		size += len(f.Blocks[bi].Name) + len(".fast")
	}
	sb.Grow(size)
	for _, bi := range l.Blocks {
		sb.WriteString(f.Blocks[bi].Name)
		sb.WriteString(".fast")
		if bi == l.Header {
			sb.WriteString("probe")
		}
	}
	names, probeName := sb.String(), ""
	// The transform of the original loop follows (visitLoop): one
	// reservation serves its blocks too.
	f.ReserveBlocks(len(l.Blocks) + 1 + transformBlocks)
	for _, bi := range l.Blocks {
		ob := f.Blocks[bi]
		end := len(ob.Name) + len(".fast")
		nb := f.NewBlock(names[:end])
		if bi == l.Header {
			end += len("probe")
			probeName = names[:end]
		}
		names = names[end:]
		n := copy(instrs, ob.Instrs)
		nb.Instrs, instrs = instrs[:n:n], instrs[n:]
		nb.Term = ob.Term
	}
	cloneOf := func(b *ir.Block) *ir.Block {
		k, _ := slices.BinarySearch(l.Blocks, b.Index)
		return f.Blocks[base+k]
	}
	// Fast-path exit probe: (i - k) * incPerStep, then on to the
	// original exit target.
	thenExits := !l.Has(h.Term.Then.Index)
	exitTarget := h.Term.Then
	if !thenExits {
		exitTarget = h.Term.Else
	}
	fastProbe := f.NewBlock(probeName)
	kf := f.NewReg()
	a.markLoop(fastProbe, 0, incPerStep(perIter, iv.Step), iv.IndVar, kf)
	fastProbe.Term = ir.Terminator{Kind: ir.TermJmp, Then: exitTarget, Cond: ir.NoReg, Val: ir.NoReg}

	// Rewire clone terminators: in-loop targets to clones; the exit
	// edge to the fast probe.
	for _, nb := range f.Blocks[base : base+len(l.Blocks)] {
		remap := func(t *ir.Block) *ir.Block {
			if l.Has(t.Index) {
				return cloneOf(t)
			}
			if t == exitTarget {
				return fastProbe
			}
			return t
		}
		if nb.Term.Then != nil {
			nb.Term.Then = remap(nb.Term.Then)
		}
		if nb.Term.Else != nil {
			nb.Term.Else = remap(nb.Term.Else)
		}
	}

	// Guard in the preheader: estimated loop cost <= probe interval?
	leExtra := int64(0)
	if iv.CmpOp == ir.OpCmpLe {
		leExtra = 1
	}
	bound := iv.Bound
	if bound == ir.NoReg {
		bound = f.NewReg()
		ph.Instrs = append(ph.Instrs,
			ir.Instr{Op: ir.OpMov, Dst: bound, A: ir.NoReg, B: ir.NoReg, Imm: iv.BoundConst, BImm: true})
	}
	diff, est, cond := f.NewReg(), f.NewReg(), f.NewReg()
	ph.Instrs = append(ph.Instrs,
		ir.Instr{Op: ir.OpMov, Dst: kf, A: iv.IndVar, B: ir.NoReg},
		ir.Instr{Op: ir.OpSub, Dst: diff, A: bound, B: iv.IndVar})
	if leExtra != 0 {
		ph.Instrs = append(ph.Instrs,
			ir.Instr{Op: ir.OpAdd, Dst: diff, A: diff, B: ir.NoReg, Imm: 1, BImm: true})
	}
	if iv.Step != 1 {
		ph.Instrs = append(ph.Instrs,
			ir.Instr{Op: ir.OpDiv, Dst: diff, A: diff, B: ir.NoReg, Imm: iv.Step, BImm: true})
	}
	ph.Instrs = append(ph.Instrs,
		ir.Instr{Op: ir.OpMul, Dst: est, A: diff, B: ir.NoReg, Imm: perIter, BImm: true},
		ir.Instr{Op: ir.OpCmpLe, Dst: cond, A: est, B: ir.NoReg, Imm: a.opts.ProbeInterval, BImm: true})
	ph.Term = ir.Terminator{Kind: ir.TermBr, Cond: cond, Then: cloneOf(h), Else: h, Val: ir.NoReg}
	f.Reindex()
}
