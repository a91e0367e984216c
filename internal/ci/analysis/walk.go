package analysis

import "repro/internal/ir"

// This file contains the probe-placement walker: given the container
// tree (§3.2) and evaluated costs (§3.3), it decides which containers
// are transparent (their cost simply accumulates into the enclosing
// container) and which must carry probes, inserting marks so that the
// IR distance between probes stays within Options.ProbeInterval along
// every path, while the counter never misses more than roughly the
// allowable error at region boundaries.
//
// The walker threads a "pending" value: the exact number of IR
// instructions executed since the last probe along the (single) path
// through the current chain context.

// armMean applies the paper's g function: the mean of two branch-arm
// costs, accepted only when the arms differ by at most the allowable
// error and the mean fits under the probe interval.
func armMean(a, b Cost, opts *Options) Cost {
	if !a.DiffWithin(b, opts.AllowableError) {
		return Unknown()
	}
	m := a.Mean(b)
	if m.Kind == CostConst && m.C > opts.ProbeInterval {
		return Unknown()
	}
	return m
}

// instrumentFunc walks the reduction and emits probe marks.
func (a *analyzer) instrumentFunc() {
	regions := a.res.Reduction.Regions
	if root := a.res.Reduction.Root(); root != nil {
		residual := a.visitInstrument(root, 0)
		if residual > 0 {
			// Flush before the function returns so callers can treat
			// an instrumented callee as fully self-accounting.
			a.markEnd(root.Exit, residual)
		}
		return
	}
	a.instrumentUnmatched(regions)
}

// markEnd emits a mark at the end of block b (before its terminator).
func (a *analyzer) markEnd(b *ir.Block, inc int64) {
	a.mark(b, len(b.Instrs), inc)
}

// visit processes container c with the given pending count and returns
// the new pending. Transparent containers just accumulate; all others
// are instrumented internally.
func (a *analyzer) visit(c *Container, pending int64) int64 {
	if c.Cost.IsConst() && !a.hasBarrier(c) && pending+c.Cost.C <= a.opts.ProbeInterval {
		return pending + c.Cost.C
	}
	pending = a.flushBefore(c, pending)
	return a.visitInstrument(c, pending)
}

// flushBefore emits a probe for the pending count ahead of a container
// that will do its own internal accounting. Small residues (under the
// flush threshold) are dropped — the documented approximation that
// trades bounded undercounting for fewer probes.
func (a *analyzer) flushBefore(c *Container, pending int64) int64 {
	if pending <= a.flushThreshold {
		if c.IsLoop() {
			return 0 // loops account per-iteration; residue cannot carry in
		}
		return pending
	}
	if c.IsLoop() {
		if l := c.Loop.Natural; l != nil && l.Preheader >= 0 {
			a.markEnd(a.f.Blocks[l.Preheader], pending)
		}
		return 0
	}
	a.mark(c.Entry, 0, pending)
	return 0
}

// visitInstrument places probes inside c so that its cost is fully
// accounted (modulo bounded tails) and returns the residual pending at
// its exit.
func (a *analyzer) visitInstrument(c *Container, pending int64) int64 {
	switch c.Kind {
	case CBlock:
		return a.walkBlock(c.Block, pending)
	case CChain:
		for _, ch := range c.Children {
			pending = a.visit(ch, pending)
		}
		return pending
	case CDiamond:
		head, a1, a2, join := c.Children[0], c.Children[1], c.Children[2], c.Children[3]
		pending = a.visit(head, pending)
		if g := armMean(a1.Cost, a2.Cost, a.opts); g.IsConst() &&
			pending+g.C <= a.opts.ProbeInterval && !a.hasBarrier(a1) && !a.hasBarrier(a2) {
			pending += g.C
		} else {
			if pending > a.flushThreshold {
				a.markEnd(head.Exit, pending)
				pending = 0
			}
			r1 := a.visitArm(a1, pending)
			r2 := a.visitArm(a2, pending)
			pending = (r1 + r2) / 2
		}
		return a.visit(join, pending)
	case CTriangle:
		head, arm, join := c.Children[0], c.Children[1], c.Children[2]
		pending = a.visit(head, pending)
		if g := armMean(arm.Cost, Const(0), a.opts); g.IsConst() &&
			pending+g.C <= a.opts.ProbeInterval && !a.hasBarrier(arm) {
			pending += g.C
		} else {
			if pending > a.flushThreshold {
				a.markEnd(head.Exit, pending)
				pending = 0
			}
			r := a.visitArm(arm, pending)
			pending = (r + pending) / 2
		}
		return a.visit(join, pending)
	case CLoopSelf, CLoopWhile, CLoopDo:
		return a.visitLoop(c)
	}
	return pending
}

// visitArm instruments one branch arm and flushes its residual at the
// arm's exit so the two join paths agree (within the flush threshold).
func (a *analyzer) visitArm(arm *Container, pending int64) int64 {
	r := a.visit(arm, pending)
	if r > a.flushThreshold && !arm.IsLoop() {
		a.markEnd(arm.Exit, r)
		return 0
	}
	if arm.IsLoop() {
		return 0
	}
	return r
}

// perIterCost returns the constant cost of one loop iteration, when
// known.
func (c *Container) perIterCost() (int64, bool) {
	var total Cost
	switch c.Kind {
	case CLoopSelf:
		total = c.Children[0].Cost
	case CLoopWhile, CLoopDo:
		total = c.Children[0].Cost.Add(c.Children[1].Cost)
	default:
		return 0, false
	}
	if !total.IsConst() {
		return 0, false
	}
	return total.C, true
}

// visitLoop instruments a loop container: via the §3.4 transform (and
// §3.5 cloning) when the loop is canonical, or with per-iteration
// accounting otherwise. Entry pending has already been flushed/dropped.
func (a *analyzer) visitLoop(c *Container) int64 {
	perIter, perIterOK := c.perIterCost()
	if perIterOK && perIter <= a.opts.ProbeInterval &&
		!a.opts.DisableLoopTransform && a.canTransform(c) {
		// Residual: per-entry bookkeeping the chunk probes don't see —
		// the outer re-test, the chunk setup, the final outer test, and
		// (when cloned) the run-time size guard in the preheader.
		residual := int64(9)
		if !c.Loop.Trips.IsConst() && !a.opts.DisableLoopClone && a.canClone(c) {
			a.cloneLoop(c, perIter)
			a.res.LoopsCloned++
			a.opts.stage("loop-clone", a.f)
			residual += 8
		}
		a.transformLoop(c, perIter)
		a.res.LoopsTransformed++
		a.opts.stage("loop-transform", a.f)
		return residual
	}
	// Conservative per-iteration accounting (§3.4 fallback): probe at
	// the iteration's end with whatever accumulated.
	switch c.Kind {
	case CLoopSelf:
		body := c.Children[0]
		r := a.visit(body, 0)
		if r > 0 && !body.IsLoop() {
			a.markEnd(body.Exit, r)
		}
		return 0
	case CLoopWhile:
		header, body := c.Children[0], c.Children[1]
		p := a.visit(header, 0)
		p = a.visit(body, p)
		if p > 0 && !body.IsLoop() {
			a.markEnd(body.Exit, p)
		}
		// Exit path runs the header once more, unaccounted.
		if header.Cost.IsConst() {
			return header.Cost.C
		}
		return 0
	case CLoopDo:
		top, bottom := c.Children[0], c.Children[1]
		p := a.visit(top, 0)
		p = a.visit(bottom, p)
		if p > 0 && !bottom.IsLoop() {
			a.markEnd(bottom.Exit, p)
		}
		return 0
	}
	return 0
}

// walkBlock does instruction-level accounting within one basic block,
// emitting probes after barrier instructions (uninstrumented calls)
// and whenever the running count would exceed the probe interval.
func (a *analyzer) walkBlock(b *ir.Block, pending int64) int64 {
	for i := range b.Instrs {
		cost, barrier := a.instrCost(&b.Instrs[i])
		if cost.IsConst() {
			pending += cost.C
		} else {
			pending += 1 + ExternCostIR
			barrier = true
		}
		if barrier || pending > a.opts.ProbeInterval {
			a.mark(b, i+1, pending)
			pending = 0
		}
	}
	return pending + 1 // terminator
}

// instrumentUnmatched handles CFGs the rules could not fully reduce
// (§3.6). Each remaining region accounts for itself; the CoreDet-style
// balance optimization absorbs small constant-cost predecessor regions
// into their successor's accounting.
func (a *analyzer) instrumentUnmatched(regions []*Region) {
	absorbed := make(map[*Region]bool)
	pendingIn := make(map[*Region]int64)
	for _, r := range regions {
		if len(r.Preds) == 0 {
			continue
		}
		ok := true
		var costs []int64
		for _, p := range r.Preds {
			if p == r || len(p.Succs) != 1 || p.C.IsLoop() || a.hasBarrier(p.C) {
				ok = false
				break
			}
			if !p.C.Cost.IsConst() || p.C.Cost.C > a.flushThreshold {
				ok = false
				break
			}
			costs = append(costs, p.C.Cost.C)
		}
		if !ok {
			continue
		}
		// All pairwise within the allowable error?
		minC, maxC := costs[0], costs[0]
		var sum int64
		for _, c := range costs {
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
			sum += c
		}
		if maxC-minC > a.opts.AllowableError {
			continue
		}
		for _, p := range r.Preds {
			absorbed[p] = true
		}
		pendingIn[r] = sum / int64(len(costs))
	}
	for _, r := range regions {
		if absorbed[r] {
			continue
		}
		res := a.visitInstrument(r.C, pendingIn[r])
		if res > 0 && !r.C.IsLoop() {
			a.markEnd(r.C.Exit, res)
		}
	}
}
