package cfg

import "repro/internal/ir"

// SplitCriticalEdges inserts an empty block on every critical edge
// (an edge whose source has multiple successors and whose destination
// has multiple predecessors) of a's function. This is part of the §3.1
// pre-processing that rewrites CFGs into the canonical forms the
// container-matching rules expect. Returns true if the function
// changed, and then a holds no analyses.
func SplitCriticalEdges(a *Analyses) bool {
	f, g := a.f, a.Graph()
	changed := false
	// Snapshot the block list: we append while iterating.
	blocks := append([]*ir.Block(nil), f.Blocks...)
	for _, b := range blocks {
		if b.Term.Kind != ir.TermBr {
			continue
		}
		split := func(target *ir.Block) *ir.Block {
			if len(g.Preds(target.Index)) < 2 {
				return target
			}
			nb := f.NewBlock(b.Name + ".crit")
			nb.Term = ir.Terminator{Kind: ir.TermJmp, Then: target, Cond: ir.NoReg, Val: ir.NoReg}
			changed = true
			return nb
		}
		if then := split(b.Term.Then); then != b.Term.Then {
			b.Term.Then = then
		}
		if els := split(b.Term.Else); els != b.Term.Else {
			b.Term.Else = els
		}
	}
	if changed {
		f.Reindex()
		a.CFGChanged()
	}
	return changed
}

// LoopSimplify canonicalizes every natural loop of a's function, in the
// manner of LLVM's loop-simplify pass: each loop gets a dedicated
// preheader (a unique out-of-loop predecessor of the header whose only
// successor is the header) and a single latch (back edges from multiple
// latches are funneled through a fresh block). Returns true if the
// function changed. The analyses of the last pass, the one that found
// nothing to change, stay in a for the caller.
func LoopSimplify(a *Analyses) bool {
	changed := false
	for pass := 0; pass < 8; pass++ { // loop count is small; a few passes reach fixpoint
		g, lf := a.Graph(), a.Loops()
		passChanged := false
		for _, l := range lf.Loops {
			if insertPreheader(a.f, g, l) || mergeLatches(a.f, g, l) {
				passChanged = true
				break // CFG changed; rebuild analyses
			}
		}
		if !passChanged {
			break
		}
		a.CFGChanged()
		changed = true
	}
	return changed
}

// insertPreheader gives loop l a dedicated preheader if it lacks one.
func insertPreheader(f *ir.Func, g *Graph, l *Loop) bool {
	if l.Preheader >= 0 {
		return false
	}
	header := f.Blocks[l.Header]
	ph := f.NewBlock(header.Name + ".preheader")
	ph.Term = ir.Terminator{Kind: ir.TermJmp, Then: header, Cond: ir.NoReg, Val: ir.NoReg}
	// Redirect all out-of-loop predecessors to the preheader.
	redirected := false
	for _, pi := range g.Preds(l.Header) {
		if l.Has(int(pi)) {
			continue
		}
		p := f.Blocks[pi]
		if p.Term.Then == header {
			p.Term.Then = ph
			redirected = true
		}
		if p.Term.Kind == ir.TermBr && p.Term.Else == header {
			p.Term.Else = ph
			redirected = true
		}
	}
	if l.Header == 0 {
		// The entry block is the header: the implicit function entry
		// edge also enters the loop, so the preheader must become the
		// new entry block.
		f.Blocks = f.Blocks[:len(f.Blocks)-1]
		nb := make([]*ir.Block, 0, len(f.Blocks)+1)
		nb = append(nb, ph)
		nb = append(nb, f.Blocks...)
		f.Blocks = nb
		f.Reindex()
		return true
	}
	if !redirected {
		// Loop not entered from outside (dead loop); drop the block.
		f.Blocks = f.Blocks[:len(f.Blocks)-1]
		return false
	}
	f.Reindex()
	return true
}

// mergeLatches funnels multiple back edges through one fresh latch.
func mergeLatches(f *ir.Func, g *Graph, l *Loop) bool {
	if len(l.Latches) <= 1 {
		return false
	}
	header := f.Blocks[l.Header]
	latch := f.NewBlock(header.Name + ".latch")
	latch.Term = ir.Terminator{Kind: ir.TermJmp, Then: header, Cond: ir.NoReg, Val: ir.NoReg}
	for _, ti := range l.Latches {
		t := f.Blocks[ti]
		if t.Term.Then == header {
			t.Term.Then = latch
		}
		if t.Term.Kind == ir.TermBr && t.Term.Else == header {
			t.Term.Else = latch
		}
	}
	f.Reindex()
	return true
}

// Canonicalize applies the full §3.1 pre-processing: return
// unification, then loop-simplify and critical-edge splitting iterated
// to a fixpoint. Returns true if the function changed.
func Canonicalize(f *ir.Func) bool {
	changed := UnifyReturns(f)
	a := NewAnalyses(f)
	for i := 0; i < 8; i++ {
		c1 := LoopSimplify(a)
		c2 := SplitCriticalEdges(a)
		if !c1 && !c2 {
			break
		}
		changed = changed || c1 || c2
	}
	return changed
}
