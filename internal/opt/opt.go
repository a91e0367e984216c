// Package opt is a small IR optimizer run ahead of the Compiler
// Interrupts analysis — the stand-in for the -O3 pipeline the paper's
// pass consumes. It implements:
//
//   - local constant/copy propagation and constant folding
//   - global folding of single-definition constant registers
//   - dead code elimination (pure defs with no uses)
//   - jump threading through empty forwarding blocks
//   - straight-line block merging
//   - unreachable block elimination
//
// Passes iterate to a fixpoint and share one cfg.Analyses per function:
// a pass that edits instructions only keeps the graph and dominators,
// and one that edits blocks or terminators drops them. Optimize never
// changes observable behavior: memory operations, calls and probes are
// preserved.
package opt

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Stats reports what Optimize did.
type Stats struct {
	Folded        int
	DeadRemoved   int
	BlocksMerged  int
	BlocksRemoved int
	JumpsThreaded int
}

// Module optimizes every function of m and returns aggregate stats.
// One analysis bundle serves the functions in turn.
func Module(m *ir.Module) Stats {
	var total Stats
	an := cfg.NewAnalyses(nil)
	for _, f := range m.Funcs {
		an.Reset(f)
		s := optimize(f, an)
		total.Folded += s.Folded
		total.DeadRemoved += s.DeadRemoved
		total.BlocksMerged += s.BlocksMerged
		total.BlocksRemoved += s.BlocksRemoved
		total.JumpsThreaded += s.JumpsThreaded
	}
	return total
}

// optimize optimizes f to a fixpoint; an is an empty bundle for f.
func optimize(f *ir.Func, an *cfg.Analyses) Stats {
	var total Stats
	uses := make([]int, f.NumRegs)
	for pass := 0; pass < 10; pass++ {
		changed := false
		s := Stats{}
		if n := foldConstants(f, an); n > 0 {
			s.Folded += n
			changed = true
		}
		if n := eliminateDead(f, an, uses); n > 0 {
			s.DeadRemoved += n
			changed = true
		}
		if n := threadJumps(f); n > 0 {
			an.CFGChanged()
			s.JumpsThreaded += n
			changed = true
		}
		if n := mergeBlocks(f, an.Graph()); n > 0 {
			an.CFGChanged()
			s.BlocksMerged += n
			changed = true
		}
		if n := removeUnreachable(f, an.Graph()); n > 0 {
			an.CFGChanged()
			s.BlocksRemoved += n
			changed = true
		}
		total.Folded += s.Folded
		total.DeadRemoved += s.DeadRemoved
		total.BlocksMerged += s.BlocksMerged
		total.BlocksRemoved += s.BlocksRemoved
		total.JumpsThreaded += s.JumpsThreaded
		if !changed {
			break
		}
	}
	f.Reindex()
	return total
}

func evalBinary(op ir.Opcode, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, true
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, true
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << (uint64(b) & 63), true
	case ir.OpShr:
		return a >> (uint64(b) & 63), true
	case ir.OpCmpEq:
		return b2i(a == b), true
	case ir.OpCmpNe:
		return b2i(a != b), true
	case ir.OpCmpLt:
		return b2i(a < b), true
	case ir.OpCmpLe:
		return b2i(a <= b), true
	case ir.OpCmpGt:
		return b2i(a > b), true
	case ir.OpCmpGe:
		return b2i(a >= b), true
	case ir.OpMin:
		if a < b {
			return a, true
		}
		return b, true
	case ir.OpMax:
		if a > b {
			return a, true
		}
		return b, true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// foldConstants performs block-local constant/copy propagation plus a
// global pass over single-definition constant registers (found via the
// cfg reg analysis, so it is safe across blocks). A folded instruction
// still defines its register, so the register info stays current; a
// folded branch drops an's analyses.
func foldConstants(f *ir.Func, an *cfg.Analyses) int {
	folded, branches := 0, 0
	ri, dom := an.Regs(), an.Dom()
	for _, b := range f.Blocks {
		// Block-local environment: register -> known constant. Any
		// redefinition invalidates; calls do not clobber registers in
		// this IR (callee frames are separate).
		local := make(map[ir.Reg]int64)
		instrIdx := 0
		// A single-definition constant is only usable where its
		// definition dominates the use (otherwise the use could read
		// the register's zero value before the definition runs).
		globalConst := func(r ir.Reg) (int64, bool) {
			v, ok := ri.ConstValue(r)
			if !ok {
				return 0, false
			}
			db, di, ok := ri.DefSite(r)
			if !ok {
				return 0, false
			}
			if db == b.Index {
				if di < instrIdx {
					return v, true
				}
				return 0, false
			}
			if dom.Dominates(db, b.Index) {
				return v, true
			}
			return 0, false
		}
		lookup := func(r ir.Reg) (int64, bool) {
			if r == ir.NoReg {
				return 0, false
			}
			if v, ok := local[r]; ok {
				return v, true
			}
			return globalConst(r)
		}
		for i := range b.Instrs {
			instrIdx = i
			in := &b.Instrs[i]
			switch {
			case in.Op == ir.OpMov && in.BImm:
				local[in.Dst] = in.Imm
				continue
			case in.Op == ir.OpMov:
				if v, ok := lookup(in.A); ok {
					in.BImm = true
					in.Imm = v
					in.A = ir.NoReg
					local[in.Dst] = v
					folded++
				} else {
					delete(local, in.Dst)
				}
				continue
			case in.Op.IsBinary():
				av, aok := lookup(in.A)
				var bv int64
				bok := false
				if in.BImm {
					bv, bok = in.Imm, true
				} else {
					bv, bok = lookup(in.B)
				}
				if aok && bok {
					if v, ok := evalBinary(in.Op, av, bv); ok {
						in.Op = ir.OpMov
						in.A = ir.NoReg
						in.B = ir.NoReg
						in.BImm = true
						in.Imm = v
						local[in.Dst] = v
						folded++
						continue
					}
				}
				// Partially fold: materialize a constant B operand.
				if !in.BImm && bok {
					in.B = ir.NoReg
					in.BImm = true
					in.Imm = bv
					folded++
				}
				delete(local, in.Dst)
				continue
			}
			if in.Dst != ir.NoReg {
				delete(local, in.Dst)
			}
		}
		// Fold a constant branch condition into an unconditional jump.
		instrIdx = len(b.Instrs)
		if b.Term.Kind == ir.TermBr {
			if v, ok := lookup(b.Term.Cond); ok {
				target := b.Term.Else
				if v != 0 {
					target = b.Term.Then
				}
				b.Term = ir.Terminator{Kind: ir.TermJmp, Then: target, Cond: ir.NoReg, Val: ir.NoReg}
				folded++
				branches++
			}
		}
	}
	if branches > 0 {
		an.CFGChanged()
	}
	return folded
}

// hasSideEffects reports whether removing the instruction could change
// behavior even when its result is unused.
func hasSideEffects(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpStore, ir.OpAtomicAdd, ir.OpCall, ir.OpExtCall, ir.OpProbe:
		return true
	case ir.OpLoad:
		// Loads can fault on wild addresses; keep them.
		return true
	case ir.OpReadCycles:
		// Reading the cycle counter has a timing side effect only;
		// safe to drop when unused.
		return false
	}
	return false
}

// eliminateDead removes pure instructions whose destination is never
// read (including by terminators or probes), iterating within the
// pass, through an, which keeps its analyses current. uses is scratch
// of f.NumRegs counters.
func eliminateDead(f *ir.Func, an *cfg.Analyses, uses []int) int {
	removed := 0
	for {
		clear(uses)
		markUse := func(r ir.Reg) {
			if r != ir.NoReg {
				uses[r]++
			}
		}
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				switch in.Op {
				case ir.OpMov:
					if !in.BImm {
						markUse(in.A)
					}
				case ir.OpLoad:
					markUse(in.A)
				case ir.OpStore, ir.OpAtomicAdd:
					markUse(in.A)
					markUse(in.B)
				case ir.OpCall, ir.OpExtCall:
					for _, a := range in.Call.Args {
						markUse(a)
					}
				case ir.OpProbe:
					if in.Probe != nil {
						markUse(in.Probe.IndVar)
						markUse(in.Probe.Base)
					}
				default:
					if in.Op.IsBinary() {
						markUse(in.A)
						if !in.BImm {
							markUse(in.B)
						}
					}
				}
			}
			markUse(b.Term.Cond)
			markUse(b.Term.Val)
		}
		// Parameters are observable (callers pass them); their defs can
		// still die, but a param register itself has no defining instr.
		n := an.DeleteInstrs(func(in *ir.Instr) bool {
			return in.Dst != ir.NoReg && uses[in.Dst] == 0 && !hasSideEffects(in)
		})
		if n == 0 {
			return removed
		}
		removed += n
	}
}

// threadJumps retargets edges that pass through empty forwarding
// blocks (a block with no instructions whose terminator is an
// unconditional jump).
func threadJumps(f *ir.Func) int {
	forward := func(b *ir.Block) *ir.Block {
		seen := map[*ir.Block]bool{}
		for len(b.Instrs) == 0 && b.Term.Kind == ir.TermJmp && !seen[b] {
			seen[b] = true
			b = b.Term.Then
		}
		return b
	}
	n := 0
	for _, b := range f.Blocks {
		switch b.Term.Kind {
		case ir.TermJmp:
			if t := forward(b.Term.Then); t != b.Term.Then && t != b {
				b.Term.Then = t
				n++
			}
		case ir.TermBr:
			if t := forward(b.Term.Then); t != b.Term.Then && t != b {
				b.Term.Then = t
				n++
			}
			if t := forward(b.Term.Else); t != b.Term.Else && t != b {
				b.Term.Else = t
				n++
			}
		}
	}
	return n
}

// mergeBlocks appends a single-predecessor block into its unique
// unconditional predecessor. g is the graph before the first merge; the
// predecessor counts it reads are kept current across merges here.
func mergeBlocks(f *ir.Func, g *cfg.Graph) int {
	var npreds []int // nil until the first merge
	preds := func(b *ir.Block) int {
		if npreds == nil {
			return len(g.Preds(b.Index))
		}
		return npreds[b.Index]
	}
	merged := 0
	for _, b := range f.Blocks {
		for {
			if b.Term.Kind != ir.TermJmp {
				break
			}
			succ := b.Term.Then
			if succ == b || succ == f.Entry() {
				break
			}
			if preds(succ) != 1 {
				break
			}
			if npreds == nil {
				npreds = make([]int, g.N)
				for i := range npreds {
					npreds[i] = len(g.Preds(i))
				}
			}
			b.Instrs = append(b.Instrs, succ.Instrs...)
			succ.Instrs = nil
			b.Term = succ.Term
			succ.Term = ir.Terminator{Kind: ir.TermJmp, Then: b, Cond: ir.NoReg, Val: ir.NoReg}
			// succ is now unreachable; a later pass removes it. Its
			// successors trade it for b, it loses its one predecessor
			// (b), and b gains it.
			npreds[succ.Index] = 0
			npreds[b.Index]++
			merged++
		}
	}
	return merged
}

// removeUnreachable drops blocks with no path from the entry; g is the
// function's current graph.
func removeUnreachable(f *ir.Func, g *cfg.Graph) int {
	out := f.Blocks[:0]
	removed := 0
	for _, b := range f.Blocks {
		if g.Reachable(b.Index) {
			out = append(out, b)
		} else {
			removed++
		}
	}
	f.Blocks = out
	f.Reindex()
	return removed
}
