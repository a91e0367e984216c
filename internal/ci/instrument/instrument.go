// Package instrument implements the instrumentation phase (§4): it
// turns analysis marks — or simpler placement policies for the baseline
// designs of §5.4 — into probe instructions in the IR.
//
// Supported designs:
//
//	CI           the paper's static-analysis pass (pure IR probes)
//	CICycles     CI placement with IR-gated cycle-counter probes
//	Naive        a probe in every basic block
//	NaiveCycles  Naive placement with IR-gated cycle-counter probes
//	CD           Naive plus CoreDet-style balance optimizations
//	CnB          probes at all calls and back-edges (yield-point style)
//	CnBCycles    CnB with a cycle-counter read at every event
//	UserInterrupt  hardware user-level interrupts: no probes at all;
//	             the VM delivers asynchronously on a cycle cadence
package instrument

import (
	"fmt"
	"slices"

	"repro/internal/cfg"
	"repro/internal/ci/analysis"
	"repro/internal/ir"
)

// Design selects the probe design.
type Design uint8

const (
	CI Design = iota
	CICycles
	Naive
	NaiveCycles
	CD
	CnB
	CnBCycles
	// UserInterrupt models hardware user-level interrupts (uintr): the
	// code carries no probe instructions; delivery is asynchronous on a
	// cycle cadence with a fixed latency cost, modeled by the VM
	// (vm.HWConfig with User set, costed by CostModel.UIntrCost /
	// UIntrLatency). It must stay last-declared so earlier design
	// values — which key compile caches and baseline cells — are stable.
	UserInterrupt
)

var designNames = [...]string{
	CI: "CI", CICycles: "CI-Cycles", Naive: "Naive",
	NaiveCycles: "Naive-Cycles", CD: "CD", CnB: "CnB",
	CnBCycles: "CnB-Cycles", UserInterrupt: "UIntr",
}

// String returns the paper's name for the design.
func (d Design) String() string {
	if int(d) < len(designNames) {
		return designNames[d]
	}
	return fmt.Sprintf("design(%d)", uint8(d))
}

// Designs lists all designs in the order the paper's plots use, with
// the post-paper uintr axis appended. Tables that iterate this list
// render new designs without per-command edits.
var Designs = []Design{CI, CICycles, CnB, CD, Naive, NaiveCycles, CnBCycles, UserInterrupt}

// Options configures instrumentation.
type Options struct {
	Design Design
	// Analysis configures the CI analysis (probe interval, allowable
	// error).
	Analysis analysis.Options
	// StageHook, when non-nil, observes the whole module at each
	// module-level pipeline point: "input" (before any rewriting),
	// "analysis" (after Analyze's canonicalization and loop rewrites,
	// before probes; CI designs only) and "probes" (after probe
	// insertion). It must not mutate the module.
	StageHook ModStageHook
}

// ModStageHook observes the module after a named instrumentation stage.
type ModStageHook func(stage string, m *ir.Module)

// Result reports what instrumentation did.
type Result struct {
	Mod *ir.Module
	// Analysis holds the per-function analysis results (CI designs
	// only).
	Analysis *analysis.ModuleResult
	// Probes is the number of probe instructions inserted.
	Probes int
}

// Instrument adds probes of the configured design to m. It mutates m;
// clone first to keep an uninstrumented copy.
func Instrument(m *ir.Module, opts Options) (*Result, error) {
	res := &Result{Mod: m}
	observe := func(stage string) {
		if opts.StageHook != nil {
			opts.StageHook(stage, m)
		}
	}
	observe("input")
	switch opts.Design {
	case CI, CICycles:
		res.Analysis = analysis.Analyze(m, opts.Analysis)
		observe("analysis")
		for _, f := range m.Funcs {
			fr := res.Analysis.Funcs[f.Name]
			if fr == nil {
				continue
			}
			res.Probes += applyMarks(f, fr.Marks, opts.Design == CICycles)
		}
	case Naive, NaiveCycles:
		res.Probes = instrumentEveryBlock(m, opts, opts.Design == NaiveCycles, false)
	case CD:
		res.Probes = instrumentEveryBlock(m, opts, false, true)
	case CnB, CnBCycles:
		res.Probes = instrumentCallsAndBackedges(m, opts.Design == CnBCycles)
	case UserInterrupt:
		// Hardware user-level interrupts need no probe instructions: the
		// module passes through untouched and the VM delivers on a cycle
		// cadence instead.
	default:
		return nil, fmt.Errorf("instrument: unknown design %d", opts.Design)
	}
	observe("probes")
	if err := m.Verify(); err != nil {
		return nil, fmt.Errorf("instrument: output does not verify: %w", err)
	}
	return res, nil
}

// applyMarks inserts probe instructions at the analysis marks in one
// pass. The marks are ordered by block, and within a block by
// descending index with ties in the analysis's order: inserting them
// one at a time in that order, each before Instrs[Index] (or at the
// end when Index is past it), gives the layout this builds directly.
// Each marked block's instructions are rebuilt once, at their final
// size, from one array per function; a probe's operands are inline.
func applyMarks(f *ir.Func, marks []analysis.Mark, cycles bool) int {
	if len(marks) == 0 {
		return 0
	}
	f.Reindex()
	ms := slices.Clone(marks)
	slices.SortStableFunc(ms, func(a, b analysis.Mark) int {
		if a.Block != b.Block {
			return a.Block.Index - b.Block.Index
		}
		return b.Index - a.Index
	})
	total := len(ms)
	for i, mk := range ms {
		if i == 0 || mk.Block != ms[i-1].Block {
			total += len(mk.Block.Instrs)
		}
	}
	instrs := make([]ir.Instr, total)
	probe := func(mk analysis.Mark) ir.Instr {
		pi := ir.ProbeInfo{Kind: ir.ProbeIR, Inc: mk.Inc, IndVar: ir.NoReg, Base: ir.NoReg}
		switch {
		case mk.Loop && cycles:
			pi.Kind = ir.ProbeCyclesLoop
		case mk.Loop:
			pi.Kind = ir.ProbeIRLoop
		case cycles:
			pi.Kind = ir.ProbeCycles
		}
		if mk.Loop {
			pi.IndVar, pi.Base = mk.IndVar, mk.Base
		}
		return ir.ProbeInstr(pi)
	}
	for len(ms) > 0 {
		b, old := ms[0].Block, ms[0].Block.Instrs
		k := 1
		for k < len(ms) && ms[k].Block == b {
			k++
		}
		group := ms[:k]
		ms = ms[k:]
		// Marks past the end land at the end in group order; the others
		// sit before their instruction, the later-inserted first.
		past := 0
		for past < len(group) && group[past].Index > len(old) {
			past++
		}
		n, out := 0, instrs[:len(old)+k:len(old)+k]
		instrs = instrs[len(old)+k:]
		r := len(group) - 1
		for at := 0; at <= len(old); at++ {
			for ; r >= past && group[r].Index == at; r-- {
				out[n] = probe(group[r])
				n++
			}
			if at < len(old) {
				out[n] = old[at]
				n++
			}
		}
		for _, mk := range group[:past] {
			out[n] = probe(mk)
			n++
		}
		b.Instrs = out
	}
	return len(marks)
}

// staticBlockCost is the increment a context-free design charges for a
// block: one per instruction (+ terminator), plus the extern heuristic
// for uninstrumented external calls.
func staticBlockCost(b *ir.Block) int64 {
	cost := int64(len(b.Instrs)) + 1
	for i := range b.Instrs {
		switch b.Instrs[i].Op {
		case ir.OpExtCall:
			cost += analysis.ExternCostIR
		case ir.OpProbe:
			cost--
		}
	}
	return cost
}

// instrumentEveryBlock implements Naive / Naive-Cycles / CD: one probe
// at the end of every basic block with the block's static cost. With
// coredet set, the CoreDet-style balance optimizations (§3.6) then
// remove probes whose cost can be pushed to, or absorbed from,
// neighbors.
func instrumentEveryBlock(m *ir.Module, opts Options, cycles, coredet bool) int {
	eps := opts.Analysis.AllowableError
	if eps <= 0 {
		eps = opts.Analysis.ProbeInterval
	}
	if eps <= 0 {
		eps = 1000
	}
	probes := 0
	for _, f := range m.Funcs {
		if f.NoInstrument {
			continue
		}
		f.Reindex()
		inc := make([]int64, len(f.Blocks))
		has := make([]bool, len(f.Blocks))
		for i, b := range f.Blocks {
			inc[i] = staticBlockCost(b)
			has[i] = true
		}
		if coredet {
			applyBalance(f, inc, has, eps)
		}
		kind := ir.ProbeIR
		if cycles {
			kind = ir.ProbeCycles
		}
		// Every probed block is rebuilt once, one probe longer, from one
		// array per function.
		nprobes, total := 0, 0
		for i, b := range f.Blocks {
			if has[i] {
				nprobes++
				total += len(b.Instrs) + 1
			}
		}
		instrs := make([]ir.Instr, total)
		for i, b := range f.Blocks {
			if !has[i] {
				continue
			}
			n := len(b.Instrs) + 1
			out := instrs[:n:n]
			instrs = instrs[n:]
			copy(out, b.Instrs)
			out[n-1] = ir.ProbeInstr(ir.ProbeInfo{Kind: kind, Inc: inc[i], IndVar: ir.NoReg, Base: ir.NoReg})
			b.Instrs = out
		}
		probes += nprobes
	}
	return probes
}

// applyBalance is the CoreDet-inspired optimization (§3.6): in reverse
// postorder, a block whose successors each have it as their only
// predecessor pushes its cost down and drops its own probe; a block
// whose predecessors all carry probes with costs within eps (and no
// back-edges) absorbs their mean and the predecessors drop theirs.
func applyBalance(f *ir.Func, inc []int64, has []bool, eps int64) {
	an := cfg.NewAnalyses(f)
	g, lf := an.Graph(), an.Loops()
	// Pass 1: push down, but never into or out of loop bodies —
	// CoreDet's balance cannot move counter updates across back edges,
	// which is why CD's *dynamic* probe count stays close to Naive's
	// on loop-dominated programs (the paper measures CD within ~1% of
	// Naive at one thread).
	for _, bi := range g.RPO {
		if !has[bi] || lf.InnermostAt[bi] != nil {
			continue
		}
		ok := len(g.Succs(int(bi))) > 0
		for _, s := range g.Succs(int(bi)) {
			if len(g.Preds(int(s))) != 1 || s == bi || lf.InnermostAt[s] != nil {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, s := range g.Succs(int(bi)) {
			inc[s] += inc[bi]
		}
		has[bi] = false
	}
	// Pass 2: absorb predecessors (forward edges only).
	for _, bi := range g.RPO {
		preds := g.Preds(int(bi))
		if len(preds) < 2 {
			continue
		}
		ok := true
		var lo, hi, sum int64
		for k, p := range preds {
			if !has[p] || g.RPOIndex[p] >= g.RPOIndex[bi] || len(g.Succs(int(p))) != 1 {
				ok = false
				break
			}
			c := inc[p]
			if k == 0 {
				lo, hi = c, c
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
			sum += c
		}
		if !ok || hi-lo > eps {
			continue
		}
		for _, p := range preds {
			has[p] = false
		}
		inc[bi] += sum / int64(len(preds))
	}
}

// instrumentCallsAndBackedges implements CnB / CnB-Cycles: an event
// probe before every call instruction and at every back-edge source.
func instrumentCallsAndBackedges(m *ir.Module, cycles bool) int {
	kind := ir.ProbeEvent
	if cycles {
		kind = ir.ProbeEventCycles
	}
	probes := 0
	for _, f := range m.Funcs {
		if f.NoInstrument {
			continue
		}
		lf := cfg.NewAnalyses(f).Loops()
		latch := make(map[int]bool)
		for _, l := range lf.Loops {
			for _, t := range l.Latches {
				latch[t] = true
			}
		}
		event := ir.ProbeInstr(ir.ProbeInfo{Kind: kind, Inc: 1, IndVar: ir.NoReg, Base: ir.NoReg})
		for bi, b := range f.Blocks {
			var out []ir.Instr
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall || in.Op == ir.OpExtCall {
					out = append(out, event)
					probes++
				}
				out = append(out, in)
			}
			if latch[bi] {
				out = append(out, event)
				probes++
			}
			b.Instrs = out
		}
	}
	return probes
}
