package analysis

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// CheckSpacing statically verifies the probe-placement invariant on an
// instrumented function: along every control-flow path, the IR distance
// between consecutive probe executions stays within maxGap. Cyclic
// paths are covered by requiring every natural loop either to contain a
// probe or to have a whole-loop cost within maxGap of slack.
//
// The checker is a verification aid for tests and for debugging probe
// placement; it is conservative (a nil error guarantees the invariant,
// a non-nil error may occasionally flag safe-but-unprovable placements,
// e.g. dynamic loop probes whose increment the checker cannot bound).
func CheckSpacing(f *ir.Func, externCostIR, maxGap int64) error {
	an := cfg.NewAnalyses(f)
	g, dom, lf := an.Graph(), an.Dom(), an.Loops()

	// Per-block: IR cost before the first probe, after the last probe,
	// total cost, and whether the block contains a probe.
	n := len(f.Blocks)
	pre := make([]int64, n)
	post := make([]int64, n)
	total := make([]int64, n)
	hasProbe := make([]bool, n)
	instrCost := func(in *ir.Instr) int64 {
		switch in.Op {
		case ir.OpProbe:
			return 0
		case ir.OpExtCall:
			return 1 + externCostIR
		default:
			return 1
		}
	}
	for i, b := range f.Blocks {
		var acc int64
		seen := false
		for j := range b.Instrs {
			in := &b.Instrs[j]
			if in.Op == ir.OpProbe {
				if !seen {
					pre[i] = acc
				}
				seen = true
				acc = 0
				continue
			}
			acc += instrCost(in)
		}
		acc++ // terminator
		post[i] = acc
		hasProbe[i] = seen
		if !seen {
			pre[i] = acc
			total[i] = acc
		}
	}

	// Every loop must contain a probe somewhere, unless its whole body
	// cost (per iteration) is tiny relative to the gap budget — such
	// loops were folded by the analysis and their cost is accounted by
	// an enclosing probe.
	for _, l := range lf.Loops {
		probed := false
		var iterCost int64
		for _, bi := range l.Blocks {
			if hasProbe[bi] {
				probed = true
			}
			iterCost += total[bi]
		}
		if probed {
			continue
		}
		// A cloned fast-path loop (§3.5) is probe-free by design: its
		// run-time size guard bounds it under the probe interval and a
		// dynamic loop probe right after the exit accounts for it.
		if loopExitsToDynamicProbe(f, g, l) {
			continue
		}
		trips := int64(1)
		if iv := cfg.AnalyzeInduction(f, g, l, an.Regs()); iv.Found {
			if tc, ok := iv.TripCount(); ok {
				trips = tc
			} else {
				return fmt.Errorf("analysis: loop at %q has no probe and unknown trip count", f.Blocks[l.Header].Name)
			}
		} else {
			return fmt.Errorf("analysis: loop at %q has no probe and no induction", f.Blocks[l.Header].Name)
		}
		if iterCost*trips > maxGap {
			return fmt.Errorf("analysis: probe-free loop at %q costs %d IR (> %d)",
				f.Blocks[l.Header].Name, iterCost*trips, maxGap)
		}
	}

	// Longest probe-free acyclic path: propagate "worst pending IR at
	// block entry" along forward edges only. Cyclic repetition is
	// covered by the loop checks above (probe-containing loops reset
	// pending internally; probe-free loops are bounded in total).
	pending := make([]int64, n)
	for i := range pending {
		pending[i] = -1
	}
	pending[0] = 0
	for iter := 0; iter < n+2; iter++ {
		changed := false
		for _, bi := range g.RPO {
			if pending[bi] < 0 {
				continue
			}
			var out int64
			if hasProbe[bi] {
				if pending[bi]+pre[bi] > 2*maxGap {
					return fmt.Errorf("analysis: %d IR reach the first probe of %q (budget %d)",
						pending[bi]+pre[bi], f.Blocks[bi].Name, 2*maxGap)
				}
				out = post[bi]
			} else {
				out = pending[bi] + total[bi]
			}
			if out > 2*maxGap {
				return fmt.Errorf("analysis: %d probe-free IR flowing out of %q (budget %d)",
					out, f.Blocks[bi].Name, 2*maxGap)
			}
			for _, si := range g.Succs(int(bi)) {
				if dom.Dominates(int(si), int(bi)) {
					continue // back edge: handled by the loop checks
				}
				if out > pending[si] {
					pending[si] = out
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return nil
}

// loopExitsToDynamicProbe reports whether every exit of the loop leads
// directly to a block starting with a dynamic (loop-kind) probe.
func loopExitsToDynamicProbe(f *ir.Func, g *cfg.Graph, l *cfg.Loop) bool {
	found := false
	for _, ei := range l.Exits {
		for _, si := range g.Succs(ei) {
			if l.Has(int(si)) {
				continue
			}
			b := f.Blocks[si]
			if len(b.Instrs) > 0 && b.Instrs[0].Op == ir.OpProbe {
				if b.Instrs[0].Probe().Loop() {
					found = true
					continue
				}
			}
			return false
		}
	}
	return found
}
