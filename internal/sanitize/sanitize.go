// Package sanitize is the translation-validation layer of the
// Compiler Interrupts pipeline: it observes the module after every
// compilation stage (canonicalization, the §3.4 loop transform, §3.5
// cloning, probe insertion) through the stage hooks exposed by
// internal/ci/analysis and internal/ci/instrument, and checks semantic
// invariants that plain ir.Verify cannot see:
//
//   - blocks that were reachable before a stage stay reachable after it
//     (no unreachable-block leaks from a botched rewire);
//   - no stage introduces irreducible control flow: every retreating
//     edge's target dominates its source, unless that was already
//     false before the stage;
//   - stages that are CFG-neutral or only interpose blocks
//     (canonicalization, probe insertion) preserve pairwise dominance
//     between surviving blocks;
//   - §3.5 clone regions obey the fast-path edge discipline: the only
//     way into a ".fast" block is another fast block or the preheader's
//     run-time size guard, and fast blocks exit only through fast
//     blocks or the ".fastprobe" accounting block;
//   - probe insertion is exactly probe insertion — stripping OpProbe
//     from the output reproduces the pre-instrumentation module, byte
//     for byte.
//
// On top of the static checks, the package provides a differential
// execution oracle (DiffExec) that runs baseline and instrumented
// modules in the VM and demands identical observable behaviour.
// LoadRepros reads the minimal reproducers pinned under testdata/repro/.
package sanitize

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// StageError is a semantic-invariant violation pinned to the exact
// pipeline stage that introduced it.
type StageError struct {
	// Stage is the pipeline stage after which the violation was first
	// observed: "input", "canonicalize", "loop-transform", "loop-clone",
	// "analysis" or "probes".
	Stage string
	// Func is the offending function (empty for module-wide checks).
	Func string
	// Check names the violated invariant: "verify", "reachability",
	// "irreducible", "dominance", "clone-edges" or "probe-only-diff".
	Check string
	// Detail describes the violation.
	Detail string
}

func (e *StageError) Error() string {
	where := e.Stage
	if e.Func != "" {
		where += " @" + e.Func
	}
	return fmt.Sprintf("sanitize: [%s] %s check failed: %s", where, e.Check, e.Detail)
}

// funcSnap is a per-function structural snapshot taken after a stage:
// the block names by index, and the graph and dominator tree the
// checker built for them. Its lists are in block order, so that of
// several violations the same one is reported first on every run.
type funcSnap struct {
	stage string
	names []string       // block names, by block index
	at    map[string]int // block index, by name
	g     *cfg.Graph
	dt    *cfg.DomTree
	// irreducible describes the first retreating edge whose target does
	// not dominate its source, "" if there is none.
	irreducible string
}

// live returns the index of the block named name if it exists and is
// reachable, or -1.
func (s *funcSnap) live(name string) int {
	if i, ok := s.at[name]; ok && s.g.Reachable(i) {
		return i
	}
	return -1
}

// Checker accumulates stage observations for one compilation. Attach
// CheckFunc/CheckModule to the pipeline's stage hooks (or use
// CompileChecked, which does the wiring) and inspect Err afterwards. A
// Checker is single-use and not safe for concurrent hooks — the
// pipeline is sequential.
type Checker struct {
	funcs map[string]*funcSnap
	// base is the probe-only-diff baseline, a copy of the module: CI
	// designs diff against the post-analysis module, baseline designs
	// against the input.
	base *ir.Module
	err  error // the first violation
}

// NewChecker returns an empty Checker.
func NewChecker() *Checker {
	return &Checker{funcs: make(map[string]*funcSnap)}
}

// Err returns the first recorded violation, or nil.
func (c *Checker) Err() error { return c.err }

func (c *Checker) report(stage, fn, check, detail string) {
	if c.err == nil {
		c.err = &StageError{Stage: stage, Func: fn, Check: check, Detail: detail}
	}
}

// CheckFunc validates one function against its previous snapshot and
// records violations. Stages: "canonicalize", "loop-transform",
// "loop-clone" (from the analysis pipeline).
func (c *Checker) CheckFunc(stage string, f *ir.Func) {
	if err := f.Verify(); err != nil {
		c.report(stage, f.Name, "verify", err.Error())
		return
	}
	c.check(stage, f)
}

// check is CheckFunc on a verified function.
func (c *Checker) check(stage string, f *ir.Func) {
	cur := snapFunc(stage, f)
	prev := c.funcs[f.Name]
	if prev != nil && prev.irreducible == "" && cur.irreducible != "" {
		c.report(stage, f.Name, "irreducible", cur.irreducible)
	}
	if stage == "loop-clone" {
		c.checkCloneEdges(stage, f, cur.g)
	}
	if prev != nil {
		c.checkReachMonotonic(stage, f.Name, prev, cur)
		// Canonicalization only merges returns and interposes
		// preheaders/split blocks, and probe insertion is CFG-neutral:
		// both must preserve dominance between surviving blocks. The
		// loop transform and cloning legitimately break it (the fast
		// path reaches the exit around the original header).
		if stage == "canonicalize" || stage == "probes" {
			c.checkDomPreserved(stage, f.Name, prev, cur)
		}
	}
	c.funcs[f.Name] = cur
}

// CheckModule validates the whole module at an instrumentation
// observation point ("input", "analysis" or "probes").
func (c *Checker) CheckModule(stage string, m *ir.Module) {
	if err := m.Verify(); err != nil {
		c.report(stage, "", "verify", err.Error())
		return
	}
	switch stage {
	case "input":
		c.base = m.Clone()
		for _, f := range m.Funcs {
			c.funcs[f.Name] = snapFunc(stage, f)
		}
	case "analysis":
		c.base = m.Clone()
		for _, f := range m.Funcs {
			c.check(stage, f)
		}
	case "probes":
		for _, f := range m.Funcs {
			c.check(stage, f)
		}
		if c.base != nil {
			if err := probeOnlyDiff(c.base, m); err != nil {
				c.report(stage, "", "probe-only-diff", err.Error())
			}
		}
	}
}

// snapFunc computes the structural snapshot of f. It reindexes f (a
// maintenance no-op for well-formed pipeline states).
func snapFunc(stage string, f *ir.Func) *funcSnap {
	an := cfg.NewAnalyses(f)
	g, dt := an.Graph(), an.Dom()
	n := len(f.Blocks)
	s := &funcSnap{stage: stage, names: make([]string, n), at: make(map[string]int, n), g: g, dt: dt}
	for i, b := range f.Blocks {
		s.names[i], s.at[b.Name] = b.Name, i
	}
	// An edge t→h is retreating when h does not come after t in reverse
	// postorder. In a reducible graph every retreating edge is a back
	// edge, whose target dominates its source; one that is not enters a
	// loop a second way.
	for _, t := range g.RPO {
		for _, h := range g.Succs(int(t)) {
			if g.RPOIndex[h] <= g.RPOIndex[t] && !dt.Dominates(int(h), int(t)) {
				s.irreducible = fmt.Sprintf("retreating edge %q -> %q enters a loop its target does not dominate",
					f.Blocks[t].Name, f.Blocks[h].Name)
				return s
			}
		}
	}
	return s
}

// checkReachMonotonic: a block that was reachable before the stage and
// still exists must still be reachable — transforms may delete blocks
// but never orphan them.
func (c *Checker) checkReachMonotonic(stage, fn string, prev, cur *funcSnap) {
	for i, name := range prev.names {
		if !prev.g.Reachable(i) {
			continue
		}
		if j, ok := cur.at[name]; ok && !cur.g.Reachable(j) {
			c.report(stage, fn, "reachability",
				fmt.Sprintf("block %q was reachable after stage %q but is now orphaned", name, prev.stage))
		}
	}
}

// checkDomPreserved: for CFG-neutral or interposing-only stages, if a
// dominated b before and both survive reachable, a still dominates b.
// It is enough to check each surviving b against its nearest strict
// dominator before the stage that survives: every other surviving
// dominator of b dominated that one, which is checked in turn, and
// dominance is transitive.
func (c *Checker) checkDomPreserved(stage, fn string, prev, cur *funcSnap) {
	for b, name := range prev.names {
		nb := cur.live(name)
		if !prev.g.Reachable(b) || nb < 0 {
			continue
		}
		for a := b; a != int(prev.dt.IDom[a]); {
			a = int(prev.dt.IDom[a])
			na := cur.live(prev.names[a])
			if na < 0 {
				continue
			}
			if !cur.dt.Dominates(na, nb) {
				c.report(stage, fn, "dominance",
					fmt.Sprintf("%q dominated %q after stage %q but no longer does", prev.names[a], name, prev.stage))
			}
			break
		}
	}
}

// checkCloneEdges enforces the §3.5 fast-path discipline on every
// ".fast" block: entered only from fast blocks or a run-time guard
// branch whose other side is the slow path, and exited only into fast
// blocks or a ".fastprobe" accounting block.
func (c *Checker) checkCloneEdges(stage string, f *ir.Func, g *cfg.Graph) {
	isFast := func(b *ir.Block) bool { return strings.Contains(b.Name, ".fast") }
	isProbeExit := func(b *ir.Block) bool { return strings.Contains(b.Name, ".fastprobe") }
	for bi, b := range f.Blocks {
		if !isFast(b) || isProbeExit(b) || !g.Reachable(bi) {
			continue
		}
		for _, pi := range g.Preds(bi) {
			p := f.Blocks[pi]
			if isFast(p) {
				continue
			}
			if p.Term.Kind != ir.TermBr {
				c.report(stage, f.Name, "clone-edges",
					fmt.Sprintf("fast block %q entered unconditionally from slow block %q", b.Name, p.Name))
				continue
			}
			other := p.Term.Else
			if other == b {
				other = p.Term.Then
			}
			if isFast(other) {
				c.report(stage, f.Name, "clone-edges",
					fmt.Sprintf("guard %q has no slow-path side (both targets fast)", p.Name))
			}
		}
		var succs []*ir.Block
		for _, s := range b.Succs(succs) {
			if !isFast(s) {
				c.report(stage, f.Name, "clone-edges",
					fmt.Sprintf("fast block %q exits to slow block %q (must leave via a .fastprobe)", b.Name, s.Name))
			}
		}
	}
}

// probeOnlyDiff checks that post, its probes skipped, is pre: probe
// insertion must be the only difference. It walks the two modules side
// by side and renders IR as text only to name the first difference.
func probeOnlyDiff(pre, post *ir.Module) error {
	if pre.Name != post.Name || pre.MemWords != post.MemWords || len(pre.Funcs) != len(post.Funcs) ||
		!maps.Equal(pre.Imports, post.Imports) ||
		!maps.EqualFunc(pre.Externs, post.Externs, func(a, b *ir.Extern) bool { return *a == *b }) {
		return errors.New("probe insertion changed the module's header, imports, externs or function list")
	}
	for i, pf := range pre.Funcs {
		qf := post.Funcs[i]
		if pf.Name != qf.Name || pf.NumParams != qf.NumParams || pf.NoInstrument != qf.NoInstrument ||
			len(pf.Blocks) != len(qf.Blocks) {
			return fmt.Errorf("probe insertion changed the signature or block count of @%s", pf.Name)
		}
		for j, pb := range pf.Blocks {
			qb := qf.Blocks[j]
			if pb.Name != qb.Name || !sameTerm(&pb.Term, &qb.Term) {
				return fmt.Errorf("probe insertion changed @%s block %q (%q) into block %q (%q)",
					pf.Name, pb.Name, pb.Term.String(), qb.Name, qb.Term.String())
			}
			k := 0
			for qi := range qb.Instrs {
				q := &qb.Instrs[qi]
				switch {
				case q.Op == ir.OpProbe:
					continue
				case k == len(pb.Instrs):
					return fmt.Errorf("probe insertion added %q to @%s block %q", qf.InstrString(q), pf.Name, pb.Name)
				case !sameInstr(pf, &pb.Instrs[k], qf, q):
					return fmt.Errorf("probe insertion changed non-probe IR in @%s block %q: %q -> %q",
						pf.Name, pb.Name, pf.InstrString(&pb.Instrs[k]), qf.InstrString(q))
				}
				k++
			}
			if k != len(pb.Instrs) {
				return fmt.Errorf("probe insertion dropped %q from @%s block %q", pf.InstrString(&pb.Instrs[k]), pf.Name, pb.Name)
			}
		}
	}
	return nil
}

// sameInstr reports whether a, an instruction of pf, and b, one of qf,
// are the same: a call's record is compared by its callee and
// arguments, not by its index in the function's table.
func sameInstr(pf *ir.Func, a *ir.Instr, qf *ir.Func, b *ir.Instr) bool {
	if a.Op != ir.OpCall && a.Op != ir.OpExtCall {
		return *a == *b
	}
	x, y := *a, *b
	x.Imm, y.Imm = 0, 0
	if x != y {
		return false
	}
	ca, cb := pf.CallOf(a), qf.CallOf(b)
	return ca.Callee == cb.Callee && slices.Equal(ca.Args, cb.Args)
}

func sameTerm(a, b *ir.Terminator) bool {
	return a.Kind == b.Kind && a.Cond == b.Cond && a.Val == b.Val &&
		blockName(a.Then) == blockName(b.Then) && blockName(a.Else) == blockName(b.Else)
}

func blockName(b *ir.Block) string {
	if b == nil {
		return ""
	}
	return b.Name
}
