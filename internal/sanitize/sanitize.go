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
// modules in the VM and demands identical observable behaviour, and a
// delta-debugging reducer (Reduce) that shrinks failing modules to
// minimal reproducers for testdata/repro/.
package sanitize

import (
	"fmt"
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

// funcSnap is a per-function structural snapshot taken after a stage.
// The checks walk its lists, which are in block order, so that of
// several violations the same one is reported first on every run.
type funcSnap struct {
	stage  string
	names  []string           // all block names, in block order
	blocks map[string]bool    // all block names
	reach  map[string]bool    // reachable block names
	pairs  [][2]string        // (a, b) where a strictly dominates b, reachable only, by b's index
	dom    map[[2]string]bool // the pairs as a set
	// irreducible describes the first retreating edge whose target does
	// not dominate its source, "" if there is none.
	irreducible string
}

// Checker accumulates stage observations for one compilation. Attach
// CheckFunc/CheckModule to the pipeline's stage hooks (or use
// CompileChecked, which does the wiring) and inspect Err afterwards. A
// Checker is single-use and not safe for concurrent hooks — the
// pipeline is sequential.
type Checker struct {
	funcs map[string]*funcSnap
	// inputText / analysisText are printed snapshots used as the
	// probe-only-diff baseline: CI designs diff against the post-analysis
	// module, baseline designs against the input.
	inputText    string
	analysisText string
	err          error // the first violation
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
	cur, g := snapFunc(stage, f)
	prev := c.funcs[f.Name]
	if prev != nil && prev.irreducible == "" && cur.irreducible != "" {
		c.report(stage, f.Name, "irreducible", cur.irreducible)
	}
	if stage == "loop-clone" {
		c.checkCloneEdges(stage, f, g)
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
		c.inputText = m.String()
		for _, f := range m.Funcs {
			snap, _ := snapFunc(stage, f)
			c.funcs[f.Name] = snap
		}
	case "analysis":
		c.analysisText = m.String()
		for _, f := range m.Funcs {
			c.CheckFunc(stage, f)
		}
	case "probes":
		for _, f := range m.Funcs {
			c.CheckFunc(stage, f)
		}
		base := c.analysisText
		if base == "" {
			base = c.inputText
		}
		if base != "" {
			if err := ProbeOnlyDiff(base, m); err != nil {
				c.report(stage, "", "probe-only-diff", err.Error())
			}
		}
	}
}

// snapFunc computes the structural snapshot of f. It reindexes f (a
// maintenance no-op for well-formed pipeline states).
func snapFunc(stage string, f *ir.Func) (*funcSnap, *cfg.Graph) {
	an := cfg.NewAnalyses(f)
	g, dt := an.Graph(), an.Dom()
	s := &funcSnap{
		stage:  stage,
		names:  make([]string, len(f.Blocks)),
		blocks: make(map[string]bool, len(f.Blocks)),
		reach:  make(map[string]bool, len(f.Blocks)),
		dom:    make(map[[2]string]bool),
	}
	for i, b := range f.Blocks {
		s.names[i] = b.Name
		s.blocks[b.Name] = true
	}
	for _, bi := range g.RPO {
		s.reach[f.Blocks[bi].Name] = true
	}
	for _, p := range dt.StrictDomPairs() {
		pair := [2]string{f.Blocks[p[0]].Name, f.Blocks[p[1]].Name}
		s.pairs = append(s.pairs, pair)
		s.dom[pair] = true
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
				return s, g
			}
		}
	}
	return s, g
}

// checkReachMonotonic: a block that was reachable before the stage and
// still exists must still be reachable — transforms may delete blocks
// but never orphan them.
func (c *Checker) checkReachMonotonic(stage, fn string, prev, cur *funcSnap) {
	for _, name := range prev.names {
		if prev.reach[name] && cur.blocks[name] && !cur.reach[name] {
			c.report(stage, fn, "reachability",
				fmt.Sprintf("block %q was reachable after stage %q but is now orphaned", name, prev.stage))
		}
	}
}

// checkDomPreserved: for CFG-neutral or interposing-only stages, if a
// dominated b before and both survive reachable, a still dominates b.
func (c *Checker) checkDomPreserved(stage, fn string, prev, cur *funcSnap) {
	for _, p := range prev.pairs {
		if cur.reach[p[0]] && cur.reach[p[1]] && !cur.dom[p] {
			c.report(stage, fn, "dominance",
				fmt.Sprintf("%q dominated %q after stage %q but no longer does", p[0], p[1], prev.stage))
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

// StripProbes removes every OpProbe instruction from m, in place, and
// returns m.
func StripProbes(m *ir.Module) *ir.Module {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			out := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op != ir.OpProbe {
					out = append(out, in)
				}
			}
			b.Instrs = out
		}
	}
	return m
}

// ProbeOnlyDiff checks that post, with its probes stripped, prints
// identically to the pre-instrumentation text: probe insertion must be
// the only difference. Returns nil on a clean diff, or an error naming
// the first diverging line.
func ProbeOnlyDiff(preText string, post *ir.Module) error {
	got := StripProbes(post.Clone()).String()
	if got == preText {
		return nil
	}
	wantLines := strings.Split(preText, "\n")
	gotLines := strings.Split(got, "\n")
	n := min(len(wantLines), len(gotLines))
	for i := 0; i < n; i++ {
		if wantLines[i] != gotLines[i] {
			return fmt.Errorf("probe insertion changed non-probe IR at line %d: %q -> %q",
				i+1, wantLines[i], gotLines[i])
		}
	}
	return fmt.Errorf("probe insertion changed non-probe IR length: %d lines -> %d lines",
		len(wantLines), len(gotLines))
}
