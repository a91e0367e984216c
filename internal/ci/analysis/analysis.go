package analysis

import (
	"slices"
	"strings"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// ExternCostIR is the heuristic IR cost charged for uninstrumented
// external calls (§4; the paper uses 100).
const ExternCostIR = 100

// maxCloneBlocks bounds which loops count as "simple" for §3.5 cloning.
const maxCloneBlocks = 3

// Options configures the analysis phase.
type Options struct {
	// ProbeInterval is the compile-time maximum spacing between probes,
	// in IR instructions (§2.1).
	ProbeInterval int64
	// AllowableError bounds how different two branch arms may be while
	// still summarized by their mean (§3.3). The paper heuristically
	// sets it equal to the probe interval; zero means "same as
	// ProbeInterval".
	AllowableError int64
	// Imported holds function costs from separately compiled modules
	// (§2.6 modular compilation).
	Imported CostTable
	// DisableLoopTransform turns off the §3.4 rewrite (for ablations).
	DisableLoopTransform bool
	// DisableLoopClone turns off §3.5 cloning (for ablations).
	DisableLoopClone bool
	// StageHook, when non-nil, observes each function right after an
	// analysis-side pipeline stage mutated it: "canonicalize" (§3.1
	// return unification, loop-simplify, critical-edge splitting),
	// "loop-transform" (§3.4) and "loop-clone" (§3.5). The hook is the
	// attachment point for the translation-validation sanitizer
	// (internal/sanitize); it must not mutate the function.
	StageHook StageHook
}

// StageHook observes a function after a named analysis stage.
type StageHook func(stage string, f *ir.Func)

// stage invokes the configured StageHook, if any.
func (o *Options) stage(name string, f *ir.Func) {
	if o.StageHook != nil {
		o.StageHook(name, f)
	}
}

func (o *Options) withDefaults() *Options {
	out := *o
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = 1000
	}
	if out.AllowableError <= 0 {
		out.AllowableError = out.ProbeInterval
	}
	return &out
}

// FuncInfo is the exported per-function summary (written to cost files
// for modular compilation).
type FuncInfo struct {
	Name string `json:"name"`
	// Instrumented means the function self-accounts with internal
	// probes; call sites charge only the call instruction.
	Instrumented bool `json:"instrumented"`
	// Cost is the function's static cost; for instrumented functions it
	// is informational (the entry container cost when not reducible).
	Cost Cost `json:"cost"`
}

// CostTable maps function name to its exported summary.
type CostTable map[string]FuncInfo

// Mark is a probe insertion request for the instrumentation phase: a
// probe goes immediately before Block.Instrs[Index] (Index ==
// len(Instrs) means at the end of the block, before the terminator).
type Mark struct {
	Block *ir.Block
	Index int
	// Inc is the static IR increment; for loop marks it is the
	// per-induction-step increment.
	Inc int64
	// Loop marks a §3.4/§3.5 dynamic-increment probe computing
	// (IndVar-Base)*Inc.
	Loop         bool
	IndVar, Base ir.Reg
}

// FuncResult is the analysis output for one function.
type FuncResult struct {
	Fn           *ir.Func
	Instrumented bool
	Cost         Cost
	Marks        []Mark
	// Reduction exposes the container graph for tests and debugging.
	Reduction        *Reduction
	LoopsTransformed int
	LoopsCloned      int
}

// ModuleResult is the analysis output for a module.
type ModuleResult struct {
	Mod *ir.Module
	// Funcs maps function name to its result.
	Funcs map[string]*FuncResult
	// Costs is the full cost table (imported entries included), ready
	// for export (§2.6).
	Costs CostTable
	Opts  *Options
}

// Analyze canonicalizes and analyzes every function of m in call-graph
// order, applying loop transforms/cloning, and returns probe marks for
// the instrumentation phase. Analyze mutates m (canonicalization and
// loop rewrites); callers who need the original should Clone first.
func Analyze(m *ir.Module, opts Options) *ModuleResult {
	o := opts.withDefaults()
	res := &ModuleResult{
		Mod:   m,
		Funcs: make(map[string]*FuncResult),
		Costs: make(CostTable),
		Opts:  o,
	}
	for name, fi := range o.Imported {
		res.Costs[name] = fi
	}
	order, recursive := callOrder(m)
	// One bundle and one reducer scratch serve every function in turn:
	// the analyses of one are done with before the next is analyzed.
	an, sc := cfg.NewAnalyses(nil), newScratch(m)
	for _, f := range order {
		an.Reset(f)
		fr := analyzeFunc(f, an, sc, o, res.Costs, recursive[f.Name])
		res.Funcs[f.Name] = fr
		res.Costs[f.Name] = FuncInfo{Name: f.Name, Instrumented: fr.Instrumented, Cost: fr.Cost}
	}
	return res
}

// callOrder returns the module's functions with callees before callers
// and reports which functions participate in recursion.
func callOrder(m *ir.Module) ([]*ir.Func, map[string]bool) {
	recursive := make(map[string]bool)
	type state uint8
	const (
		unvisited state = iota
		visiting
		done
	)
	_ = unvisited
	st := make(map[string]state, len(m.Funcs))
	var order []*ir.Func
	var visit func(f *ir.Func)
	visit = func(f *ir.Func) {
		switch st[f.Name] {
		case visiting:
			recursive[f.Name] = true
			return
		case done:
			return
		}
		st[f.Name] = visiting
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op != ir.OpCall {
					continue
				}
				if callee := m.FuncByName(in.Call.Callee); callee != nil {
					visit(callee)
					// Propagate recursion discovered through this edge.
					if st[callee.Name] == visiting {
						recursive[f.Name] = true
					}
				}
			}
		}
		st[f.Name] = done
		order = append(order, f)
	}
	// Deterministic root order.
	funcs := slices.Clone(m.Funcs)
	slices.SortFunc(funcs, func(a, b *ir.Func) int { return strings.Compare(a.Name, b.Name) })
	for _, f := range funcs {
		visit(f)
	}
	return order, recursive
}

// analyzer holds per-function analysis state.
type analyzer struct {
	f *ir.Func
	// ri is the register info of the function the reduction was built
	// on; the loop rewrites do not refresh it.
	ri    *cfg.RegInfo
	opts  *Options
	costs CostTable
	res   *FuncResult
	// flushThreshold is the pending size below which residuals may be
	// dropped instead of flushed with a probe.
	flushThreshold int64
}

// analyzeFunc analyzes f; an is an empty bundle for f and sc the
// Analyze call's scratch.
func analyzeFunc(f *ir.Func, an *cfg.Analyses, sc *scratch, opts *Options, costs CostTable, isRecursive bool) *FuncResult {
	// §3.1 pre-processing: unify returns and simplify loops. Critical
	// edges are split only if the rules get stuck — blanket splitting
	// would erase the triangle (2b) and self-loop (3c) patterns. The
	// analyses loop-simplify built last describe the function it
	// returns, and the reduction reads them.
	cfg.UnifyReturns(f)
	cfg.LoopSimplify(an)
	a := newAnalyzer(f, an, sc, opts, costs)
	if a.res.Reduction.Root() == nil && cfg.SplitCriticalEdges(an) {
		cfg.LoopSimplify(an)
		a = newAnalyzer(f, an, sc, opts, costs)
	}
	opts.stage("canonicalize", f)
	a.res.Instrumented = false

	root := a.res.Reduction.Root()
	switch {
	case f.NoInstrument:
		// #pragma ci_probe disable: never probed; export best-known cost.
		if root != nil {
			a.res.Cost = root.Cost
		} else {
			a.res.Cost = Unknown()
		}
		return a.res
	case isRecursive:
		a.res.Cost = Unknown()
		a.res.Instrumented = true
	case root != nil && root.Cost.IsConst() && root.Cost.C <= opts.ProbeInterval && !a.hasBarrier(root):
		// Small constant-cost function: transparent to callers, no probes.
		a.res.Cost = root.Cost
		return a.res
	default:
		a.res.Instrumented = true
		if root != nil {
			a.res.Cost = root.Cost
		} else {
			// Not fully reducible: export the entry container's cost
			// (§3.3 function cost optimization) and instrument the rest.
			a.res.Cost = a.res.Reduction.Regions[0].C.Cost
		}
	}
	a.instrumentFunc()
	return a.res
}

func newAnalyzer(f *ir.Func, an *cfg.Analyses, sc *scratch, opts *Options, costs CostTable) analyzer {
	a := analyzer{
		f: f, ri: an.Regs(), opts: opts, costs: costs,
		flushThreshold: opts.AllowableError / 2,
	}
	a.res = &FuncResult{Fn: f}
	a.res.Reduction = reduce(f, an.Graph(), an.Loops(), a.ri, opts, a.blockCost, sc)
	return a
}

// instrCost returns the static cost contribution of one instruction and
// whether a probe barrier must follow it (extcall or a call whose cost
// the counter cannot otherwise account for).
func (a *analyzer) instrCost(in *ir.Instr) (Cost, bool) {
	switch in.Op {
	case ir.OpCall:
		fi, ok := a.costs[in.Call.Callee]
		if !ok {
			// Callee not yet analyzed (recursion) — treated as
			// self-accounting.
			return Const(1), false
		}
		if fi.Instrumented {
			return Const(1), false
		}
		// Uninstrumented callee: charge its cost, substituting
		// argument values into parametric costs.
		cost := fi.Cost.Subst(func(p int) Cost {
			if p >= len(in.Call.Args) {
				return Unknown()
			}
			arg := in.Call.Args[p]
			if c, ok := a.ri.ConstValue(arg); ok {
				return Const(c)
			}
			if cp, ok := a.ri.ParamValue(arg); ok {
				return Affine(0, 1, cp)
			}
			return Unknown()
		})
		switch {
		case cost.IsConst() && cost.C <= a.opts.ProbeInterval:
			return cost.AddConst(1), false
		case cost.IsConst():
			// Known but too large to leave unprobed (NoInstrument
			// function with a big constant cost): probe right after.
			return cost.AddConst(1), true
		default:
			// Unknown at this site: use the extern heuristic and probe.
			return Const(1 + ExternCostIR), true
		}
	case ir.OpExtCall:
		return Const(1 + ExternCostIR), true
	case ir.OpProbe:
		return Const(0), false
	default:
		return Const(1), false
	}
}

// blockCost sums instruction costs (+1 for the terminator) and reports
// whether the block contains probe barriers.
func (a *analyzer) blockCost(b *ir.Block) (Cost, bool) {
	total := Const(1)
	barrier := false
	for i := range b.Instrs {
		c, bar := a.instrCost(&b.Instrs[i])
		total = total.Add(c)
		barrier = barrier || bar
	}
	return total, barrier
}

// hasBarrier reports whether any leaf under c is a barrier block.
func (a *analyzer) hasBarrier(c *Container) bool {
	if c.Kind == CBlock {
		return c.Barrier
	}
	for _, ch := range c.Children {
		if a.hasBarrier(ch) {
			return true
		}
	}
	return false
}

func (a *analyzer) mark(b *ir.Block, index int, inc int64) {
	a.res.Marks = append(a.res.Marks, Mark{Block: b, Index: index, Inc: inc})
}

func (a *analyzer) markLoop(b *ir.Block, index int, incPerStep int64, ind, base ir.Reg) {
	a.res.Marks = append(a.res.Marks, Mark{
		Block: b, Index: index, Inc: incPerStep, Loop: true, IndVar: ind, Base: base,
	})
}
