package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sanitize"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// This file binds the sweeps to the parallel experiment engine
// (internal/engine): memoized source modules, baselines and compiled
// programs keyed by (workload, scale, design, interval-config), and
// the one sweep loop every figure runs on, whose per-cell error
// collection keeps one failing cell from losing a multi-minute run.

// cellError records one failed sweep cell; the surrounding sweep keeps
// going and reports every failure at the end.
type cellError struct {
	// Cell names the failed unit, e.g. "fig9/barnes".
	Cell string
	// Err is the failure rendered as a string.
	Err string
}

func (e cellError) String() string { return fmt.Sprintf("%s: %s", e.Cell, e.Err) }

// sweep runs cell(0..n-1) on the engine's pool and merges the results
// in index order, so its output is byte-identical at any worker count.
// It returns the successful results and one cellError, named by
// label(i), per failed cell.
func sweep[T any](eng *engine.Engine, n int, label func(i int) string, cell func(i int) (T, error)) ([]T, []cellError) {
	results, errs := engine.Map(eng.Pool, n, cell)
	out := make([]T, 0, n)
	var cellErrs []cellError
	for i, err := range errs {
		if err != nil {
			cellErrs = append(cellErrs, cellError{Cell: label(i), Err: err.Error()})
			continue
		}
		out = append(out, results[i])
	}
	return out, cellErrs
}

// workloadSweep runs measure over sel with each workload one cell,
// named tag/<workload> when it fails.
func workloadSweep[T any](eng *engine.Engine, sel []*workloads.Workload, tag string,
	measure func(wl *workloads.Workload) (T, error)) ([]T, []cellError) {
	return sweep(eng, len(sel), func(i int) string { return tag + "/" + sel[i].Name },
		func(i int) (T, error) { return measure(sel[i]) })
}

// againstBaseline measures one row per item of wl against the
// workload's baseline run at threads; the first failure fails the
// workload's cell.
func againstBaseline[I, R any](eng *engine.Engine, wl *workloads.Workload, scale, threads int,
	items []I, measure func(base baseline, it I) (R, error)) ([]R, error) {

	base, err := baselineCached(eng, wl, scale, threads)
	if err != nil {
		return nil, err
	}
	rows := make([]R, 0, len(items))
	for _, it := range items {
		row, err := measure(base, it)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// srcEntry is the cached source of one (workload, scale): the module
// under a fingerprint guard, and its vm.Code, which every
// uninstrumented run of the source shares.
type srcEntry struct {
	*engine.GuardedModule
	Code *vm.Code
}

// progEntry is the cached compilation of one (workload, scale, config)
// cell: the program plus a fingerprint guard proving VM runs never
// mutate the shared instrumented module.
type progEntry struct {
	Prog  *core.Program
	Guard *engine.GuardedModule
}

// cfgKey folds every compilation-relevant core.Config field into a
// cache key component.
func cfgKey(cfg core.Config) string {
	return fmt.Sprintf("%v/pi%d/ae%d/lt%t/lc%t/o%t",
		cfg.Design, cfg.ProbeIntervalIR, cfg.AllowableErrorIR,
		cfg.DisableLoopTransform, cfg.DisableLoopClone, cfg.Optimize)
}

// source returns the workload's uninstrumented module and its code,
// memoized per (workload, scale) and shared read-only across cells
// (every compile clones the module before instrumenting).
func source(eng *engine.Engine, wl *workloads.Workload, scale int) srcEntry {
	key := fmt.Sprintf("src/%s/s%d", wl.Name, scale)
	v, _ := eng.Cache.Get(key, func() (any, error) {
		g := engine.GuardModule(wl.Build(scale))
		return srcEntry{GuardedModule: g, Code: vm.NewCode(g.Mod, nil)}, nil
	})
	return v.(srcEntry)
}

// baselineCached returns the workload's uninstrumented baseline run,
// memoized per (workload, scale, threads): one representative thread
// of a threads-thread machine (threads are virtual-time independent;
// the contention model carries the thread count), whose cycles are the
// reference and whose IR/cycle ratio tunes the CI runtime (§4 footnote
// 3).
func baselineCached(eng *engine.Engine, wl *workloads.Workload, scale, threads int) (baseline, error) {
	key := fmt.Sprintf("base/%s/s%d/t%d", wl.Name, scale, threads)
	v, err := eng.Cache.Get(key, func() (any, error) {
		r, err := core.RunThread(source(eng, wl, scale).Code, core.Setup{Threads: threads, Limit: runLimit}, "main", 0)
		if err != nil {
			return nil, fmt.Errorf("%s baseline: %w", wl.Name, err)
		}
		return baseline{Cycles: r.Stats.Cycles, IRPerCycle: r.IRPerCycle()}, nil
	})
	if err != nil {
		return baseline{}, err
	}
	return v.(baseline), nil
}

// compileCached compiles the workload under the given options, memoized
// per (workload, scale, resolved config). Every compile runs the
// translation-validation stage checks (sanitize.CompileChecked), so a
// cell's verdict does not depend on which figure compiled it first.
// The returned program's module is shared across cells; callers must
// treat it as read-only (VM runs do — the fingerprint guard in the
// cache proves it).
func compileCached(eng *engine.Engine, wl *workloads.Workload, scale int, opts ...core.Option) (*core.Program, error) {
	cfg := core.ConfigOf(opts...)
	compile := func() (*core.Program, error) {
		return sanitize.CompileChecked(source(eng, wl, scale).Mod, cfg, sanitize.Options{})
	}
	if cfg.ImportedCosts != nil {
		return compile() // an imported cost table has no cache key
	}
	key := fmt.Sprintf("prog/%s/s%d/%s", wl.Name, scale, cfgKey(cfg))
	v, err := eng.Cache.Get(key, func() (any, error) {
		prog, err := compile()
		if err != nil {
			return nil, err
		}
		return progEntry{Prog: prog, Guard: engine.GuardModule(prog.Mod)}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(progEntry).Prog, nil
}

// VerifyCache re-fingerprints every guarded module in the engine's
// cache, the shared sources and the compiled programs, and returns the
// first, in key order, that a consumer wrote to instead of cloning.
// ciexp runs it after its figures: sharing one module across cells is
// sound only while it passes.
func VerifyCache(eng *engine.Engine) error {
	var first error
	eng.Cache.Range(func(key string, val any) {
		var g *engine.GuardedModule
		switch e := val.(type) {
		case srcEntry:
			g = e.GuardedModule
		case progEntry:
			g = e.Guard
		}
		if g != nil && first == nil {
			if err := g.Verify(); err != nil {
				first = fmt.Errorf("engine cache %s: %w", key, err)
			}
		}
	})
	return first
}

// subsetWorkloads is the representative subset, one workload per
// control-flow family, behind `ciexp -quick fig12` and the quantum
// figure.
var subsetWorkloads = []string{"radix", "histogram", "barnes", "matrix_multiply",
	"volrend", "swaptions", "water-nsquared", "dedup"}

// allWorkloads returns pointers to the full Table-7 workload list in
// paper order.
func allWorkloads() []*workloads.Workload {
	sel := make([]*workloads.Workload, len(workloads.All))
	for i := range workloads.All {
		sel[i] = &workloads.All[i]
	}
	return sel
}

// workloadsByName resolves names to workloads, failing on unknowns.
func workloadsByName(names []string) ([]*workloads.Workload, error) {
	sel := make([]*workloads.Workload, 0, len(names))
	for _, n := range names {
		wl := workloads.ByName(n)
		if wl == nil {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		sel = append(sel, wl)
	}
	return sel, nil
}
