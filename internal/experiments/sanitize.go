package experiments

import (
	"errors"
	"fmt"

	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sanitize"
)

// This file drives the translation-validation sanitizer from the
// experiment CLI: a fuzz sweep that compiles random programs under the
// full stage checks and the differential execution oracle, plus a
// stage-checked compile of every paper workload. It is the sweep behind
// `ciexp sanitize`.

// sanitizeDesigns is the oracle design set: the two CI variants, the
// CoreDet-style and naive-balance baselines, and the probe-free
// user-interrupt design (whose oracle run proves the uninstrumented
// module is untouched). The remaining designs are covered by the fuzz
// package's differential tests. An array (not a slice) so a program's
// per-design verdicts can be sized from it at compile time.
var sanitizeDesigns = [...]instrument.Design{
	instrument.CI, instrument.CICycles, instrument.CD, instrument.CnB,
	instrument.UserInterrupt,
}

// sanitizeRow aggregates one design's verdicts over the fuzz sweep.
type sanitizeRow struct {
	Design string
	// Programs is the number of fuzz programs compiled.
	Programs int
	// Clean counts programs that passed both stage checks and oracle;
	// each of them also ran under the tier-differential oracle.
	Clean int
	// Inconclusive counts oracle runs, differential or tier, that hit
	// the step budget.
	Inconclusive int
	// StageErrors counts static stage-check failures.
	StageErrors int
	// Divergences counts differential-oracle failures.
	Divergences int
	// TierDivergences counts tier-differential oracle failures
	// (compiled vs interpreter, stat parity included).
	TierDivergences int
	// FirstFailure is the first stage error or divergence, if any.
	FirstFailure string
}

// add folds one program's verdicts into r, keeping r's first failure.
func (r *sanitizeRow) add(o sanitizeRow) {
	r.Programs += o.Programs
	r.Clean += o.Clean
	r.Inconclusive += o.Inconclusive
	r.StageErrors += o.StageErrors
	r.Divergences += o.Divergences
	r.TierDivergences += o.TierDivergences
	if r.FirstFailure == "" {
		r.FirstFailure = o.FirstFailure
	}
}

// verdict folds one oracle run's error into r: a stage error, a
// divergence of the differential or the tier oracle, or a run that hit
// its step budget, which is not a pass whichever oracle ran out. Any
// other error is returned.
func (r *sanitizeRow) verdict(seed uint64, err error) error {
	var se *sanitize.StageError
	var div *sanitize.Divergence
	switch {
	case err == nil:
	case errors.Is(err, sanitize.ErrInconclusive):
		r.Inconclusive++
	case errors.As(err, &se):
		r.StageErrors, r.FirstFailure = 1, fmt.Sprintf("seed %d: %v", seed, se)
	case errors.As(err, &div) && div.Stage == "tier":
		r.TierDivergences, r.FirstFailure = 1, fmt.Sprintf("seed %d: %v", seed, div)
	case errors.As(err, &div):
		r.Divergences, r.FirstFailure = 1, fmt.Sprintf("seed %d: %v", seed, div)
	default:
		return err
	}
	return nil
}

// runSanitizeSweep fuzzes `seeds` programs and pushes each through
// sanitize.CompileChecked (stage checks + differential oracle) for
// every oracle design. One seed is one engine cell; the whole sweep
// shards across the engine pool. Every clean instrumented module also
// runs through the tier-differential oracle (sanitize.DiffTiers), so
// `ciexp sanitize` gates the compiled tier's bit exactness over the
// same fuzz corpus.
func runSanitizeSweep(eng *engine.Engine, seeds int) ([]sanitizeRow, []cellError) {
	type verdicts [len(sanitizeDesigns)]sanitizeRow // one program's, per design
	label := func(i int) string { return fmt.Sprintf("sanitize/seed%d", i+1) }
	cells, errs := sweep(eng, seeds, label, func(i int) (verdicts, error) {
		seed := uint64(i + 1)
		src := fuzz.Generate(seed, fuzz.Options{
			MaxDepth: 2, MaxStmts: 5, MaxFuncs: 2, WithExterns: seed%4 == 0,
		})
		eo := sanitize.ExecOptions{
			Args:        []int64{int64(seed % 4096)},
			LimitInstrs: 30_000_000,
		}
		var cell verdicts
		for di, d := range sanitizeDesigns {
			prog, err := sanitize.CompileChecked(src, core.Config{
				Design: d, ProbeIntervalIR: 200,
			}, sanitize.Options{Exec: true, ExecOptions: eo})
			r := &cell[di]
			r.Programs = 1
			if err == nil {
				r.Clean = 1
				err = sanitize.DiffTiers(prog.Mod, eo)
			}
			if err := r.verdict(seed, err); err != nil {
				return cell, fmt.Errorf("seed %d/%v: %w", seed, d, err)
			}
		}
		return cell, nil
	})
	rows := make([]sanitizeRow, len(sanitizeDesigns))
	for di, d := range sanitizeDesigns {
		rows[di].Design = d.String()
		for _, cell := range cells {
			rows[di].add(cell[di])
		}
	}
	return rows, errs
}

// sanitizeFigure is the fuzz corpus's per-design verdicts and the count
// of stage-check-clean (workload, design) compiles.
type sanitizeFigure struct {
	Seeds int
	Rows  []sanitizeRow
	Clean int
}

// measureSanitize runs the fuzz sweep over seeds programs, then
// compiles every paper workload under every oracle design, proving the
// stage checks hold on the curated benchmarks, not just fuzz programs.
// A compile another figure already made was stage-checked then: every
// engine compile is.
func measureSanitize(eng *engine.Engine, seeds, scale int) (*sanitizeFigure, []cellError) {
	rows, errs := runSanitizeSweep(eng, seeds)
	f := &sanitizeFigure{Seeds: seeds, Rows: rows}
	sel := allWorkloads()
	label := func(i int) string { return "sanitize/" + sel[i].Name }
	cells, werrs := sweep(eng, len(sel), label, func(i int) (int, error) {
		clean := 0
		for _, d := range sanitizeDesigns {
			if _, err := compileCached(eng, sel[i], scale,
				core.WithDesign(d), core.WithProbeInterval(probeIntervalIR)); err != nil {
				return clean, fmt.Errorf("%v: %w", d, err)
			}
			clean++
		}
		return clean, nil
	})
	for _, n := range cells {
		f.Clean += n
	}
	return f, append(errs, werrs...)
}

// gateSanitize is the sanitizer's gate: one violation per stage error,
// oracle divergence or tier divergence, and one per oracle run that hit
// its step budget — a check that did not finish is not a pass.
func gateSanitize(f *sanitizeFigure, _ Inputs) []string {
	var v []string
	for _, r := range f.Rows {
		for range r.StageErrors + r.Divergences + r.TierDivergences {
			v = append(v, r.Design+" failed validation")
		}
		for range r.Inconclusive {
			v = append(v, r.Design+" oracle run inconclusive")
		}
	}
	return v
}

// sanitizeTable lays the sweep out, each design's first failure under
// its row; every clean program is one tier-oracle run.
func sanitizeTable(f *sanitizeFigure, _ Inputs) *table {
	t := &table{
		title: []string{fmt.Sprintf("Translation-validation sweep: %d fuzz programs x %d designs (stage checks + differential oracle) + tier-differential oracle (compiled vs interpreter)",
			f.Seeds, len(sanitizeDesigns))},
		cols: []column{{"design", "%-12s", ""}, {"programs", "%10s", "%10d"}, {"clean", "%8s", "%8d"},
			{"inconclusive", "%14s", "%14d"}, {"stage errs", "%13s", "%13d"}, {"divergences", "%13s", "%13d"},
			{"tier runs", "%12s", "%12d"}, {"tier divs", "%11s", "%11d"}},
		notes: []string{fmt.Sprintf("workloads: %d/%d (workload, design) cells stage-check clean",
			f.Clean, len(allWorkloads())*len(sanitizeDesigns))},
		failures: "validation failure(s)",
		closing:  []string{"sanitize: all programs validated"},
	}
	for _, r := range f.Rows {
		t.rows = append(t.rows, []any{r.Design, r.Programs, r.Clean, r.Inconclusive, r.StageErrors, r.Divergences,
			r.Clean, r.TierDivergences})
		if r.FirstFailure != "" {
			t.rows = append(t.rows, []any{"  first failure: " + r.FirstFailure})
		}
	}
	return t
}
