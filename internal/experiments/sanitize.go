package experiments

import (
	"errors"
	"fmt"
	"io"

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
// package's differential tests. An array (not a slice) so the per-cell
// verdict arrays below can be sized from it at compile time.
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
	// Inconclusive counts oracle runs that hit the step budget.
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

// sanitizeVerdict classifies one (seed, design) compile+oracle outcome.
type sanitizeVerdict int

const (
	verdictClean sanitizeVerdict = iota
	verdictInconclusive
	verdictStageError
	verdictDivergence
)

type sanitizeCell struct {
	Verdicts [len(sanitizeDesigns)]sanitizeVerdict
	Failures [len(sanitizeDesigns)]string
	// TierDiverged marks per-design tier-differential divergences.
	TierDiverged [len(sanitizeDesigns)]bool
}

// runSanitizeSweep fuzzes `seeds` programs and pushes each through
// sanitize.CompileChecked (stage checks + differential oracle) for
// every oracle design. One seed is one engine cell; the whole sweep
// shards across the engine pool. Every clean instrumented module also
// runs through the tier-differential oracle (sanitize.DiffTiers), so
// `ciexp sanitize` gates the compiled tier's bit exactness over the
// same fuzz corpus.
func runSanitizeSweep(eng *engine.Engine, seeds int) ([]sanitizeRow, []cellError) {
	label := func(i int) string { return fmt.Sprintf("sanitize/seed%d", i+1) }
	cells, errs := sweep(eng, seeds, label, func(i int) (sanitizeCell, error) {
		seed := uint64(i + 1)
		src := fuzz.Generate(seed, fuzz.Options{
			MaxDepth: 2, MaxStmts: 5, MaxFuncs: 2, WithExterns: seed%4 == 0,
		})
		eo := sanitize.ExecOptions{
			Args:        []int64{int64(seed % 4096)},
			LimitInstrs: 30_000_000,
		}
		var cell sanitizeCell
		for di, d := range sanitizeDesigns {
			prog, err := sanitize.CompileChecked(src, core.Config{
				Design: d, ProbeIntervalIR: 200,
			}, sanitize.Options{Exec: true, ExecOptions: eo})
			var se *sanitize.StageError
			var div *sanitize.Divergence
			switch {
			case err == nil:
				cell.Verdicts[di] = verdictClean
				terr := sanitize.DiffTiers(prog.Mod, eo)
				var tdiv *sanitize.Divergence
				switch {
				case terr == nil || errors.Is(terr, sanitize.ErrInconclusive):
				case errors.As(terr, &tdiv):
					cell.TierDiverged[di] = true
					cell.Failures[di] = fmt.Sprintf("seed %d: %v", seed, tdiv)
				default:
					return cell, fmt.Errorf("seed %d/%v: tier oracle: %w", seed, d, terr)
				}
			case errors.Is(err, sanitize.ErrInconclusive):
				cell.Verdicts[di] = verdictInconclusive
			case errors.As(err, &se):
				cell.Verdicts[di] = verdictStageError
				cell.Failures[di] = fmt.Sprintf("seed %d: %v", seed, se)
			case errors.As(err, &div):
				cell.Verdicts[di] = verdictDivergence
				cell.Failures[di] = fmt.Sprintf("seed %d: %v", seed, div)
			default:
				return cell, fmt.Errorf("seed %d/%v: %w", seed, d, err)
			}
		}
		return cell, nil
	})

	rows := make([]sanitizeRow, len(sanitizeDesigns))
	for di, d := range sanitizeDesigns {
		rows[di].Design = d.String()
	}
	for _, cell := range cells {
		for di := range sanitizeDesigns {
			r := &rows[di]
			r.Programs++
			switch cell.Verdicts[di] {
			case verdictClean:
				r.Clean++
			case verdictInconclusive:
				r.Inconclusive++
			case verdictStageError:
				r.StageErrors++
			case verdictDivergence:
				r.Divergences++
			}
			if cell.TierDiverged[di] {
				r.TierDivergences++
			}
			if cell.Failures[di] != "" && r.FirstFailure == "" {
				r.FirstFailure = cell.Failures[di]
			}
		}
	}
	return rows, errs
}

// sanitizeWorkloads compiles every paper workload under every oracle
// design with the engine's sanitize-on-miss mode forced on, proving the
// stage checks hold on the curated benchmarks, not just fuzz programs.
// Returns the number of clean (workload, design) cells.
func sanitizeWorkloads(eng *engine.Engine, scale int) (int, []cellError) {
	prev := eng.SanitizeOnMiss
	eng.SanitizeOnMiss = true
	defer func() { eng.SanitizeOnMiss = prev }()

	sel := allWorkloads()
	label := func(i int) string { return "sanitize/" + sel[i].Name }
	cells, errs := sweep(eng, len(sel), label, func(i int) (int, error) {
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
	total := 0
	for _, n := range cells {
		total += n
	}
	return total, errs
}

// printSanitize renders the sanitizer sweep and exits non-zero (via the
// returned error) when any stage check or oracle verdict failed. quick
// shrinks the fuzz corpus for smoke-test use.
func printSanitize(w io.Writer, eng *engine.Engine, scale int, quick bool) error {
	seeds := 300
	if quick {
		seeds = 50
	}
	fmt.Fprintf(w, "Translation-validation sweep: %d fuzz programs x %d designs (stage checks + differential oracle) + tier-differential oracle (compiled vs interpreter)\n",
		seeds, len(sanitizeDesigns))
	rows, errs := runSanitizeSweep(eng, seeds)
	fmt.Fprintf(w, "%-12s%10s%8s%14s%13s%13s%12s%11s\n",
		"design", "programs", "clean", "inconclusive", "stage errs", "divergences", "tier runs", "tier divs")
	bad := 0
	for _, r := range rows {
		// Every clean program is one tier-oracle run.
		fmt.Fprintf(w, "%-12s%10d%8d%14d%13d%13d%12d%11d\n",
			r.Design, r.Programs, r.Clean, r.Inconclusive, r.StageErrors, r.Divergences, r.Clean, r.TierDivergences)
		bad += r.StageErrors + r.Divergences + r.TierDivergences
		if r.FirstFailure != "" {
			fmt.Fprintf(w, "  first failure: %s\n", r.FirstFailure)
		}
	}

	clean, werrs := sanitizeWorkloads(eng, scale)
	fmt.Fprintf(w, "workloads: %d/%d (workload, design) cells stage-check clean\n",
		clean, len(allWorkloads())*len(sanitizeDesigns))
	errs = append(errs, werrs...)

	if err := renderCellErrors(w, errs); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("sanitize: %d validation failure(s)", bad)
	}
	fmt.Fprintln(w, "sanitize: all programs validated")
	return nil
}
