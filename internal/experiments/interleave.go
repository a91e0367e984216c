package experiments

import (
	"fmt"
	"io"

	"repro/internal/ci/fuzz"
	"repro/internal/engine"
	"repro/internal/ffwd"
	"repro/internal/interleave"
	"repro/internal/ir"
	"repro/internal/mtcp"
	"repro/internal/shenango"
)

// This file drives the handler interleaving verifier from the
// experiment CLI: every app sharing-protocol model plus a fuzz corpus
// with generated handlers goes through record → detect → explore, and
// the sweep fails on any unclassified race or non-commutative
// schedule. It is the sweep behind `ciexp interleave`.

// interleaveRow is one verified module's summary.
type interleaveRow struct {
	Name string
	// Feasible / Total count fire-capable and executed probe sites.
	Feasible, Total int64
	// Schedules is the number of explored forced-fire schedules.
	Schedules int
	// Shared counts classified shared addresses; ByClass the verdicts.
	Shared  int
	ByClass map[interleave.Class]int
	// Racy / NonCommute are the failure counts (0/0 = clean).
	Racy, NonCommute int
	// Undelivered / Inconclusive are exploration caveats, reported so
	// thin coverage is never silent.
	Undelivered, Inconclusive int
	// Detail is the first failure detail, if any.
	Detail string
}

// newInterleaveRow summarizes one explorer report as a table row.
func newInterleaveRow(name string, rep *interleave.Report) interleaveRow {
	row := interleaveRow{
		Name:     name,
		Feasible: int64(rep.FeasibleSites), Total: rep.TotalSites,
		Schedules:   rep.Schedules,
		Shared:      len(rep.Addrs),
		ByClass:     make(map[interleave.Class]int),
		Racy:        len(rep.Unclassified()),
		NonCommute:  len(rep.NonCommute),
		Undelivered: rep.Undelivered, Inconclusive: rep.Inconclusive,
	}
	for _, a := range rep.Addrs {
		row.ByClass[a.Class]++
	}
	for _, a := range rep.Unclassified() {
		row.Detail = fmt.Sprintf("word %d RACY (main %s, handler %s)", a.Addr, a.MainSite, a.HandlerSite)
		break
	}
	if row.Detail == "" && len(rep.NonCommute) > 0 {
		nc := rep.NonCommute[0]
		row.Detail = fmt.Sprintf("fire@%v: %s", nc.Schedule, nc.Detail)
	}
	return row
}

// interleaveSpec is one module to verify: an app protocol model or a
// fuzz-corpus program.
type interleaveSpec struct {
	name string
	mod  *ir.Module
	opts interleave.Options
}

// appInterleaveSpecs returns the three systems applications' CI
// sharing-protocol models.
func appInterleaveSpecs() []interleaveSpec {
	mm, mo := mtcp.InterleaveSpec()
	sm, so := shenango.InterleaveSpec()
	fm, fo := ffwd.InterleaveSpec()
	return []interleaveSpec{
		{"mtcp/ring", mm, mo},
		{"shenango/iokernel", sm, so},
		{"ffwd/delegation", fm, fo},
	}
}

// runInterleaveSweep verifies the three app models and `seeds` fuzz
// programs with generated handlers at the given context bound. One
// module is one engine cell; the whole sweep shards across the engine
// pool, and each cell's own exploration runs serially so results are
// byte-identical at any worker count.
func runInterleaveSweep(eng *engine.Engine, seeds, bound int) ([]interleaveRow, []cellError) {
	specs := appInterleaveSpecs()
	for i := 0; i < seeds; i++ {
		seed := uint64(i + 1)
		opts := interleave.Options{
			ContextBound: bound,
			LimitInstrs:  5_000_000,
			MaxSchedules: 300,
		}
		specs = append(specs, interleaveSpec{
			name: fmt.Sprintf("fuzz/seed%d", seed),
			mod:  fuzz.Generate(seed, fuzz.Options{MaxDepth: 2, MaxStmts: 4, WithHandler: true}),
			opts: opts,
		})
	}
	for i := range specs {
		specs[i].opts.ContextBound = bound
	}
	label := func(i int) string { return "interleave/" + specs[i].name }
	return sweep(eng, len(specs), label, func(i int) (interleaveRow, error) {
		rep, err := interleave.VerifyHandlers(specs[i].mod, engine.Serial(), specs[i].opts)
		if err != nil {
			return interleaveRow{}, err
		}
		return newInterleaveRow(specs[i].name, rep), nil
	})
}

// printInterleave renders the interleaving sweep and returns an error
// when any module has an unclassified race or a non-commutative
// schedule. quick shrinks the fuzz corpus for smoke-test use.
func printInterleave(w io.Writer, eng *engine.Engine, bound int, quick bool) error {
	seeds := 20
	if quick {
		seeds = 6
	}
	fmt.Fprintf(w, "Handler interleaving sweep: 3 app models + %d fuzz programs, context bound %d\n", seeds, bound)
	rows, errs := runInterleaveSweep(eng, seeds, bound)
	fmt.Fprintf(w, "%-20s%10s%11s%8s%6s%12s%13s\n",
		"module", "feasible", "schedules", "shared", "racy", "noncommute", "undelivered")
	bad := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s%7d/%-4d%9d%8d%6d%12d%13d\n",
			r.Name, r.Feasible, r.Total, r.Schedules, r.Shared, r.Racy, r.NonCommute, r.Undelivered)
		if r.Racy > 0 || r.NonCommute > 0 {
			bad++
			fmt.Fprintf(w, "  first failure: %s\n", r.Detail)
		}
	}
	if err := renderCellErrors(w, errs); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("interleave: %d module(s) with interleaving hazards", bad)
	}
	fmt.Fprintln(w, "interleave: all handler placements commute, no unclassified races")
	return nil
}
