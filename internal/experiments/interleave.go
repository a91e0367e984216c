package experiments

import (
	"fmt"

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
	// Shared counts classified shared addresses.
	Shared int
	// Racy / NonCommute are the failure counts (0/0 = clean).
	Racy, NonCommute int
	// Undelivered / Inconclusive are exploration caveats, reported so
	// thin coverage is never silent; an inconclusive run fails the gate.
	Undelivered, Inconclusive int
	// Detail is the first failure detail, if any.
	Detail string
}

// newInterleaveRow summarizes one explorer report as a table row.
func newInterleaveRow(name string, rep *interleave.Report) interleaveRow {
	racy := rep.Unclassified()
	row := interleaveRow{
		Name:     name,
		Feasible: int64(rep.FeasibleSites), Total: rep.TotalSites,
		Schedules:   rep.Schedules,
		Shared:      len(rep.Addrs),
		Racy:        len(racy),
		NonCommute:  len(rep.NonCommute),
		Undelivered: rep.Undelivered, Inconclusive: rep.Inconclusive,
	}
	if len(racy) > 0 {
		a := racy[0]
		row.Detail = fmt.Sprintf("word %d RACY (main %s, handler %s)", a.Addr, a.MainSite, a.HandlerSite)
	} else if len(rep.NonCommute) > 0 {
		row.Detail = fmt.Sprintf("fire@%v: %s", rep.NonCommute[0].Schedule, rep.NonCommute[0].Detail)
	} else if rep.Inconclusive > 0 {
		row.Detail = fmt.Sprintf("%d run(s) hit the step budget", rep.Inconclusive)
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

// runInterleaveSweep verifies the three systems applications' CI
// sharing-protocol models and `seeds` fuzz programs with generated
// handlers at the given context bound. One module is one engine cell;
// the whole sweep shards across the engine pool, and each cell's own
// exploration runs serially so results are byte-identical at any
// worker count.
func runInterleaveSweep(eng *engine.Engine, seeds, bound int) ([]interleaveRow, []cellError) {
	mm, mo := mtcp.InterleaveSpec()
	sm, so := shenango.InterleaveSpec()
	fm, fo := ffwd.InterleaveSpec()
	specs := []interleaveSpec{{"mtcp/ring", mm, mo}, {"shenango/iokernel", sm, so}, {"ffwd/delegation", fm, fo}}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		specs = append(specs, interleaveSpec{fmt.Sprintf("fuzz/seed%d", seed),
			fuzz.Generate(seed, fuzz.Options{MaxDepth: 2, MaxStmts: 4, WithHandler: true}),
			interleave.Options{LimitInstrs: 5_000_000, MaxSchedules: 300}})
	}
	label := func(i int) string { return "interleave/" + specs[i].name }
	return sweep(eng, len(specs), label, func(i int) (interleaveRow, error) {
		opts := specs[i].opts
		opts.ContextBound = bound
		rep, err := interleave.VerifyHandlers(specs[i].mod, engine.Serial(), opts)
		if err != nil {
			return interleaveRow{}, err
		}
		return newInterleaveRow(specs[i].name, rep), nil
	})
}

// hazard reports whether the module has an unclassified race, a
// non-commutative schedule or an inconclusive run.
func (r interleaveRow) hazard() bool { return r.Racy > 0 || r.NonCommute > 0 || r.Inconclusive > 0 }

// gateInterleave is the interleaving sweep's gate: one violation per
// module with a hazard.
func gateInterleave(rows []interleaveRow, _ Inputs) []string {
	var v []string
	for _, r := range rows {
		if r.hazard() {
			v = append(v, r.Name+": "+r.Detail)
		}
	}
	return v
}

// interleaveTable lays the sweep out, each hazardous module's first
// failure under its row.
func interleaveTable(rows []interleaveRow, in Inputs) *table {
	t := &table{
		title: []string{fmt.Sprintf("Handler interleaving sweep: 3 app models + %d fuzz programs, context bound %d",
			pick(in, 20, 6), pick(in, in.Flags.Bound, 1))},
		cols: []column{{"module", "%-20s", ""}, {"feasible", "%10s", ""}, {"schedules", "%11s", "%9d"}, {"shared", "%8s", "%8d"},
			{"racy", "%6s", "%6d"}, {"noncommute", "%12s", "%12d"}, {"undelivered", "%13s", "%13d"}, {"inconclusive", "%14s", "%14d"}},
		failures: "module(s) with interleaving hazards",
		closing:  []string{"interleave: all handler placements commute, no unclassified races"},
	}
	for _, r := range rows {
		t.rows = append(t.rows, []any{r.Name, fmt.Sprintf("%7d/%-4d", r.Feasible, r.Total), r.Schedules,
			r.Shared, r.Racy, r.NonCommute, r.Undelivered, r.Inconclusive})
		if r.hazard() {
			t.rows = append(t.rows, []any{"  first failure: " + r.Detail})
		}
	}
	return t
}
