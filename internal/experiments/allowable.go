package experiments

import (
	"fmt"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// This file reproduces the §3.3 parameter study: "a thorough evaluation
// showed that the impact of allowable error on the interval accuracy
// and performance overhead is negligible beyond 500 IR instructions",
// which is why the paper heuristically sets allowable error equal to
// the probe interval.

// allowablePoint is one allowable-error setting's aggregate.
type allowablePoint struct {
	AllowableErrorIR int64
	// MedianOverhead across the sampled workloads.
	MedianOverhead float64
	// MedianAbsError is the median |interval - target| in cycles.
	MedianAbsError int64
	// Probes is the total static probe count.
	Probes int
}

// allowableWorkloads are branchy programs where arm summarization (the
// parameter's whole effect) actually triggers.
var allowableWorkloads = []string{
	"volrend", "fluidanimate", "word_count", "raytrace", "dedup", "radiosity",
}

// measureAllowableError sweeps the allowable-error parameter at a
// fixed probe interval and 5000-cycle target. One setting is one
// engine cell; failed settings are reported, not fatal.
func measureAllowableError(eng *engine.Engine, values []int64, scale int) ([]allowablePoint, []cellError) {
	if len(values) == 0 {
		values = []int64{25, 50, 100, 250, 500, 1000, 2000}
	}
	const target = 5000
	label := func(i int) string { return fmt.Sprintf("allowable/%d", values[i]) }
	return sweep(eng, len(values), label, func(i int) (allowablePoint, error) {
		ae := values[i]
		var overheads []float64
		var absErrs []int64
		probes := 0
		for _, name := range allowableWorkloads {
			wl := workloads.ByName(name)
			base, err := baselineCached(eng, wl, scale, 1)
			if err != nil {
				return allowablePoint{}, err
			}
			prog, err := compileCached(eng, wl, scale,
				core.WithDesign(instrument.CI),
				core.WithProbeInterval(probeIntervalIR),
				core.WithAllowableError(ae))
			if err != nil {
				return allowablePoint{}, err
			}
			probes += prog.Instr.Probes
			s := measuredRun(1, base.IRPerCycle, target)
			s.Record = true
			r, err := core.RunThread(prog.Code(), s, "main", 0)
			if err != nil {
				return allowablePoint{}, fmt.Errorf("%s: %w", name, err)
			}
			overheads = append(overheads, float64(r.Stats.Cycles)/float64(base.Cycles)-1)
			absErrs = append(absErrs, core.IntervalErrors(r.Gaps, target, true)...)
		}
		return allowablePoint{AllowableErrorIR: ae, MedianOverhead: stats.MedianF(overheads),
			MedianAbsError: stats.Median(absErrs), Probes: probes}, nil
	})
}

func allowableTable(pts []allowablePoint, _ Inputs) *table {
	t := &table{
		title: []string{"Allowable-error study (§3.3): overhead and |interval error| vs setting"},
		cols: []column{{"allowable(IR)", "%14s", "%14d"}, {"median ovh", "%16s", "%15.1f%%"},
			{"median |err| cy", "%18s", "%18d"}, {"static probes", "%14s", "%14d"}},
		notes: []string{"(the paper: negligible impact beyond 500 IR — hence allowable = probe interval)"},
	}
	for _, p := range pts {
		t.rows = append(t.rows, []any{p.AllowableErrorIR, p.MedianOverhead * 100, p.MedianAbsError, p.Probes})
	}
	return t
}
