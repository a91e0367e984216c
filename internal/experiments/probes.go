package experiments

import (
	"fmt"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/workloads"
)

// This file reproduces the §5.4 probe-execution claim: "These results
// correspond well with detailed measurements counting the number of
// probes executed... in the vast majority of applications, CI reduced
// probe executions by over 50% vs. Naive."

// probeCountRow compares dynamic probe executions per workload.
type probeCountRow struct {
	Workload string
	// CIProbes / NaiveProbes are dynamic probe executions.
	CIProbes, NaiveProbes int64
	// CIStatic / NaiveStatic are static probe instruction counts.
	CIStatic, NaiveStatic int
	// Reduction is 1 - CI/Naive (dynamic).
	Reduction float64
	// TakenRate is the fraction of CI probes that raised an interrupt.
	TakenRate float64
}

// measureProbeCounts runs each workload under CI and Naive and counts
// probe executions. One workload is one engine cell.
func measureProbeCounts(eng *engine.Engine, scale int, intervalCycles int64) ([]probeCountRow, []cellError) {
	return workloadSweep(eng, allWorkloads(), "probes",
		func(wl *workloads.Workload) (probeCountRow, error) {
			base, err := baselineCached(eng, wl, scale, 1)
			if err != nil {
				return probeCountRow{}, err
			}
			row := probeCountRow{Workload: wl.Name}
			for _, d := range []instrument.Design{instrument.CI, instrument.Naive} {
				prog, err := compileCached(eng, wl, scale,
					core.WithDesign(d), core.WithProbeInterval(probeIntervalIR))
				if err != nil {
					return row, err
				}
				r, err := core.RunThread(prog.Code(), measuredRun(1, base.IRPerCycle, intervalCycles), "main", 0)
				if err != nil {
					return row, fmt.Errorf("%s/%v: %w", wl.Name, d, err)
				}
				if d == instrument.CI {
					row.CIProbes = r.Stats.Probes
					row.CIStatic = prog.Instr.Probes
					if r.Stats.Probes > 0 {
						row.TakenRate = float64(r.Stats.ProbesTaken) / float64(r.Stats.Probes)
					}
				} else {
					row.NaiveProbes = r.Stats.Probes
					row.NaiveStatic = prog.Instr.Probes
				}
			}
			if row.NaiveProbes > 0 {
				row.Reduction = 1 - float64(row.CIProbes)/float64(row.NaiveProbes)
			}
			return row, nil
		})
}

func probesTable(rows []probeCountRow, _ Inputs) *table {
	t := &table{
		title: []string{"Probe executions, CI vs Naive (§5.4: CI reduces executions >50% in most programs)"},
		cols: []column{{"workload", "%-18s", ""}, {"CI dynamic", "%14s", "%14d"}, {"Naive dyn", "%14s", "%14d"},
			{"reduction", "%12s", "%11.0f%%"}, {"CI static", "%12s", "%12d"}, {"taken", "%10s", "%9.1f%%"}},
	}
	over50 := 0
	for _, r := range rows {
		t.rows = append(t.rows, []any{r.Workload, r.CIProbes, r.NaiveProbes, r.Reduction * 100, r.CIStatic, r.TakenRate * 100})
		if r.Reduction > 0.5 {
			over50++
		}
	}
	t.notes = []string{fmt.Sprintf("%d/%d workloads above 50%% reduction", over50, len(rows))}
	return t
}
