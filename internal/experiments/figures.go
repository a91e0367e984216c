package experiments

import (
	"fmt"
	"io"

	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/engine"
	"repro/internal/mtcp"
)

// Inputs is what a figure reads from the ciexp command line: the
// engine, the parsed shared flags, and ciexp's own -quick and -all.
type Inputs struct {
	Eng   *engine.Engine
	Flags *cliflags.Flags
	// Quick selects a figure's smaller smoke grid where it has one.
	Quick bool
	// All adds the prose-only designs to Figures 9 and 11.
	All bool
}

// Figure is one ciexp subcommand: a table or figure of the evaluation,
// or one of the extensions' sweeps, and the function that regenerates
// it. A figure parses the flags only it uses, so a bad value fails only
// that figure.
type Figure struct {
	Name string
	Run  func(w io.Writer, in Inputs) error
}

// Figures lists every ciexp subcommand in `ciexp all` order.
var Figures = []Figure{
	figure("fig4", func(in Inputs) ([]mtcp.Result, []cellError, error) { return measured(measureMTCP(in.Eng, "fig4", 0)) },
		mtcpTable("Figure 4: mTCP epserver/epwget, 10 Gbps, 16 threads"), nil),
	figure("fig5", func(in Inputs) ([]mtcp.Result, []cellError, error) { return measured(measureMTCP(in.Eng, "fig5", 1e6)) },
		mtcpTable("Figure 5: mTCP with 1M-cycle work per request"), nil),
	figure("fig6", measureFigure6, figure6Table, nil),
	figure("fig7", measureFigure7, figure7Table, nil),
	figure("fig8", measureFigure8, figure8Table, nil),
	overheadFigure("fig9", 1),
	fig10,
	overheadFigure("fig11", 32),
	figure("fig12", func(in Inputs) ([]sweepPoint, []cellError, error) {
		return measureFigure12(in.Eng, in.Flags.Scale, nil, pick(in, nil, subsetWorkloads))
	}, figure12Table, nil),
	table7,
	figure("hybrid", func(in Inputs) ([]hybridRow, []cellError, error) {
		return measured(measureHybrid(in.Eng, hybridWorkloads, 5000, 2.0, in.Flags.Scale))
	}, hybridTable, nil),
	figure("allowable", func(in Inputs) ([]allowablePoint, []cellError, error) {
		return measured(measureAllowableError(in.Eng, nil, in.Flags.Scale))
	}, allowableTable, nil),
	figure("probes", func(in Inputs) ([]probeCountRow, []cellError, error) {
		return measured(measureProbeCounts(in.Eng, in.Flags.Scale, 5000))
	}, probesTable, nil),
	figure("chaos", func(in Inputs) ([]chaosRow, []cellError, error) {
		return runChaos(in.Eng, in.Flags.Seed, pick(in, chaosRates, []float64{0.01})), nil, nil
	}, chaosTable, gateChaos),
	figure("ramp", func(in Inputs) ([]rampRow, []cellError, error) {
		qp, err := in.Flags.ParseQuantum()
		if err != nil {
			return nil, nil, err
		}
		return measured(measureLoadRamp(in.Eng, in.Flags.Seed, soakHorizon(in), nil, qp))
	}, rampTable, gateRamp),
	figure("soak", measureSoakFigure, soakTable, gateSoak),
	figure("fleet", measureFleetFigure, fleetTable, gateFleet),
	figure("quantum", func(in Inputs) (*quantumFigure, []cellError, error) {
		return measureQuantum(in.Eng, in.Flags.Scale, pick(in, nil, []string{"radix", "histogram", "matrix_multiply", "dedup"}))
	}, quantumTable, gateQuantum),
	figure("sanitize", func(in Inputs) (*sanitizeFigure, []cellError, error) {
		return measured(measureSanitize(in.Eng, pick(in, 300, 50), in.Flags.Scale))
	}, sanitizeTable, gateSanitize),
	figure("interleave", func(in Inputs) ([]interleaveRow, []cellError, error) {
		return measured(runInterleaveSweep(in.Eng, pick(in, 20, 6), pick(in, in.Flags.Bound, 1)))
	}, interleaveTable, gateInterleave),
}

// pick is a figure's full grid, or its smoke grid under -quick.
func pick[T any](in Inputs, full, quick T) T {
	if in.Quick {
		return quick
	}
	return full
}

// figureDesigns are the designs plotted in Figures 9-11.
var figureDesigns = []instrument.Design{
	instrument.CI, instrument.CICycles, instrument.CnB,
	instrument.CD, instrument.Naive,
}

// allDesigns adds the two the paper reports in prose only ("we omit
// CnB-cycles and Naive-cycles to conserve room in the plots").
var allDesigns = append(append([]instrument.Design{}, figureDesigns...),
	instrument.NaiveCycles, instrument.CnBCycles)

// soakHorizon is the ramp's per-cell and the soak's per-phase virtual
// time: -soak-duration cycles times -scale.
func soakHorizon(in Inputs) int64 { return in.Flags.SoakDuration * int64(in.Flags.Scale) }

// overheadFigure is Figure 9 (threads=1) or Figure 11 (threads=32); -all
// adds the prose-only designs (Naive-Cycles, CnB-Cycles).
func overheadFigure(name string, threads int) Figure {
	return figure(name, func(in Inputs) (*figureOverhead, []cellError, error) {
		designs := figureDesigns
		if in.All {
			designs = allDesigns
		}
		fig := measureFigureOverheadSel(in.Eng, threads, in.Flags.Scale, designs, allWorkloads())
		return fig, fig.Errs, nil
	}, overheadTable, nil)
}

// overheadTable lays Figure 9/11 out as one row of per-design
// overheads per workload, then the medians.
func overheadTable(fig *figureOverhead, _ Inputs) *table {
	name := "Figure 9"
	if fig.Threads != 1 {
		name = "Figure 11"
	}
	t := &table{
		title: []string{fmt.Sprintf("%s: overhead of CI designs, %d thread(s), %d-cycle interval",
			name, fig.Threads, fig.IntervalCycles)},
		cols: []column{{"workload", "%-18s", ""}},
	}
	for _, d := range fig.Designs {
		t.cols = append(t.cols, column{d.String(), "%12s", "%11.1f%%"})
	}
	for _, rows := range fig.Rows {
		row := []any{rows[0].Workload}
		for _, r := range rows {
			row = append(row, r.Overhead*100)
		}
		t.rows = append(t.rows, row)
	}
	median := []any{"median"}
	for _, m := range fig.Medians {
		median = append(median, m*100)
	}
	t.rows = append(t.rows, median)
	return t
}

var (
	fig10 = figure("fig10", func(in Inputs) ([]accuracyRow, []cellError, error) {
		return measured(measureFigureAccuracy(in.Eng, in.Flags.Scale, figureDesigns))
	}, accuracyTable, nil)
	table7 = figure("table7", func(in Inputs) ([]table7Row, []cellError, error) {
		return measured(measureTable7(in.Eng, in.Flags.Scale))
	}, table7Table, nil)
)

// PrintFigure10 renders the interval-accuracy table.
func PrintFigure10(w io.Writer, eng *engine.Engine, scale int) error {
	return fig10.Run(w, Inputs{Eng: eng, Flags: &cliflags.Flags{Scale: scale}})
}

// PrintTable7 renders Table 7.
func PrintTable7(w io.Writer, eng *engine.Engine, scale int) error {
	return table7.Run(w, Inputs{Eng: eng, Flags: &cliflags.Flags{Scale: scale}})
}

func accuracyTable(rows []accuracyRow, _ Inputs) *table {
	t := &table{
		title: []string{"Figure 10: interval error vs 5000-cycle target (cycles), 1 thread"},
		cols: []column{{"workload", "%-18s", ""}, {"design", "%-12s", ""}, {"p10", "%10s", "%10d"},
			{"median", "%10s", "%10d"}, {"p90", "%10s", "%10d"}, {"p99", "%10s", "%10d"}, {"mean", "%10s", "%10.0f"}},
	}
	for _, r := range rows {
		e := r.Errors
		t.rows = append(t.rows, []any{r.Workload, r.Design.String(), e.P10, e.P50, e.P90, e.P99, e.MeanVal})
	}
	return t
}

func figure12Table(pts []sweepPoint, _ Inputs) *table {
	t := &table{
		title: []string{"Figure 12: slowdown vs interrupt interval (median across workloads)"},
		cols:  []column{{"interval", "%12s", "%12d"}, {"CI", "%14s", "%13.2fx"}, {"HW-interrupt", "%14s", "%13.2fx"}},
	}
	for _, p := range pts {
		t.rows = append(t.rows, []any{p.IntervalCycles, p.CISlowdown, p.HWSlowdown})
	}
	return t
}

// table7Table lays Table 7 out; its last row is the geo-mean, which has
// no absolute runtimes.
func table7Table(rows []table7Row, _ Inputs) *table {
	t := &table{
		title: []string{"Table 7: runtimes (PT in model-ms) and normalized CI / Naive, 1 & 32 threads"},
		cols: []column{{"workload", "%-18s", ""}, {"PT(1)", "%10s", "%10.1f"}, {"CI(1)", "%8s", "%8.2f"},
			{"N(1)", "%8s", "%8.2f"}, {"PT(32)", "%10s", "%10.1f"}, {"CI(32)", "%8s", "%8.2f"}, {"N(32)", "%8s", "%8.2f"}},
	}
	for i, r := range rows {
		var pt1, pt32 any = r.PTms1, r.PTms32
		if i == len(rows)-1 {
			pt1, pt32 = "", ""
		}
		t.rows = append(t.rows, []any{r.Workload, pt1, r.CI1, r.N1, pt32, r.CI32, r.N32})
	}
	return t
}
