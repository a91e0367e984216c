package experiments

import (
	"fmt"
	"io"

	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/engine"
	"repro/internal/workloads"
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
	{"fig4", func(w io.Writer, in Inputs) error { return printFigure4(w, in.Eng) }},
	{"fig5", func(w io.Writer, in Inputs) error { return printFigure5(w, in.Eng) }},
	{"fig6", func(w io.Writer, in Inputs) error { return printFigure6(w, in.Eng) }},
	{"fig7", func(w io.Writer, in Inputs) error { return printFigure7(w, in.Eng) }},
	{"fig8", func(w io.Writer, in Inputs) error { return printFigure8(w, in.Eng) }},
	{"fig9", func(w io.Writer, in Inputs) error {
		return printFigureOverhead(w, in.Eng, 1, in.Flags.Scale, in.All)
	}},
	{"fig10", func(w io.Writer, in Inputs) error { return PrintFigure10(w, in.Eng, in.Flags.Scale) }},
	{"fig11", func(w io.Writer, in Inputs) error {
		return printFigureOverhead(w, in.Eng, 32, in.Flags.Scale, in.All)
	}},
	{"fig12", func(w io.Writer, in Inputs) error { return printFigure12(w, in.Eng, in.Flags.Scale, in.Quick) }},
	{"table7", func(w io.Writer, in Inputs) error { return PrintTable7(w, in.Eng, in.Flags.Scale) }},
	{"hybrid", func(w io.Writer, in Inputs) error { return printHybrid(w, in.Eng, in.Flags.Scale) }},
	{"allowable", func(w io.Writer, in Inputs) error { return printAllowable(w, in.Eng, in.Flags.Scale) }},
	{"probes", func(w io.Writer, in Inputs) error { return printProbeCounts(w, in.Eng, in.Flags.Scale) }},
	{"chaos", func(w io.Writer, in Inputs) error {
		rates := chaosRates
		if in.Quick {
			rates = []float64{0.01}
		}
		return printChaos(w, in.Eng, in.Flags.Seed, rates)
	}},
	{"ramp", func(w io.Writer, in Inputs) error {
		qp, err := in.Flags.ParseQuantum()
		if err != nil {
			return err
		}
		f := in.Flags
		return printRamp(w, in.Eng, f.Seed, f.SoakDuration*int64(f.Scale), f.SLO(), qp)
	}},
	{"soak", func(w io.Writer, in Inputs) error {
		qp, err := in.Flags.ParseQuantum()
		if err != nil {
			return err
		}
		f := in.Flags
		return printSoak(w, in.Eng, f.Seed, f.SoakDuration*int64(f.Scale), f.SLO(), in.Quick, qp)
	}},
	{"fleet", func(w io.Writer, in Inputs) error {
		cfg, err := in.Flags.FleetConfig(in.Flags.SoakDuration)
		if err != nil {
			return err
		}
		return printFleet(w, in.Eng, cfg, in.Quick, int64(in.Flags.Scale))
	}},
	{"quantum", func(w io.Writer, in Inputs) error { return printQuantum(w, in.Eng, in.Flags.Scale, in.Quick) }},
	{"sanitize", func(w io.Writer, in Inputs) error { return printSanitize(w, in.Eng, in.Flags.Scale, in.Quick) }},
	{"interleave", func(w io.Writer, in Inputs) error {
		bound := in.Flags.Bound
		if in.Quick {
			bound = 1
		}
		return printInterleave(w, in.Eng, bound, in.Quick)
	}},
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

// printFigureOverhead renders Figure 9 (threads=1) / Figure 11
// (threads=32) as a table of per-workload overheads. With all set, the
// prose-only designs (Naive-Cycles, CnB-Cycles) are included. Failed
// cells are reported after the table and produce a non-nil error
// without suppressing the successful rows.
func printFigureOverhead(w io.Writer, eng *engine.Engine, threads, scale int, all bool) error {
	designs := figureDesigns
	if all {
		designs = allDesigns
	}
	fig := measureFigureOverheadSel(eng, threads, scale, designs, allWorkloads())
	fig.render(w)
	return renderCellErrors(w, fig.Errs)
}

// render writes the figure as the evaluation's table format.
func (fig *figureOverhead) render(w io.Writer) {
	figName := "Figure 9"
	if fig.Threads != 1 {
		figName = "Figure 11"
	}
	fmt.Fprintf(w, "%s: overhead of CI designs, %d thread(s), %d-cycle interval\n",
		figName, fig.Threads, fig.IntervalCycles)
	fmt.Fprintf(w, "%-18s", "workload")
	for _, d := range fig.Designs {
		fmt.Fprintf(w, "%12s", d)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads.All {
		rows, ok := fig.Rows[wl.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-18s", wl.Name)
		for _, row := range rows {
			fmt.Fprintf(w, "%11.1f%%", row.Overhead*100)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-18s", "median")
	for _, m := range fig.Medians {
		fmt.Fprintf(w, "%11.1f%%", m*100)
	}
	fmt.Fprintln(w)
}

// PrintFigure10 renders the interval-accuracy table.
func PrintFigure10(w io.Writer, eng *engine.Engine, scale int) error {
	rows, errs := measureFigureAccuracy(eng, scale, figureDesigns)
	fmt.Fprintln(w, "Figure 10: interval error vs 5000-cycle target (cycles), 1 thread")
	fmt.Fprintf(w, "%-18s%-12s%10s%10s%10s%10s%10s\n",
		"workload", "design", "p10", "median", "p90", "p99", "mean")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s%-12s%10d%10d%10d%10d%10.0f\n",
			r.Workload, r.Design.String(), r.Errors.P10, r.Errors.P50,
			r.Errors.P90, r.Errors.P99, r.Errors.MeanVal)
	}
	return renderCellErrors(w, errs)
}

// printFigure12 renders the CI vs hardware-interrupt interval sweep.
func printFigure12(w io.Writer, eng *engine.Engine, scale int, quick bool) error {
	var names []string
	if quick {
		names = subsetWorkloads
	}
	pts, cerrs, err := measureFigure12(eng, scale, nil, names)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 12: slowdown vs interrupt interval (median across workloads)")
	fmt.Fprintf(w, "%12s%14s%14s\n", "interval", "CI", "HW-interrupt")
	for _, p := range pts {
		fmt.Fprintf(w, "%12d%13.2fx%13.2fx\n", p.IntervalCycles, p.CISlowdown, p.HWSlowdown)
	}
	return renderCellErrors(w, cerrs)
}

// PrintTable7 renders Table 7.
func PrintTable7(w io.Writer, eng *engine.Engine, scale int) error {
	rows, geo, errs := measureTable7(eng, scale)
	fmt.Fprintln(w, "Table 7: runtimes (PT in model-ms) and normalized CI / Naive, 1 & 32 threads")
	fmt.Fprintf(w, "%-18s%10s%8s%8s%10s%8s%8s\n", "workload", "PT(1)", "CI(1)", "N(1)", "PT(32)", "CI(32)", "N(32)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s%10.1f%8.2f%8.2f%10.1f%8.2f%8.2f\n",
			r.Workload, r.PTms1, r.CI1, r.N1, r.PTms32, r.CI32, r.N32)
	}
	fmt.Fprintf(w, "%-18s%10s%8.2f%8.2f%10s%8.2f%8.2f\n", "geo-mean", "", geo.CI1, geo.N1, "", geo.CI32, geo.N32)
	return renderCellErrors(w, errs)
}
