// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) on the VM substrate: the overhead and
// interval-accuracy microbenchmarks over the 28 workloads (Figures
// 9-12, Table 7) and, via the app simulators, the mTCP, Shenango and
// FFWD results (Figures 4-8).
//
// Figures lists them as data and ciexp is a loop over that list. Each
// figure is three steps joined by figure: a measure step runs its cells
// into typed rows, a table step lays the rows out, and a gate (none for
// the paper's figures) returns one message per violation; render is the
// one place a figure is printed. Every measure step runs its cells
// through one sweep loop (sweep, and workloadSweep for the
// one-cell-per-workload sweeps) on the parallel experiment engine
// (internal/engine): cells are virtual-time independent, so they are
// sharded across a bounded worker pool, instrumented modules and
// baseline runs are memoized across cells, and results merge in input
// order — output is byte-identical at any worker count.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// handlerWorkCycles models the paper's measurement handler ("collects
// statistics using RDTSCP and nothing else").
const handlerWorkCycles = 25

// runLimit bounds every experiment run.
const runLimit = 400_000_000

// baseline holds one workload's uninstrumented reference run.
type baseline struct {
	Cycles     int64
	IRPerCycle float64
}

// measuredRun is a measured CI run's set-up: the representative thread
// of a threads-thread machine under the run limit, tuned to irPerCycle,
// with the measurement handler registered every interval cycles.
func measuredRun(threads int, irPerCycle float64, interval int64) core.Setup {
	return core.Setup{Threads: threads, Limit: runLimit, IRPerCycle: irPerCycle, Interval: interval, Handler: chargeWork}
}

// chargeWork is the measurement handler: handlerWorkCycles per delivery.
func chargeWork(t *vm.Thread, _ uint64) { t.Charge(handlerWorkCycles) }

// overheadRow is one (workload, design) overhead measurement.
type overheadRow struct {
	Workload string
	Design   instrument.Design
	// Norm is instrumented runtime normalized to the uninstrumented
	// baseline (Table 7's CI / N columns).
	Norm float64
	// Overhead is Norm-1 (Figure 9/11's y axis).
	Overhead float64
	// Intervals holds the measured inter-interrupt gaps in cycles when
	// recording was requested.
	Intervals []int64
}

// measureOverhead instruments the workload with the design, tuned for
// the target cycle interval, and measures its runtime against the
// baseline. When record is set the run is calibrated
// (core.Program.Calibrate) so its median interval lands near the
// target, and its gaps are kept. The compiled module is memoized in eng
// (nil runs uncached) and shared read-only across cells.
func measureOverhead(eng *engine.Engine, wl *workloads.Workload, d instrument.Design, base baseline,
	scale, threads int, intervalCycles int64, record bool) (overheadRow, error) {

	prog, err := compileCached(eng, wl, scale,
		core.WithDesign(d), core.WithProbeInterval(probeIntervalIR))
	if err != nil {
		return overheadRow{}, fmt.Errorf("%s/%v: %w", wl.Name, d, err)
	}
	s := measuredRun(threads, base.IRPerCycle, intervalCycles)
	s.Obs = eng.Obs
	var r core.ThreadRun
	if record {
		r, err = prog.Calibrate(s, "main", 0)
	} else {
		r, err = core.RunThread(prog.Code(), s, "main", 0)
	}
	if err != nil {
		return overheadRow{}, fmt.Errorf("%s/%v: %w", wl.Name, d, err)
	}
	norm := float64(r.Stats.Cycles) / float64(base.Cycles)
	row := overheadRow{Workload: wl.Name, Design: d, Norm: norm, Overhead: norm - 1}
	if record {
		row.Intervals = r.Gaps
	}
	return row, nil
}

// probeIntervalIR is the compile-time probe interval used across the
// evaluation.
const probeIntervalIR = 250

// figureOverhead computes Figure 9 (threads=1) or Figure 11
// (threads=32): per-workload overhead for each design at a 5,000-cycle
// target interval.
type figureOverhead struct {
	Threads        int
	IntervalCycles int64
	Designs        []instrument.Design
	// Rows holds each measured workload's rows, one per design, in
	// workload order.
	Rows [][]overheadRow
	// Medians[design index] is the median overhead across workloads.
	Medians []float64
	// Errs collects failed workload cells; their rows are absent and
	// excluded from the medians.
	Errs []cellError
}

// measureFigureOverheadSel runs the Figure 9/11 sweep over a workload
// selection. Each workload is one engine cell: its baseline plus one
// measured run per design.
func measureFigureOverheadSel(eng *engine.Engine, threads, scale int, designs []instrument.Design,
	sel []*workloads.Workload) *figureOverhead {

	fig := &figureOverhead{
		Threads:        threads,
		IntervalCycles: 5000,
		Designs:        designs,
	}
	cells, errs := workloadSweep(eng, sel, "overhead", func(wl *workloads.Workload) ([]overheadRow, error) {
		return againstBaseline(eng, wl, scale, threads, designs, func(base baseline, d instrument.Design) (overheadRow, error) {
			return measureOverhead(eng, wl, d, base, scale, threads, fig.IntervalCycles, false)
		})
	})
	fig.Errs = errs
	// Rows follow the paper's workload order, whatever sel's.
	paperIndex := func(rows []overheadRow) int {
		return slices.IndexFunc(workloads.All, func(wl workloads.Workload) bool { return wl.Name == rows[0].Workload })
	}
	slices.SortStableFunc(cells, func(a, b []overheadRow) int { return paperIndex(a) - paperIndex(b) })
	perDesign := make([][]float64, len(designs))
	fig.Rows = cells
	for _, rows := range cells {
		for di, row := range rows {
			perDesign[di] = append(perDesign[di], row.Overhead)
		}
	}
	fig.Medians = make([]float64, len(designs))
	for di := range designs {
		fig.Medians[di] = stats.MedianF(perDesign[di])
	}
	return fig
}

// accuracyRow is one workload's interval-error distribution (Figure 10).
type accuracyRow struct {
	Workload string
	Design   instrument.Design
	// Errors summarizes (gap - target) in cycles.
	Errors stats.Summary
}

// measureFigureAccuracy computes Figure 10: interval error percentiles
// per workload at a 5,000-cycle target, single thread. One workload
// (all designs) is one engine cell; failed cells are reported, not
// fatal.
func measureFigureAccuracy(eng *engine.Engine, scale int, designs []instrument.Design) ([]accuracyRow, []cellError) {
	const target = 5000
	cells, errs := workloadSweep(eng, allWorkloads(), "accuracy", func(wl *workloads.Workload) ([]accuracyRow, error) {
		return againstBaseline(eng, wl, scale, 1, designs, func(base baseline, d instrument.Design) (accuracyRow, error) {
			row, err := measureOverhead(eng, wl, d, base, scale, 1, target, true)
			if err != nil {
				return accuracyRow{}, err
			}
			return newAccuracyRow(eng, row, target), nil
		})
	})
	var out []accuracyRow
	for _, rows := range cells {
		out = append(out, rows...)
	}
	return out, errs
}

// newAccuracyRow summarizes one calibrated run's interval errors against
// target, feeding them to the engine's scope when it is enabled.
func newAccuracyRow(eng *engine.Engine, row overheadRow, target int64) accuracyRow {
	errsCy := core.IntervalErrors(row.Intervals, target, false)
	if scope := eng.Obs; scope.Enabled() {
		// Feed the per-design interval-error histograms behind
		// ciexp -metrics (absolute error, paper-CDF style, plus the
		// signed distribution).
		name := "interval_error/" + row.Design.String()
		for _, e := range errsCy {
			scope.Observe(name, e)
			if e < 0 {
				e = -e
			}
			scope.Observe("interval_abs_error/"+row.Design.String(), e)
		}
	}
	return accuracyRow{Workload: row.Workload, Design: row.Design, Errors: stats.Summarize(errsCy)}
}

// sweepPoint is one (interval, kind) aggregate of Figure 12.
type sweepPoint struct {
	IntervalCycles int64
	// CISlowdown / HWSlowdown are the median slowdown factors across
	// workloads for compiler interrupts and hardware interrupts.
	CISlowdown float64
	HWSlowdown float64
	// CIAll / HWAll hold the per-workload factors (the overlaid points
	// in the paper's plot).
	CIAll, HWAll []float64
}

// fig12Cell is one workload's slowdown vectors across the interval
// sweep (the cell unit of Figure 12).
type fig12Cell struct {
	CI, HW []float64
}

// measureFigure12 sweeps the interrupt interval and compares CI against
// hardware (performance-counter) interrupts across all workloads. One
// workload (all intervals) is one engine cell. The error return is
// reserved for configuration mistakes (unknown workload names);
// per-cell run failures land in the cellError list.
func measureFigure12(eng *engine.Engine, scale int, intervals []int64, names []string) ([]sweepPoint, []cellError, error) {
	if len(intervals) == 0 {
		intervals = []int64{500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 500000}
	}
	sel := allWorkloads()
	if len(names) > 0 {
		var err error
		sel, err = workloadsByName(names)
		if err != nil {
			return nil, nil, err
		}
	}
	cells, errs := workloadSweep(eng, sel, "fig12",
		func(wl *workloads.Workload) (fig12Cell, error) {
			return measureFig12Workload(eng, wl, scale, intervals)
		})
	out := make([]sweepPoint, len(intervals))
	for ii, interval := range intervals {
		pt := sweepPoint{IntervalCycles: interval}
		for _, cell := range cells {
			pt.CIAll = append(pt.CIAll, cell.CI[ii])
			pt.HWAll = append(pt.HWAll, cell.HW[ii])
		}
		pt.CISlowdown = stats.MedianF(pt.CIAll)
		pt.HWSlowdown = stats.MedianF(pt.HWAll)
		out[ii] = pt
	}
	return out, errs, nil
}

// measureFig12Workload runs one workload's CI and hardware-interrupt
// slowdowns across every interval, reusing the memoized baseline,
// CI-instrumented module and uninstrumented source module.
func measureFig12Workload(eng *engine.Engine, wl *workloads.Workload, scale int, intervals []int64) (fig12Cell, error) {
	base, err := baselineCached(eng, wl, scale, 1)
	if err != nil {
		return fig12Cell{}, err
	}
	prog, err := compileCached(eng, wl, scale,
		core.WithDesign(instrument.CI), core.WithProbeInterval(probeIntervalIR))
	if err != nil {
		return fig12Cell{}, err
	}
	hwCode := source(eng, wl, scale).Code
	cell := fig12Cell{
		CI: make([]float64, 0, len(intervals)),
		HW: make([]float64, 0, len(intervals)),
	}
	for _, interval := range intervals {
		ci, err := core.RunThread(prog.Code(), measuredRun(1, base.IRPerCycle, interval), "main", 0)
		if err != nil {
			return fig12Cell{}, fmt.Errorf("%s CI@%d: %w", wl.Name, interval, err)
		}
		cell.CI = append(cell.CI, float64(ci.Stats.Cycles)/float64(base.Cycles))

		// Hardware-interrupt run on the uninstrumented program.
		hw, err := core.RunThread(hwCode, core.Setup{Threads: 1, Limit: runLimit, Timer: interval, Handler: chargeWork}, "main", 0)
		if err != nil {
			return fig12Cell{}, fmt.Errorf("%s HW@%d: %w", wl.Name, interval, err)
		}
		cell.HW = append(cell.HW, float64(hw.Stats.Cycles)/float64(base.Cycles))
	}
	return cell, nil
}

// table7Row mirrors one row of Table 7.
type table7Row struct {
	Workload string
	// PTms1/PTms32 are the uninstrumented ("pthreads") runtimes in
	// virtual milliseconds at a 2.6 GHz model clock.
	PTms1, PTms32 float64
	// CI1, N1, CI32, N32 are normalized runtimes.
	CI1, N1, CI32, N32 float64
}

// modelGHz converts virtual cycles to milliseconds for Table 7's
// absolute column.
const modelGHz = 2.6

// measureTable7 reproduces Table 7: per-workload absolute baseline
// runtime plus normalized CI and Naive runtimes for 1 and 32 threads,
// then the geo-mean row. One workload is one engine cell; failed cells
// drop out of the table and the geo-mean.
func measureTable7(eng *engine.Engine, scale int) ([]table7Row, []cellError) {
	rows, errs := workloadSweep(eng, allWorkloads(), "table7",
		func(wl *workloads.Workload) (table7Row, error) { return measureTable7Workload(eng, wl, scale) })
	var ci1s, n1s, ci32s, n32s []float64
	for _, row := range rows {
		ci1s = append(ci1s, row.CI1)
		n1s = append(n1s, row.N1)
		ci32s = append(ci32s, row.CI32)
		n32s = append(n32s, row.N32)
	}
	return append(rows, table7Row{Workload: "geo-mean", CI1: stats.GeoMean(ci1s), N1: stats.GeoMean(n1s),
		CI32: stats.GeoMean(ci32s), N32: stats.GeoMean(n32s)}), errs
}

func measureTable7Workload(eng *engine.Engine, wl *workloads.Workload, scale int) (table7Row, error) {
	row := table7Row{Workload: wl.Name}
	for _, threads := range []int{1, 32} {
		base, err := baselineCached(eng, wl, scale, threads)
		if err != nil {
			return row, err
		}
		ci, err := measureOverhead(eng, wl, instrument.CI, base, scale, threads, 5000, false)
		if err != nil {
			return row, err
		}
		nv, err := measureOverhead(eng, wl, instrument.Naive, base, scale, threads, 5000, false)
		if err != nil {
			return row, err
		}
		ms := float64(base.Cycles) / (modelGHz * 1e6)
		if threads == 1 {
			row.PTms1, row.CI1, row.N1 = ms, ci.Norm, nv.Norm
		} else {
			row.PTms32, row.CI32, row.N32 = ms, ci.Norm, nv.Norm
		}
	}
	return row, nil
}
