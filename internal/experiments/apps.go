package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/ffwd"
	"repro/internal/mtcp"
	"repro/internal/shenango"
)

// mtcpConns is the Figure 4/5 x axis: concurrent connections per
// server thread.
var mtcpConns = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// printLines renders one line per cell of an n-cell sweep, in cell
// order. The app models' runs cannot fail; the engine's scope collects
// their scheduling-decision trace events and latency histograms.
func printLines(w io.Writer, eng *engine.Engine, tag string, n int, line func(i int) string) error {
	lines, errs := sweep(eng, n, func(i int) string { return fmt.Sprintf("%s/%d", tag, i) },
		func(i int) (string, error) { return line(i), nil })
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	return renderCellErrors(w, errs)
}

func printMTCP(w io.Writer, eng *engine.Engine, tag, title string, work int64) error {
	fmt.Fprintln(w, title)
	modes := []mtcp.Mode{mtcp.Kernel, mtcp.Orig, mtcp.CI}
	return printLines(w, eng, tag, len(modes)*len(mtcpConns), func(i int) string {
		mode, conns := modes[i/len(mtcpConns)], mtcpConns[i%len(mtcpConns)]
		return mtcp.Run(mtcp.Config{Mode: mode, Conns: conns, WorkCycles: work, Obs: eng.Obs}).String()
	})
}

// printFigure4 renders the mTCP throughput/latency comparison
// (epserver/epwget, 1 kB responses, no server-side compute).
func printFigure4(w io.Writer, eng *engine.Engine) error {
	return printMTCP(w, eng, "fig4", "Figure 4: mTCP epserver/epwget, 10 Gbps, 16 threads", 0)
}

// printFigure5 renders the mTCP comparison with a 1M-cycle compute
// loop per request (an application-server-like workload).
func printFigure5(w io.Writer, eng *engine.Engine) error {
	return printMTCP(w, eng, "fig5", "Figure 5: mTCP with 1M-cycle work per request", 1_000_000)
}

// printFigure6 renders the Shenango comparison: memcached latency vs
// offered load for the dedicated-core IOKernel and CI IOKernels at
// three intervals, plus the CPUMiner hash rate on the IOKernel core.
func printFigure6(w io.Writer, eng *engine.Engine) error {
	fmt.Fprintln(w, "Figure 6: Shenango memcached latency and CPUMiner hash rate")
	loads := []float64{50e3, 100e3, 200e3, 400e3, 600e3, 800e3}
	cfgs := []shenango.Config{
		{Kind: shenango.Dedicated},
		{Kind: shenango.CIHosted, IntervalCycles: 2000},
		{Kind: shenango.CIHosted, IntervalCycles: 8000},
		{Kind: shenango.CIHosted, IntervalCycles: 64000},
		{Kind: shenango.Pthreads},
		{Kind: shenango.PthreadsShared},
	}
	return printLines(w, eng, "fig6", len(cfgs)*len(loads), func(i int) string {
		c := cfgs[i/len(loads)]
		c.OfferedLoad = loads[i%len(loads)]
		c.Obs = eng.Obs
		return shenango.Run(c).String()
	})
}

// printFigure7 renders the fetch-and-add throughput scaling of
// delegation (dedicated and CI-designated) against lock designs, one
// thread count per row.
func printFigure7(w io.Writer, eng *engine.Engine) error {
	fmt.Fprintln(w, "Figure 7: fetch-and-add throughput (Mops) vs threads")
	threads := []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56}
	fmt.Fprintf(w, "%-10s", "threads")
	for _, d := range ffwd.Designs {
		fmt.Fprintf(w, "%14s", d)
	}
	fmt.Fprintln(w)
	return printLines(w, eng, "fig7", len(threads), func(i int) string {
		line := fmt.Sprintf("%-10d", threads[i])
		for _, d := range ffwd.Designs {
			r := ffwd.Run(ffwd.Config{Design: d, Threads: threads[i], Obs: eng.Obs})
			line += fmt.Sprintf("%14.2f", r.ThroughputMops)
		}
		return line
	})
}

// printFigure8 renders the client request latency distribution at 56
// threads.
func printFigure8(w io.Writer, eng *engine.Engine) error {
	fmt.Fprintln(w, "Figure 8: client request latency distribution (cycles), 56 threads")
	designs := []ffwd.Design{ffwd.DelegationDedicated, ffwd.DelegationCI, ffwd.MCS, ffwd.Spinlock}
	return printLines(w, eng, "fig8", len(designs), func(i int) string {
		d := designs[i]
		s := ffwd.Run(ffwd.Config{Design: d, Threads: 56, RecordLatencies: true, Obs: eng.Obs}).LatencySummary
		return fmt.Sprintf("%-22s p10=%-8d p50=%-8d p90=%-8d p99=%-9d p99.9=%-9d max=%d",
			d.String(), s.P10, s.P50, s.P90, s.P99, s.P999, s.Max)
	})
}
