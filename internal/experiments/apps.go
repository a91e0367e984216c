package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/ffwd"
	"repro/internal/mtcp"
	"repro/internal/shenango"
	"repro/internal/stats"
)

// appSweep runs cell(0..n-1) of Figures 4-8 on the engine. The app
// models cannot fail; the engine's scope collects their
// scheduling-decision trace events and latency histograms.
func appSweep[T any](eng *engine.Engine, tag string, n int, cell func(i int) T) ([]T, []cellError) {
	return sweep(eng, n, func(i int) string { return fmt.Sprintf("%s/%d", tag, i) },
		func(i int) (T, error) { return cell(i), nil })
}

// mtcpConns is the Figure 4/5 x axis: concurrent connections per
// server thread.
var mtcpConns = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// measureMTCP runs the mTCP comparison (Figure 4: epserver/epwget, 1 kB
// responses, no server-side compute; Figure 5: a work-cycle compute
// loop per request) for every mode and connection count.
func measureMTCP(eng *engine.Engine, tag string, work int64) ([]mtcp.Result, []cellError) {
	modes := []mtcp.Mode{mtcp.Kernel, mtcp.Orig, mtcp.CI}
	return appSweep(eng, tag, len(modes)*len(mtcpConns), func(i int) mtcp.Result {
		mode, conns := modes[i/len(mtcpConns)], mtcpConns[i%len(mtcpConns)]
		return mtcp.Run(mtcp.Config{Mode: mode, Conns: conns, WorkCycles: work, Obs: eng.Obs})
	})
}

// mtcpTable lays Figure 4 or 5 out under title, one run per line.
func mtcpTable(title string) func([]mtcp.Result, Inputs) *table {
	return func(rs []mtcp.Result, _ Inputs) *table {
		t := &table{title: []string{title}, cols: []column{{head: "%-7s"}, {cell: " conns=%-5d"}, {cell: " %6.2f Gbps"},
			{cell: "  mean %7.1fµs"}, {cell: "  p50 %7.1fµs"}, {cell: "  p99 %8.1fµs"}, {cell: "  drops=%d"}}}
		for _, r := range rs {
			t.rows = append(t.rows, []any{r.Mode.String(), r.Conns, r.ThroughputGbps,
				r.MeanLatencyUs, r.MedianLatencyUs, r.P99LatencyUs, r.Drops})
		}
		return t
	}
}

// measureFigure6 runs the Shenango comparison: memcached latency vs
// offered load for the dedicated-core IOKernel and CI IOKernels at
// three intervals, plus the CPUMiner hash rate on the IOKernel core.
func measureFigure6(in Inputs) ([]shenango.Result, []cellError, error) {
	loads := []float64{50e3, 100e3, 200e3, 400e3, 600e3, 800e3}
	cfgs := []shenango.Config{
		{Kind: shenango.Dedicated},
		{Kind: shenango.CIHosted, IntervalCycles: 2000},
		{Kind: shenango.CIHosted, IntervalCycles: 8000},
		{Kind: shenango.CIHosted, IntervalCycles: 64000},
		{Kind: shenango.Pthreads},
		{Kind: shenango.PthreadsShared},
	}
	return measured(appSweep(in.Eng, "fig6", len(cfgs)*len(loads), func(i int) shenango.Result {
		c := cfgs[i/len(loads)]
		c.OfferedLoad = loads[i%len(loads)]
		c.Obs = in.Eng.Obs
		return shenango.Run(c)
	}))
}

func figure6Table(rs []shenango.Result, _ Inputs) *table {
	t := &table{title: []string{"Figure 6: Shenango memcached latency and CPUMiner hash rate"},
		cols: []column{{head: "%-18s"}, {cell: " load=%7.0f/s"}, {cell: "  achieved=%7.0f/s"},
			{cell: "  p50=%7.1fµs"}, {cell: "  p99.9=%8.1fµs"}, {cell: "  miner=%4.0f%%"}}}
	for _, r := range rs {
		tag := r.Kind.String()
		if r.Kind == shenango.CIHosted {
			tag = fmt.Sprintf("%s(%d)", tag, r.IntervalCycles)
		}
		t.rows = append(t.rows, []any{tag, r.OfferedLoad, r.AchievedLoad, r.MedianUs, r.P999Us, r.MinerHashRate * 100})
	}
	return t
}

// fig7Threads is the Figure 7 x axis.
var fig7Threads = []int{1, 2, 4, 8, 16, 24, 32, 40, 48, 56}

// measureFigure7 runs the fetch-and-add throughput scaling of
// delegation (dedicated and CI-designated) against lock designs: per
// thread count, every design's Mops.
func measureFigure7(in Inputs) ([][]float64, []cellError, error) {
	return measured(appSweep(in.Eng, "fig7", len(fig7Threads), func(i int) []float64 {
		mops := make([]float64, len(ffwd.Designs))
		for di, d := range ffwd.Designs {
			mops[di] = ffwd.Run(ffwd.Config{Design: d, Threads: fig7Threads[i], Obs: in.Eng.Obs}).ThroughputMops
		}
		return mops
	}))
}

func figure7Table(rows [][]float64, _ Inputs) *table {
	t := &table{title: []string{"Figure 7: fetch-and-add throughput (Mops) vs threads"},
		cols: []column{{"threads", "%-10s", "%-10d"}}}
	for _, d := range ffwd.Designs {
		t.cols = append(t.cols, column{d.String(), "%14s", "%14.2f"})
	}
	for i, mops := range rows {
		row := []any{fig7Threads[i]}
		for _, m := range mops {
			row = append(row, m)
		}
		t.rows = append(t.rows, row)
	}
	return t
}

// fig8Designs are the Figure 8 rows, measured at 56 threads.
var fig8Designs = []ffwd.Design{ffwd.DelegationDedicated, ffwd.DelegationCI, ffwd.MCS, ffwd.Spinlock}

// measureFigure8 runs the client request latency distribution at 56
// threads, one design per cell.
func measureFigure8(in Inputs) ([]stats.Summary, []cellError, error) {
	return measured(appSweep(in.Eng, "fig8", len(fig8Designs), func(i int) stats.Summary {
		return ffwd.Run(ffwd.Config{Design: fig8Designs[i], Threads: 56, RecordLatencies: true, Obs: in.Eng.Obs}).LatencySummary
	}))
}

func figure8Table(sums []stats.Summary, _ Inputs) *table {
	t := &table{title: []string{"Figure 8: client request latency distribution (cycles), 56 threads"},
		cols: []column{{head: "%-22s"}, {cell: " p10=%-8d"}, {cell: " p50=%-8d"}, {cell: " p90=%-8d"},
			{cell: " p99=%-9d"}, {cell: " p99.9=%-9d"}, {cell: " max=%d"}}}
	for i, s := range sums {
		t.rows = append(t.rows, []any{fig8Designs[i].String(), s.P10, s.P50, s.P90, s.P99, s.P999, s.Max})
	}
	return t
}
