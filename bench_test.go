// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5). Each benchmark runs the same harness the ciexp
// command uses and reports the figure's headline numbers as custom
// metrics; run with -v to see the full rows.
//
//	go test -bench=. -benchmem
//
// Use -short to restrict the microbenchmark figures to a workload
// subset.
package repro

import (
	"flag"
	"fmt"
	"io"
	"testing"

	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/ffwd"
	"repro/internal/mtcp"
	"repro/internal/shenango"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// sweepWorkers selects the experiment-engine worker count for the
// sweep benchmarks (0 = GOMAXPROCS; 1 reproduces the serial pipeline).
var sweepWorkers = flag.Int("sweepworkers", 0, "experiment engine workers for sweep benchmarks (0 = GOMAXPROCS)")

// benchEngine returns a fresh engine per sweep so benchmark iterations
// time the full measurement (compile + baselines + runs), not cache
// replay; memoization still collapses duplicate work within one sweep.
func benchEngine() *engine.Engine { return engine.New(*sweepWorkers) }

// quickWorkloads is the -short subset: one representative per control
// flow family.
var quickWorkloads = []string{
	"radix", "histogram", "barnes", "matrix_multiply",
	"volrend", "swaptions", "water-nsquared", "dedup",
}

// BenchmarkFigure4MTCPThroughputLatency regenerates Figure 4: download
// throughput and response latency of epserver/epwget vs concurrent
// connections for kernel networking, stock mTCP and CI-mTCP.
func BenchmarkFigure4MTCPThroughputLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ci := mtcp.Run(mtcp.Config{Mode: mtcp.CI, Conns: 64})
		orig := mtcp.Run(mtcp.Config{Mode: mtcp.Orig, Conns: 64})
		kern := mtcp.Run(mtcp.Config{Mode: mtcp.Kernel, Conns: 128})
		b.ReportMetric(ci.ThroughputGbps, "CI-Gbps")
		b.ReportMetric(orig.ThroughputGbps, "orig-Gbps")
		b.ReportMetric(kern.ThroughputGbps, "kernel-Gbps@128conns")
		b.ReportMetric(ci.ThroughputGbps/orig.ThroughputGbps, "CI/orig")
	}
	logRows(b, func(w io.Writer) error { return experiments.PrintFigure4(w, nil) })
}

// BenchmarkFigure5MTCPWithWork regenerates Figure 5: the same sweep
// with 1M cycles of application work per request.
func BenchmarkFigure5MTCPWithWork(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ci := mtcp.Run(mtcp.Config{Mode: mtcp.CI, Conns: 16, WorkCycles: 1_000_000})
		orig := mtcp.Run(mtcp.Config{Mode: mtcp.Orig, Conns: 16, WorkCycles: 1_000_000})
		kern := mtcp.Run(mtcp.Config{Mode: mtcp.Kernel, Conns: 16, WorkCycles: 1_000_000})
		b.ReportMetric(ci.ThroughputGbps/orig.ThroughputGbps, "CI/orig")
		b.ReportMetric(kern.ThroughputGbps/ci.ThroughputGbps, "kernel/CI")
		b.ReportMetric(1-ci.MedianLatencyUs/orig.MedianLatencyUs, "latency-gain")
	}
}

// BenchmarkFigure6Shenango regenerates Figure 6: memcached latency vs
// load under the dedicated-core and CI-hosted IOKernels, plus the
// miner's recovered hash rate.
func BenchmarkFigure6Shenango(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stock := shenango.Run(shenango.Config{Kind: shenango.Dedicated, OfferedLoad: 200e3})
		ci8k := shenango.Run(shenango.Config{Kind: shenango.CIHosted, IntervalCycles: 8000, OfferedLoad: 200e3})
		ci64k := shenango.Run(shenango.Config{Kind: shenango.CIHosted, IntervalCycles: 64000, OfferedLoad: 50e3})
		b.ReportMetric(stock.MedianUs, "stock-p50-us")
		b.ReportMetric(ci8k.MedianUs, "CI8k-p50-us")
		b.ReportMetric(ci8k.MinerHashRate*100, "CI8k-miner-%")
		b.ReportMetric(ci64k.MinerHashRate*100, "CI64k-miner-%")
	}
}

// BenchmarkFigure7Delegation regenerates Figure 7: fetch-and-add
// throughput vs threads across delegation and lock designs.
func BenchmarkFigure7Delegation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var crossover int
		for _, t := range []int{2, 4, 8, 16, 32, 56} {
			ded := ffwd.Run(ffwd.Config{Design: ffwd.DelegationDedicated, Threads: t})
			ci := ffwd.Run(ffwd.Config{Design: ffwd.DelegationCI, Threads: t})
			if ci.ThroughputMops > ded.ThroughputMops {
				crossover = t
			}
		}
		ded56 := ffwd.Run(ffwd.Config{Design: ffwd.DelegationDedicated, Threads: 56})
		mcs56 := ffwd.Run(ffwd.Config{Design: ffwd.MCS, Threads: 56})
		spin56 := ffwd.Run(ffwd.Config{Design: ffwd.Spinlock, Threads: 56})
		b.ReportMetric(float64(crossover), "CI-wins-up-to-threads")
		b.ReportMetric(ded56.ThroughputMops, "delegation-Mops@56")
		b.ReportMetric(mcs56.ThroughputMops, "MCS-Mops@56")
		b.ReportMetric(spin56.ThroughputMops, "spin-Mops@56")
	}
	logRows(b, func(w io.Writer) error { return experiments.PrintFigure7(w, nil) })
}

// BenchmarkFigure8LatencyDistribution regenerates Figure 8: the client
// request latency distribution at 56 threads.
func BenchmarkFigure8LatencyDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ded := ffwd.Run(ffwd.Config{Design: ffwd.DelegationDedicated, Threads: 56, RecordLatencies: true})
		ci := ffwd.Run(ffwd.Config{Design: ffwd.DelegationCI, Threads: 56, RecordLatencies: true})
		spin := ffwd.Run(ffwd.Config{Design: ffwd.Spinlock, Threads: 56, RecordLatencies: true})
		b.ReportMetric(float64(ded.LatencySummary.P50), "delegation-p50-cy")
		b.ReportMetric(float64(ci.LatencySummary.P50), "delegationCI-p50-cy")
		b.ReportMetric(float64(spin.LatencySummary.P999), "spin-p99.9-cy")
	}
}

func overheadBench(b *testing.B, threads int) {
	designs := []instrument.Design{
		instrument.CI, instrument.CICycles, instrument.CnB,
		instrument.CD, instrument.Naive,
	}
	sel := selectedWorkloads(b)
	for i := 0; i < b.N; i++ {
		fig := experiments.MeasureFigureOverheadSel(benchEngine(), threads, 1, designs, sel)
		if len(fig.Errs) > 0 {
			b.Fatalf("sweep cells failed: %v", fig.Errs)
		}
		for di, d := range designs {
			b.ReportMetric(fig.Medians[di]*100, d.String()+"-median-%")
		}
	}
}

// BenchmarkSweepWorkers times the identical Figure 9 sweep at
// workers=1 (the legacy serial pipeline) and workers=8 (the sharded
// engine) with a fresh cache each iteration — the engine's headline
// wall-clock comparison. Results are byte-identical across the two
// (TestEngineWorkerDeterminism in internal/experiments); only the
// wall-clock differs.
func BenchmarkSweepWorkers(b *testing.B) {
	designs := []instrument.Design{
		instrument.CI, instrument.CICycles, instrument.CnB,
		instrument.CD, instrument.Naive,
	}
	sel := selectedWorkloads(b)
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fig := experiments.MeasureFigureOverheadSel(engine.New(workers), 1, 1, designs, sel)
				if len(fig.Errs) > 0 {
					b.Fatalf("sweep cells failed: %v", fig.Errs)
				}
			}
		})
	}
}

// BenchmarkFigure9Overhead1T regenerates Figure 9: overhead of the CI
// designs at a 5,000-cycle interval, single-threaded.
func BenchmarkFigure9Overhead1T(b *testing.B) { overheadBench(b, 1) }

// BenchmarkFigure11Overhead32T regenerates Figure 11: the same
// measurement with 32 threads sharing the memory system.
func BenchmarkFigure11Overhead32T(b *testing.B) { overheadBench(b, 32) }

// BenchmarkFigure10Accuracy regenerates Figure 10: interval error
// percentiles vs the 5,000-cycle target, per design.
func BenchmarkFigure10Accuracy(b *testing.B) {
	sel := selectedWorkloads(b)
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		var ciMed, cycMedMin []float64
		for _, wl := range sel {
			base, err := experiments.BaselineCached(eng, wl, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			ci, err := experiments.MeasureOverhead(eng, wl, instrument.CI, base, 1, 1, 5000, true)
			if err != nil {
				b.Fatal(err)
			}
			cyc, err := experiments.MeasureOverhead(eng, wl, instrument.CICycles, base, 1, 1, 5000, true)
			if err != nil {
				b.Fatal(err)
			}
			ciErr := intervalErrors(ci.Intervals, 5000)
			cycErr := intervalErrors(cyc.Intervals, 5000)
			ciMed = append(ciMed, float64(stats.Median(ciErr)))
			cycMedMin = append(cycMedMin, float64(stats.Summarize(cycErr).Min))
		}
		b.ReportMetric(stats.MedianF(ciMed), "CI-median-err-cy")
		b.ReportMetric(stats.MedianF(cycMedMin), "CICycles-min-err-cy")
	}
}

func intervalErrors(ivs []int64, target int64) []int64 {
	if len(ivs) == 0 {
		return []int64{0}
	}
	out := make([]int64, len(ivs))
	for i, g := range ivs {
		out[i] = g - target
	}
	return out
}

// BenchmarkFigure12CIvsHW regenerates Figure 12: slowdown vs interrupt
// interval for compiler interrupts against hardware interrupts.
func BenchmarkFigure12CIvsHW(b *testing.B) {
	intervals := []int64{500, 2000, 5000, 20000, 100000, 500000}
	for i := 0; i < b.N; i++ {
		pts, cerrs, err := experiments.MeasureFigure12(benchEngine(), 1, intervals, quickWorkloads)
		if err != nil {
			b.Fatal(err)
		}
		if len(cerrs) > 0 {
			b.Fatalf("sweep cells failed: %v", cerrs)
		}
		for _, p := range pts {
			b.ReportMetric(p.CISlowdown, fmt.Sprintf("CI@%d", p.IntervalCycles))
			b.ReportMetric(p.HWSlowdown, fmt.Sprintf("HW@%d", p.IntervalCycles))
		}
	}
}

// BenchmarkTable7Runtimes regenerates Table 7: normalized CI and Naive
// runtimes at 1 and 32 threads with the geo-mean row.
func BenchmarkTable7Runtimes(b *testing.B) {
	if testing.Short() {
		b.Skip("table 7 runs all 28 workloads at two thread counts")
	}
	for i := 0; i < b.N; i++ {
		rows, geo, cerrs := experiments.MeasureTable7(benchEngine(), 1)
		if len(cerrs) > 0 {
			b.Fatalf("sweep cells failed: %v", cerrs)
		}
		if len(rows) != 28 {
			b.Fatalf("rows = %d", len(rows))
		}
		b.ReportMetric(geo.CI1, "geomean-CI-1T")
		b.ReportMetric(geo.N1, "geomean-Naive-1T")
		b.ReportMetric(geo.CI32, "geomean-CI-32T")
		b.ReportMetric(geo.N32, "geomean-Naive-32T")
	}
}

// BenchmarkAblationLoopTransform quantifies the §3.4/§3.5 rewrites:
// CI overhead with and without the loop transform and cloning, on the
// loop-dominated workloads where they matter most (a design-choice
// ablation from DESIGN.md).
func BenchmarkAblationLoopTransform(b *testing.B) {
	loopHeavy := []string{"radix", "histogram", "matrix_multiply",
		"linear_regression", "swaptions", "string_match"}
	baseOpts := []core.Option{core.WithDesign(instrument.CI), core.WithProbeInterval(250)}
	cfgs := []struct {
		name string
		opts []core.Option
	}{
		{"full", baseOpts},
		{"no-clone", append(append([]core.Option{}, baseOpts...), core.WithLoopClone(false))},
		{"no-transform", append(append([]core.Option{}, baseOpts...), core.WithLoopTransform(false))},
	}
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		for _, c := range cfgs {
			var overheads []float64
			for _, name := range loopHeavy {
				wl := workloads.ByName(name)
				base, err := experiments.BaselineCached(eng, wl, 1, 1)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := experiments.CompileCached(eng, wl, 1, c.opts...)
				if err != nil {
					b.Fatal(err)
				}
				machine := vm.New(prog.Mod, nil, 1)
				machine.LimitInstrs = 400_000_000
				th := machine.NewThread(0)
				th.RT.IRPerCycle = base.IRPerCycle
				th.RT.RegisterCI(5000, func(uint64) { th.Charge(experiments.HandlerWorkCycles) })
				if _, err := th.Run("main", 0); err != nil {
					b.Fatal(err)
				}
				overheads = append(overheads, float64(th.Stats.Cycles)/float64(base.Cycles)-1)
			}
			b.ReportMetric(stats.MedianF(overheads)*100, c.name+"-median-%")
		}
	}
}

// BenchmarkAblationProbeInterval sweeps the compile-time probe
// interval (the paper's key configuration parameter, §2.1).
func BenchmarkAblationProbeInterval(b *testing.B) {
	wl := workloads.ByName("barnes")
	for i := 0; i < b.N; i++ {
		eng := benchEngine()
		base, err := experiments.BaselineCached(eng, wl, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, pi := range []int64{50, 250, 1000, 4000} {
			prog, err := experiments.CompileCached(eng, wl, 1, core.WithDesign(instrument.CI), core.WithProbeInterval(pi))
			if err != nil {
				b.Fatal(err)
			}
			machine := vm.New(prog.Mod, nil, 1)
			machine.LimitInstrs = 400_000_000
			th := machine.NewThread(0)
			th.RT.IRPerCycle = base.IRPerCycle
			th.RT.RegisterCI(5000, func(uint64) { th.Charge(experiments.HandlerWorkCycles) })
			if _, err := th.Run("main", 0); err != nil {
				b.Fatal(err)
			}
			over := float64(th.Stats.Cycles)/float64(base.Cycles) - 1
			b.ReportMetric(over*100, fmt.Sprintf("probeIR=%d-%%", pi))
		}
	}
}

func selectedWorkloads(b *testing.B) []*workloads.Workload {
	if testing.Short() {
		out := make([]*workloads.Workload, 0, len(quickWorkloads))
		for _, n := range quickWorkloads {
			out = append(out, workloads.ByName(n))
		}
		return out
	}
	out := make([]*workloads.Workload, len(workloads.All))
	for i := range workloads.All {
		out[i] = &workloads.All[i]
	}
	return out
}

// logRows renders a figure's full rows into the -v log without
// affecting the benchmark's own timing loop.
func logRows(b *testing.B, print func(io.Writer) error) {
	b.Helper()
	if !testing.Verbose() {
		return
	}
	b.StopTimer()
	defer b.StartTimer()
	var sb logWriter
	if err := print(&sb); err != nil {
		b.Fatal(err)
	}
	b.Log("\n" + string(sb))
}

type logWriter []byte

func (w *logWriter) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

// BenchmarkExtensionHybridWatchdog evaluates the paper's future-work
// hybrid: CI probes plus a timer-interrupt watchdog that bounds the
// late tail during uninstrumented gaps.
func BenchmarkExtensionHybridWatchdog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, cerrs := experiments.MeasureHybrid(benchEngine(), []string{"syscall-gaps"}, 5000, 2.0, 1)
		if len(cerrs) > 0 {
			b.Fatalf("sweep cells failed: %v", cerrs)
		}
		b.ReportMetric(float64(rows[0].CIMax), "CI-max-late-cy")
		b.ReportMetric(float64(rows[0].HybridMax), "hybrid-max-late-cy")
		b.ReportMetric(rows[0].HybridOverhead*100, "hybrid-overhead-%")
	}
}

// BenchmarkProbePrimitives measures the host-side cost of the runtime's
// probe fast paths (the operations Table 3 performs).
func BenchmarkProbePrimitives(b *testing.B) {
	b.Run("ProbeIR-untaken", func(b *testing.B) {
		rt := ciruntime.New()
		rt.RegisterCI(1<<40, func(uint64) {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ProbeIR(1, int64(i))
		}
	})
	b.Run("ProbeIR-taken", func(b *testing.B) {
		rt := ciruntime.New()
		rt.RegisterCI(1, func(uint64) {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ProbeIR(1000, int64(i))
		}
	})
	b.Run("ProbeCycles-gated", func(b *testing.B) {
		rt := ciruntime.New()
		rt.RegisterCI(1<<40, func(uint64) {})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rt.ProbeCycles(1, int64(i))
		}
	})
}

// BenchmarkExtensionProbeCounts regenerates the §5.4 probe-execution
// comparison (CI must cut dynamic probes >50% vs Naive).
func BenchmarkExtensionProbeCounts(b *testing.B) {
	if testing.Short() {
		b.Skip("runs all 28 workloads twice")
	}
	for i := 0; i < b.N; i++ {
		rows, cerrs := experiments.MeasureProbeCounts(benchEngine(), 1, 5000)
		if len(cerrs) > 0 {
			b.Fatalf("sweep cells failed: %v", cerrs)
		}
		var sum float64
		for _, r := range rows {
			sum += r.Reduction
		}
		b.ReportMetric(sum/float64(len(rows))*100, "mean-probe-reduction-%")
	}
}
