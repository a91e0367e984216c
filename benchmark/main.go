// Command benchmark is the repository's benchmark: four long-rep
// workloads measured on two clocks (host time and model cycles), and a
// traced run that attributes host time to layers. See README.md.
//
//	go run ./benchmark                      every workload, scored then traced
//	go run ./benchmark -workload vm_interp  one workload, in this process
//	go run ./benchmark -sets 2              noise report over two scored sets
//	go run ./benchmark -selfcheck           check that the benchmark measures
//
// With one -workload the last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupRuns is how many times a scored run sets the workload up;
// setup_s is their median.
const setupRuns = 3

type options struct {
	seed     uint64
	minReps  int
	seconds  float64
	size     size
	traceOut string
}

// result is what one run of one workload reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		o         options
		names     = flag.String("workload", "", "comma-separated workloads to run (default: all, each in a fresh child process)")
		trace     = flag.Int("trace", -1, "0: scored run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		sizeName  = flag.String("size", "full", "input size: mini, full or double")
		sets      = flag.Int("sets", 1, "run this many scored sets and report how far they differ")
		selfcheck = flag.Bool("selfcheck", false, "check dose-response, layer attribution and that timed regions use no engine cache")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.IntVar(&o.minReps, "reps", 7, "least number of timed reps")
	flag.Float64Var(&o.seconds, "seconds", 16, "keep running timed reps until this much time is measured")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as Chrome trace_event JSON")
	flag.Parse()

	var err error
	if o.size, err = parseSize(*sizeName); err != nil {
		fatal(err)
	}
	var sel []*workload
	for _, n := range strings.Split(*names, ",") {
		if n == "" {
			continue
		}
		w := workloadByName(n)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", n))
		}
		sel = append(sel, w)
	}

	switch {
	case *selfcheck:
		err = runSelfcheck(o)
	case *sets > 1:
		err = runSets(o, *sets)
	case len(sel) == 1 && *trace >= 0:
		err = runOne(sel[0], o, *trace == 1)
	default:
		if len(sel) == 0 {
			for i := range allWorkloads {
				sel = append(sel, &allWorkloads[i])
			}
		}
		err = runAll(sel, o, *trace)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// runOne runs one workload in this process and prints its result line.
//
// It runs on one P. Load is one goroutine either way, but on this
// 2-vCPU shared host a second P lets the collector's background workers
// run beside the timed goroutine, and identical reps then differ by
// 10% and more (see README.md, "Noise"); on one P the collector's work
// is part of the rep's wall time and identical runs agree within 2%.
func runOne(w *workload, o options, traced bool) error {
	runtime.GOMAXPROCS(1)
	run := scored
	if traced {
		run = tracedRun
	}
	res, err := run(w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// cpuSeconds is the process's user plus system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// repCost is what one timed rep cost the host.
type repCost struct {
	wall, cpu     float64
	mallocs, heap uint64
	// host is how much slower than nominal the host ran during the
	// rep (see hostprobe.go).
	host float64
}

// timeRep runs one rep and measures it. The memory statistics are read
// outside the timed region.
func timeRep(in instance, tr *tracer) (any, repCost) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, t0 := cpuSeconds(), time.Now()
	out := in.rep(tr)
	c := repCost{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&m1)
	c.mallocs, c.heap = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return out, c
}

// account counts operations: every rep attempts ops operations; the
// last rep's were checked one by one and lastFailed of them failed; an
// earlier rep whose summary differs from the verified last rep's fails
// whole.
func account(stats []repStat, ops, lastFailed int) (attempted, failed int) {
	last := stats[len(stats)-1]
	failed = lastFailed
	for _, st := range stats[:len(stats)-1] {
		if st != last {
			failed += ops
		}
	}
	return ops * len(stats), failed
}

// scored is the untraced run: set up setupRuns times, then timed reps
// on one goroutine, then verification.
func scored(w *workload, o options) (*result, error) {
	var in instance
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		in = nil
		runtime.GC()
		probe, t0 := hostProbe(), time.Now()
		var err error
		if in, err = w.setup(o.seed, o.size); err != nil {
			return nil, err
		}
		in.rep(nil) // warm-up
		d := time.Since(t0).Seconds()
		setups = append(setups, d/hostFactor(probe, hostProbe()))
	}
	fmt.Printf("%s: seed %d, size %s, input digest %016x, %d operations per rep; set-up x%d: %s s\n",
		w.name, o.seed, o.size, in.digest(), in.ops(), setupRuns, fmtList(setups))

	runtime.GC()
	var (
		out   any
		stats []repStat
		costs []repCost
	)
	probe := hostProbe()
	for begin := time.Now(); len(stats) < o.minReps || time.Since(begin).Seconds() < o.seconds; {
		out = nil
		var c repCost
		out, c = timeRep(in, nil)
		next := hostProbe()
		c.host, probe = hostFactor(probe, next), next
		costs = append(costs, c)
		stats = append(stats, in.stat(out))
	}
	if enginesBuilt != 0 {
		return nil, fmt.Errorf("%d engine caches were constructed before the timed reps ended", enginesBuilt)
	}

	failures, model := in.verify(out)
	for i, f := range failures {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(failures)-i)
			break
		}
		fmt.Println("  FAILED", f)
	}
	attempted, failed := account(stats, in.ops(), len(failures))

	col := func(f func(repCost) float64) []float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		return xs
	}
	// Host times are divided by the host factor measured around them,
	// and the lower quartile of the reps is reported.
	walls := col(func(c repCost) float64 { return c.wall / c.host })
	wall := quantile(walls, quietQuantile)
	units := stats[len(stats)-1].units
	kunits := float64(units) / 1e3
	vals := map[string]float64{
		"setup_s":               median(setups),
		"wall_s":                wall,
		"units_per_s":           float64(units) / wall,
		"cpu_s":                 quantile(col(func(c repCost) float64 { return c.cpu / c.host }), quietQuantile),
		"allocs_per_kunit":      median(col(func(c repCost) float64 { return float64(c.mallocs) })) / kunits,
		"alloc_kb_per_kunit":    median(col(func(c repCost) float64 { return float64(c.heap) / 1e3 })) / kunits,
		"model_cycles_per_unit": model.cyclesPerUnit,
		"model_tail_cycles":     model.tailCycles,
	}
	raw := col(func(c repCost) float64 { return c.wall })
	fmt.Printf("  n=%d reps of %d units (%s); wall per rep as measured: %s s (median %.3f)\n", len(raw), units, w.unit, fmtList(raw), median(raw))
	hosts := col(func(c repCost) float64 { return c.host })
	fmt.Printf("  host factor per rep: %s (median %.3f)\n", fmtList(hosts), median(hosts))
	fmt.Printf("  operations: %d attempted, %d failed (fail_frac %g)\n", attempted, failed, float64(failed)/float64(attempted))
	return newResult(endToEnd, vals, attempted, failed)
}

// newResult packs vals, which must hold exactly the metrics of defs,
// and prints them.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int) (*result, error) {
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Printf("  %-42s %16.6g %s\n", d.Name, v, d.Unit)
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(vals), len(defs))
	}
	return res, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// ---- parent modes: every workload in a fresh child process ----

// child runs one workload in a fresh process, so that heap and GC
// pacing never carry over from one workload to the next, echoes what
// it prints and returns its result line.
func child(w *workload, o options, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"-workload", w.name, "-trace", t, "-seed", fmt.Sprint(o.seed), "-reps", fmt.Sprint(o.minReps),
		"-seconds", fmt.Sprint(o.seconds), "-size", o.size.String()}
	if traced && o.traceOut != "" {
		args = append(args, "-trace-out", strings.TrimSuffix(o.traceOut, ".json")+"-"+w.name+".json")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(stdout), "\n"), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		os.Stdout.Write(stdout)
		return nil, errors.Join(fmt.Errorf("%s: no result line", w.name), runErr)
	}
	fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	return &res, nil
}

// runAll runs the scored set, the traced set, or both, and fails if
// any operation did.
func runAll(sel []*workload, o options, trace int) error {
	var bad []string
	for _, traced := range []bool{false, true} {
		if trace >= 0 && traced != (trace == 1) {
			continue
		}
		for _, w := range sel {
			res, err := child(w, o, traced)
			if err != nil {
				return err
			}
			if !res.Correct {
				bad = append(bad, fmt.Sprintf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted))
			}
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// runSets is the noise report: n scored sets back to back, and for
// every workload and end-to-end metric how far the sets differ, beside
// the metric's bound.
func runSets(o options, n int) error {
	vals := map[string][]float64{} // workload/metric -> one value per set
	for s := 0; s < n; s++ {
		fmt.Printf("== set %d of %d ==\n", s+1, n)
		for i := range allWorkloads {
			w := &allWorkloads[i]
			res, err := child(w, o, false)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				vals[w.name+"/"+name] = append(vals[w.name+"/"+name], m.Value)
			}
		}
	}
	fmt.Printf("== noise report: largest difference between %d sets of the same code, seed %d ==\n", n, o.seed)
	fmt.Printf("%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "min", "max", "diff", "bound")
	over := 0
	for _, w := range allWorkloads {
		for _, d := range endToEnd {
			xs := vals[w.name+"/"+d.Name]
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			diff := 0.0
			if hi != lo {
				diff = (hi - lo) / lo
			}
			mark := ""
			if diff > d.Bound {
				mark = "  OVER"
				over++
			}
			fmt.Printf("%-16s %-24s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", w.name, d.Name, lo, hi, 100*diff, 100*d.Bound, mark)
		}
	}
	if over > 0 {
		return fmt.Errorf("%d metrics differ between sets by more than their bound", over)
	}
	return nil
}

// runSelfcheck checks that the benchmark measures what it says:
// doubling the input doubles the time and leaves the rate alone, each
// workload's time is spent in the layer group it is meant to stress,
// and (asserted inside every scored run) no engine cache exists while
// reps are timed.
func runSelfcheck(o options) error {
	var bad []string
	check := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict = "FAIL"
			bad = append(bad, fmt.Sprintf(format, args...))
		}
		fmt.Printf("%s %s\n", verdict, fmt.Sprintf(format, args...))
	}
	rate := endToEnd[2]
	for i := range allWorkloads {
		w := &allWorkloads[i]
		o1, o2 := o, o
		o1.size, o2.size = full, double
		r1, err := child(w, o1, false)
		if err != nil {
			return err
		}
		r2, err := child(w, o2, false)
		if err != nil {
			return err
		}
		ratio := r2.Metrics["wall_s"].Value / r1.Metrics["wall_s"].Value
		check(ratio >= 1.7 && ratio <= 2.3, "%s: wall_s at 2x input is %.2fx (want 1.7-2.3x)", w.name, ratio)
		drift := worse(rate, r1.Metrics[rate.Name].Value, r2.Metrics[rate.Name].Value)
		check(drift <= rate.Bound && -drift <= rate.Bound, "%s: units_per_s at 2x input differs by %+.1f%% (bound %.0f%%)", w.name, -100*drift, 100*rate.Bound)
		check(r1.Correct && r2.Correct, "%s: every operation verified, no engine cache before the reps ended", w.name)

		tr, err := child(w, o1, true)
		if err != nil {
			return err
		}
		for _, g := range []string{"compiler", "vm", "fleet"} {
			share := tr.Metrics["share."+g].Value
			if g == w.group {
				check(share >= 0.70, "%s: share.%s is %.3f (want >= 0.70)", w.name, g, share)
			} else {
				check(share <= 0.05, "%s: share.%s is %.3f (want <= 0.05)", w.name, g, share)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("self-check failed: %s", strings.Join(bad, "; "))
	}
	fmt.Println("self-check passed")
	return nil
}
