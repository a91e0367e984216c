package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/sanitize"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// testEngine runs cells on several workers even on small machines so
// the parallel paths are exercised under -race.
func testEngine() *engine.Engine { return engine.New(4) }

func TestMeasureBaseline(t *testing.T) {
	wl, eng := workloads.ByName("histogram"), testEngine()
	base, err := baselineCached(eng, wl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cycles <= 0 {
		t.Fatalf("baseline = %+v", base)
	}
	if base.IRPerCycle <= 0.1 || base.IRPerCycle > 2 {
		t.Errorf("IR/cycle = %v, implausible", base.IRPerCycle)
	}
	base32, err := baselineCached(eng, wl, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	if base32.Cycles <= base.Cycles {
		t.Error("32-thread contention should slow the baseline")
	}
}

// The headline ordering of Figures 9/11: CI ≈ CI-Cycles < CnB < CD ≈
// Naive, and everything shrinks with 32 threads.
func TestOverheadOrdering(t *testing.T) {
	names := []string{"radix", "volrend", "kmeans", "fluidanimate", "streamcluster", "word_count"}
	designs := []instrument.Design{instrument.CI, instrument.CnB, instrument.Naive}
	eng := testEngine()
	med := func(threads int) map[instrument.Design]float64 {
		per := make(map[instrument.Design][]float64)
		for _, n := range names {
			wl := workloads.ByName(n)
			base, err := baselineCached(eng, wl, 1, threads)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range designs {
				row, err := measureOverhead(eng, wl, d, base, 1, threads, 5000, false)
				if err != nil {
					t.Fatal(err)
				}
				if row.Overhead < 0 {
					t.Errorf("%s/%v: negative overhead %v", n, d, row.Overhead)
				}
				per[d] = append(per[d], row.Overhead)
			}
		}
		out := make(map[instrument.Design]float64)
		for d, xs := range per {
			out[d] = stats.MedianF(xs)
		}
		return out
	}
	m1 := med(1)
	if !(m1[instrument.CI] < m1[instrument.CnB] && m1[instrument.CnB] < m1[instrument.Naive]) {
		t.Errorf("1-thread ordering violated: CI=%.3f CnB=%.3f Naive=%.3f",
			m1[instrument.CI], m1[instrument.CnB], m1[instrument.Naive])
	}
	m32 := med(32)
	for _, d := range designs {
		if m32[d] >= m1[d] {
			t.Errorf("%v: overhead should shrink at 32 threads (%.3f -> %.3f)", d, m1[d], m32[d])
		}
	}
}

// The §3.4/§3.5 ablations on the loop-dominated workloads, measured
// as the median CI overhead at the 5000-cycle target: without the loop
// transform it is 24.04% against 4.124%, cloning never hurts and helps
// on swaptions and string_match, and on barnes (34.55/31.40/30.91/
// 30.71% at 50/250/1000/4000 IR) a longer probe interval never costs
// more.
func TestAblations(t *testing.T) {
	eng := testEngine()
	overhead := func(name string, opts ...core.Option) float64 {
		t.Helper()
		wl := workloads.ByName(name)
		base, err := baselineCached(eng, wl, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compileCached(eng, wl, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.RunThread(prog.Code(), measuredRun(1, base.IRPerCycle, 5000), "main", 0)
		if err != nil {
			t.Fatal(err)
		}
		return float64(r.Stats.Cycles)/float64(base.Cycles) - 1
	}
	ci := func(opts ...core.Option) []core.Option {
		return append([]core.Option{core.WithDesign(instrument.CI), core.WithProbeInterval(probeIntervalIR)}, opts...)
	}
	clonePays := map[string]bool{"swaptions": true, "string_match": true}
	var full, noTransform []float64
	for _, name := range []string{"radix", "histogram", "matrix_multiply", "linear_regression", "swaptions", "string_match"} {
		f, nc, nt := overhead(name, ci()...), overhead(name, ci(core.WithLoopClone(false))...),
			overhead(name, ci(core.WithLoopTransform(false))...)
		full, noTransform = append(full, f), append(noTransform, nt)
		if nc < f || clonePays[name] != (nc > f) {
			t.Errorf("%s: no-clone overhead %.4f vs full %.4f (cloning should help exactly on %v)", name, nc, f, clonePays)
		}
	}
	if f, nt := stats.MedianF(full), stats.MedianF(noTransform); nt < 4*f {
		t.Errorf("median overhead without the loop transform %.4f, want at least 4x full %.4f", nt, f)
	}
	prev := overhead("barnes", core.WithDesign(instrument.CI), core.WithProbeInterval(50))
	for _, pi := range []int64{250, 1000, 4000} {
		o := overhead("barnes", core.WithDesign(instrument.CI), core.WithProbeInterval(pi))
		if o > prev {
			t.Errorf("barnes: overhead rose to %.4f at probe interval %d (was %.4f)", o, pi, prev)
		}
		prev = o
	}
}

// Figure 12's shape: hardware interrupts collapse at short intervals
// (≈10x at 5k cycles), CI stays nearly flat, and hardware wins only at
// very long intervals.
func TestFigure12Shape(t *testing.T) {
	pts, cerrs, err := measureFigure12(testEngine(), 1, []int64{2000, 5000, 500000},
		[]string{"radix", "histogram", "volrend", "barnes"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cerrs) > 0 {
		t.Fatalf("cell errors: %v", cerrs)
	}
	byInterval := map[int64]sweepPoint{}
	for _, p := range pts {
		byInterval[p.IntervalCycles] = p
	}
	if hw := byInterval[5000].HWSlowdown; hw < 5 || hw > 15 {
		t.Errorf("HW slowdown at 5k = %.1fx, want ~9x", hw)
	}
	if ci := byInterval[2000].CISlowdown; ci > 1.6 {
		t.Errorf("CI slowdown at 2k = %.2fx, want small", ci)
	}
	if byInterval[2000].HWSlowdown < 10*byInterval[2000].CISlowdown {
		t.Error("CI should be ~10-100x cheaper than HW at 2k cycles")
	}
	p5 := byInterval[500000]
	if p5.HWSlowdown > p5.CISlowdown {
		t.Errorf("HW should win at 500k cycles: HW %.2fx vs CI %.2fx",
			p5.HWSlowdown, p5.CISlowdown)
	}
}

// Accuracy calibration drives each design's median error toward zero.
func TestAccuracyCalibration(t *testing.T) {
	eng := testEngine()
	wl := workloads.ByName("ocean-cp")
	base, err := baselineCached(eng, wl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []instrument.Design{instrument.CI, instrument.Naive, instrument.CnB} {
		row, err := measureOverhead(eng, wl, d, base, 1, 1, 5000, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(row.Intervals) < 50 {
			t.Fatalf("%v: only %d intervals", d, len(row.Intervals))
		}
		med := stats.Median(row.Intervals)
		if med < 3500 || med > 6500 {
			t.Errorf("%v: calibrated median interval %d, want ~5000", d, med)
		}
	}
}

func TestCICyclesNeverEarly(t *testing.T) {
	eng := testEngine()
	wl := workloads.ByName("swaptions")
	base, err := baselineCached(eng, wl, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	row, err := measureOverhead(eng, wl, instrument.CICycles, base, 1, 1, 5000, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range row.Intervals {
		if g < 5000 {
			t.Fatalf("CI-Cycles fired early: %d < 5000", g)
		}
	}
}

func TestTable7Full(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 28 workloads at 2 thread counts")
	}
	rows, cerrs := measureTable7(testEngine(), 1)
	if len(cerrs) > 0 {
		t.Fatalf("cell errors: %v", cerrs)
	}
	if len(rows) != 29 {
		t.Fatalf("rows = %d, want 28 and the geo-mean", len(rows))
	}
	rows, geo := rows[:28], rows[28]
	for _, r := range rows {
		if r.PTms1 <= 0 || r.CI1 < 1 || r.N1 < r.CI1*0.95 {
			t.Errorf("%s: PT=%.2f CI=%.2f N=%.2f", r.Workload, r.PTms1, r.CI1, r.N1)
		}
	}
	if geo.CI1 <= 1 || geo.N1 <= geo.CI1 {
		t.Errorf("geo-means: CI %.3f, Naive %.3f", geo.CI1, geo.N1)
	}
	if geo.CI32 >= geo.CI1 || geo.N32 >= geo.N1 {
		t.Errorf("32-thread geo-means should shrink: CI %.3f->%.3f N %.3f->%.3f",
			geo.CI1, geo.CI32, geo.N1, geo.N32)
	}
}

// The hybrid watchdog (§5.4 future work) must bound late interrupts on
// gap-heavy programs and stay inert on gap-free ones.
func TestHybridWatchdog(t *testing.T) {
	rows, cerrs := measureHybrid(testEngine(), []string{"syscall-gaps", "word_count"}, 5000, 2.0, 1)
	if len(cerrs) > 0 {
		t.Fatalf("cell errors: %v", cerrs)
	}
	gaps := rows[0]
	if gaps.WatchdogFires == 0 {
		t.Fatal("watchdog never fired on syscall-gaps")
	}
	if gaps.HybridMax >= gaps.CIMax/2 {
		t.Errorf("hybrid max late error %d should be far below CI-only %d",
			gaps.HybridMax, gaps.CIMax)
	}
	// Bounded at roughly deadline (2x target) + trap cost.
	if gaps.HybridMax > 20000 {
		t.Errorf("hybrid max late error %d exceeds the watchdog bound", gaps.HybridMax)
	}
	wc := rows[1]
	if wc.WatchdogFires != 0 {
		t.Errorf("watchdog fired %d times on a gap-free workload", wc.WatchdogFires)
	}
	if wc.HybridOverhead > wc.CIOverhead*1.02+0.005 {
		t.Errorf("hybrid overhead %v should match CI %v when the watchdog is idle",
			wc.HybridOverhead, wc.CIOverhead)
	}
}

// §3.3: the allowable-error parameter's impact is negligible beyond
// ~500 IR, and larger settings can only remove probes.
func TestAllowableErrorStudy(t *testing.T) {
	pts, cerrs := measureAllowableError(testEngine(), []int64{50, 500, 2000}, 1)
	if len(cerrs) > 0 {
		t.Fatalf("cell errors: %v", cerrs)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	p500, p2000 := pts[1], pts[2]
	if d := p2000.MedianOverhead - p500.MedianOverhead; d > 0.01 || d < -0.01 {
		t.Errorf("overhead changes past 500 IR: %.3f vs %.3f", p500.MedianOverhead, p2000.MedianOverhead)
	}
	diff := p2000.MedianAbsError - p500.MedianAbsError
	if diff < 0 {
		diff = -diff
	}
	if diff > 250 {
		t.Errorf("accuracy changes past 500 IR: %d vs %d cycles", p500.MedianAbsError, p2000.MedianAbsError)
	}
	if pts[0].Probes < pts[1].Probes {
		t.Errorf("larger allowable error should not add probes: %d -> %d", pts[0].Probes, pts[1].Probes)
	}
}

// §5.4: CI reduces dynamic probe executions by more than 50% versus
// Naive in the vast majority of workloads.
func TestProbeExecutionReduction(t *testing.T) {
	rows, cerrs := measureProbeCounts(testEngine(), 1, 5000)
	if len(cerrs) > 0 {
		t.Fatalf("cell errors: %v", cerrs)
	}
	over50 := 0
	for _, r := range rows {
		if r.CIProbes >= r.NaiveProbes {
			t.Errorf("%s: CI executes more probes than Naive (%d vs %d)",
				r.Workload, r.CIProbes, r.NaiveProbes)
		}
		if r.Reduction > 0.5 {
			over50++
		}
		if r.TakenRate <= 0 || r.TakenRate > 0.6 {
			t.Errorf("%s: CI taken rate %.2f implausible", r.Workload, r.TakenRate)
		}
	}
	if over50 < len(rows)*2/3 {
		t.Errorf("only %d/%d workloads above 50%% probe reduction", over50, len(rows))
	}
}

// The chaos sweep's invariants — determinism, conservation, bounded
// degradation, progress — must hold at every standard rate, and the
// figure must pass its gate.
func TestChaosInvariantsHold(t *testing.T) {
	rows := runChaos(testEngine(), 1, chaosRates)
	if want := 3 * len(chaosRates); len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	sawRecovery := false
	for _, r := range rows {
		if v := r.violations(); len(v) > 0 {
			t.Errorf("%s @ %g: %v", r.Subsystem, r.Rate, v)
		}
		if r.Rate == 0 && r.Recovered != 0 {
			t.Errorf("%s @ 0: recovery activity without faults (%d)", r.Subsystem, r.Recovered)
		}
		if r.Rate == 0.01 && r.Recovered > 0 {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Error("no subsystem exercised a recovery path at 1% faults")
	}
	var buf bytes.Buffer
	in := Inputs{Eng: testEngine(), Flags: &cliflags.Flags{Seed: 1}, Quick: true}
	if err := figureNamed(t, "chaos").Run(&buf, in); err != nil {
		t.Fatalf("chaos: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("all invariants hold")) {
		t.Errorf("unexpected chaos output:\n%s", buf.String())
	}
}

// The -metrics acceptance path: running the Figure 10 accuracy sweep
// with an obs-attached engine must populate a per-design interval-error
// histogram for every plotted probe design, and the metrics report must
// surface their quantiles.
func TestFigure10PopulatesIntervalErrorMetrics(t *testing.T) {
	eng := testEngine()
	scope := obs.New(0)
	eng.AttachObs(scope)
	var out bytes.Buffer
	if err := PrintFigure10(&out, eng, 1); err != nil {
		t.Fatal(err)
	}
	designs := []instrument.Design{
		instrument.CI, instrument.CICycles, instrument.CnB,
		instrument.CD, instrument.Naive,
	}
	for _, d := range designs {
		h := scope.Hist("interval_error/" + d.String())
		if h == nil || h.N() == 0 {
			t.Errorf("no interval-error samples for design %s", d)
		}
	}
	var report strings.Builder
	if err := scope.WriteMetrics(&report); err != nil {
		t.Fatal(err)
	}
	rep := report.String()
	for _, want := range []string{"interval_error/CI", "interval_error/Naive", "p50", "p90", "p99"} {
		if !strings.Contains(rep, want) {
			t.Errorf("metrics report lacks %q", want)
		}
	}
}

// figureNamed returns the Figures entry called name.
func figureNamed(t *testing.T, name string) Figure {
	t.Helper()
	for _, fig := range Figures {
		if fig.Name == name {
			return fig
		}
	}
	t.Fatalf("no figure %q", name)
	return Figure{}
}

// A tier-oracle run that hits its step budget is counted inconclusive,
// and the sanitize gate fails it: a check that did not finish is not a
// pass, whichever oracle ran out.
func TestSanitizeTierInconclusiveFailsGate(t *testing.T) {
	terr := sanitize.DiffTiers(workloads.ByName("radix").Build(1),
		sanitize.ExecOptions{Args: []int64{0}, LimitInstrs: 1000})
	if !errors.Is(terr, sanitize.ErrInconclusive) {
		t.Fatalf("tier oracle under a 1000-step budget: %v, want inconclusive", terr)
	}
	r := sanitizeRow{Design: "CI", Programs: 1, Clean: 1}
	if err := r.verdict(1, terr); err != nil {
		t.Fatal(err)
	}
	if r.Inconclusive != 1 {
		t.Errorf("inconclusive = %d, want 1", r.Inconclusive)
	}
	if v := gateSanitize(&sanitizeFigure{Rows: []sanitizeRow{r}}, Inputs{}); len(v) != 1 {
		t.Errorf("gate violations = %v, want one", v)
	}
}
