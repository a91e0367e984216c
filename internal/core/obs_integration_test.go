package core

import (
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/obs"
)

// End-to-end observability wiring: compiling and running with an
// enabled scope must record compile-stage instants, a per-thread run
// span, probe-site attribution and the interval-error histograms the
// -metrics report is built from.
func TestCompileRunWithObsScope(t *testing.T) {
	scope := obs.New(0)
	prog, err := Compile(ir.MustParse(loopSrc),
		WithDesign(instrument.CI), WithProbeInterval(200), WithObs(scope))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run("main",
		WithArgv(500000), WithInterval(5000), WithLimit(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].HandlerCalls == 0 {
		t.Fatal("handler never fired; nothing to observe")
	}

	var stages, runSpans, probeFires int
	for _, ev := range scope.Events() {
		switch {
		case ev.Cat == "compile":
			stages++
		case ev.Cat == "core" && ev.Name == "run/main":
			runSpans++
		case ev.Cat == "vm" && ev.Name == "probe-fire":
			probeFires++
		}
	}
	if stages == 0 {
		t.Error("no compile-stage events")
	}
	if runSpans != 1 {
		t.Errorf("run spans = %d, want 1", runSpans)
	}
	if probeFires == 0 {
		t.Error("no probe-fire spans")
	}

	gap := scope.Hist("run/handler_gap_cycles")
	errH := scope.Hist("run/interval_error_cycles")
	if gap == nil || errH == nil {
		t.Fatal("interval histograms missing")
	}
	// The error histogram is the gap data re-based to the 5000-cycle
	// target (bucketing makes the two quantiles agree only within the
	// histogram's ~3% relative resolution).
	gp, ep := gap.Quantile(50), errH.Quantile(50)
	if diff := gp - 5000 - ep; diff > gp/16 || diff < -gp/16 {
		t.Errorf("interval-error p50 = %d, gap p50 = %d; want error = gap - 5000", ep, gp)
	}
	if int64(gap.N()) != res.Stats[0].HandlerCalls-1 {
		t.Errorf("gap samples = %d, handler calls = %d (first fire must be skipped)",
			gap.N(), res.Stats[0].HandlerCalls)
	}

	if sites := scope.HotSites(0); len(sites) == 0 {
		t.Error("no probe sites attributed")
	}
}

// A program compiled with a scope but run without one must fall back
// to the compile-time scope (Program.obs), and a nil scope must leave
// the run unobserved without failing.
func TestRunScopeFallback(t *testing.T) {
	scope := obs.New(0)
	prog, err := Compile(ir.MustParse(loopSrc),
		WithDesign(instrument.CI), WithProbeInterval(200), WithObs(scope))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run("main", WithArgv(100000), WithInterval(5000), WithLimit(10_000_000)); err != nil {
		t.Fatal(err)
	}
	if len(scope.Events()) == 0 {
		t.Error("run did not fall back to the compile-time scope")
	}

	plain, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.CI), WithProbeInterval(200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run("main", WithArgv(100000), WithInterval(5000), WithLimit(10_000_000)); err != nil {
		t.Fatal(err)
	}
}

// ConfigOf resolves options into the Config an engine cache key is
// built from; later options must override earlier ones.
func TestConfigOfResolution(t *testing.T) {
	cfg := ConfigOf(
		WithDesign(instrument.CI),
		WithProbeInterval(100),
		WithProbeInterval(250),
		WithAllowableError(80))
	if cfg.Design != instrument.CI || cfg.ProbeIntervalIR != 250 || cfg.AllowableErrorIR != 80 {
		t.Errorf("resolved config = %+v", cfg)
	}
	if got := ConfigOf(); got.Design != 0 || got.ProbeIntervalIR != 0 || got.ImportedCosts != nil {
		t.Errorf("ConfigOf() = %+v, want zero", got)
	}
}
