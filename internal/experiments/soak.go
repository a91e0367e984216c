package experiments

import (
	"fmt"

	"repro/internal/ci/ciruntime"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/mtcp"
	"repro/internal/overload"
	"repro/internal/shenango"
)

// This file is the soak experiment: a scripted load ramp — underload,
// saturation, 2x overload, recovery — with chaos fault plans composed
// into the overloaded phases, run with the admission plane on and
// judged against the SLO guard in every phase. It answers the question
// the one-shot ramp cannot: does the overload plane hold its bounds
// while conditions *change* (brownout must engage and release, the
// breaker must not latch, recovery phases must see the tail come back
// down), and does it stay deterministic with faults in the loop?

// soakPhase is one scripted phase of the soak: an offered-load multiple
// of rampSaturatingLoad with a uniform fault rate composed in.
type soakPhase struct {
	Mult      float64
	FaultRate float64
}

// soakPhases is the standard script: ramp up into 2x overload under
// faults, then back down to verify recovery. soakQuickPhases is the
// -quick subset: saturation and overload only.
var (
	soakPhases      = []soakPhase{{0.5, 0}, {1.0, 0.001}, {2.0, 0.01}, {1.2, 0.001}, {0.8, 0}}
	soakQuickPhases = []soakPhase{{1.0, 0.001}, {2.0, 0.01}}
)

// soakFigure is the script run, one row per phase, and the companion
// mtcp run: the CI server saturated by compute-heavy closed-loop clients
// under 1% loss with the plane on, which must shed via NACKs.
type soakFigure struct {
	Phases   []soakPhase
	Rows     []soakRow
	MTCP     appRun
	MTCPShed bool
}

// soakRow is one phase's outcome; Reproduced reports whether a re-run
// under the same composed fault plan matched it bit for bit.
type soakRow struct {
	Phase int
	soakPhase
	Res        shenango.Result
	Reproduced bool
}

// measureSoakFigure runs the scripted soak (-quick: saturation and
// overload only) and its mtcp companion over twice the phase length.
func measureSoakFigure(in Inputs) (*soakFigure, []cellError, error) {
	qp, err := in.Flags.ParseQuantum()
	if err != nil {
		return nil, nil, err
	}
	seed, horizon := in.Flags.Seed, soakHorizon(in)
	f := &soakFigure{Phases: pick(in, soakPhases, soakQuickPhases)}
	rows, errs := runSoak(in.Eng, seed, horizon, f.Phases, qp)
	r, run := mtcpRun(mtcp.Config{
		Mode: mtcp.CI, Conns: 64, WorkCycles: 100_000, Adaptive: true,
		Seed: seed, DurationCycles: 2 * horizon,
		FaultPlan: faults.Uniform(seed, 0.01),
		Overload:  &overload.Config{DeadlineCycles: 2_000_000, TargetDelayCycles: 500_000},
	})
	f.Rows, f.MTCP, f.MTCPShed = rows, run, r.Overload.Rejected > 0 && r.Rejects > 0
	return f, errs, nil
}

// runSoak executes the phases on the engine (one phase = one cell) with
// the admission plane on. RunChecked applies the run's own invariants
// (shenango's conservation oracle plus the overload plane's accounting
// oracle); each phase runs twice so the gate can judge determinism
// under the composed fault plan. A non-nil quantum factory runs every
// phase under that adaptive handler-interval policy.
func runSoak(eng *engine.Engine, seed uint64, phaseDuration int64, phases []soakPhase, quantum func() ciruntime.QuantumPolicy) ([]soakRow, []cellError) {
	label := func(i int) string { return fmt.Sprintf("soak/phase%d/%.1fx", i, phases[i].Mult) }
	return sweep(eng, len(phases), label, func(i int) (soakRow, error) {
		p := phases[i]
		cfg := shenango.Config{
			Kind:           shenango.CIHosted,
			OfferedLoad:    p.Mult * rampSaturatingLoad,
			Seed:           seed + uint64(i),
			DurationCycles: phaseDuration,
			Overload:       rampOverloadConfig(),
			Quantum:        quantum,
		}
		if p.FaultRate > 0 {
			cfg.FaultPlan = faults.Uniform(seed+uint64(i), p.FaultRate)
		}
		res, err := shenango.RunChecked(cfg)
		if err != nil {
			return soakRow{}, err
		}
		res2, _ := shenango.RunChecked(cfg)
		return soakRow{Phase: i, soakPhase: p, Res: res, Reproduced: res2 == res}, nil
	})
}

// violations checks one phase: determinism, the SLO with the phase's
// unavoidable excess, and brownout engaging at 2x load.
func (r soakRow) violations(slo overload.SLO) []string {
	var v []string
	if !r.Reproduced {
		v = append(v, "determinism: re-run differs")
	}
	if err := slo.Check(r.Res.P999Us, r.Res.Overload.RejectFrac(), rampExcess(r.Mult)); err != nil {
		v = append(v, err.Error())
	}
	if r.Mult >= 2 && r.Res.Overload.MaxBrownout < 1 {
		v = append(v, "brownout never engaged at 2x load")
	}
	return v
}

// companion judges the mtcp companion run; a run that failed to
// progress is judged on nothing else.
func (f *soakFigure) companion() []string {
	if f.MTCP.Err != nil {
		return []string{fmt.Sprintf("progress: %v", f.MTCP.Err)}
	}
	v := f.MTCP.violations()
	if !f.MTCPShed {
		v = append(v, "saturated mtcp never shed (no rejects/NACKs)")
	}
	return v
}

// gateSoak is the soak figure's gate: every phase's guards under the
// -slo-p999us/-max-reject SLO, and the mtcp companion's.
func gateSoak(f *soakFigure, in Inputs) []string {
	var v []string
	for _, r := range f.Rows {
		v = append(v, r.violations(in.Flags.SLO())...)
	}
	return append(v, f.companion()...)
}

// soakTable lays the soak out with each phase's guard verdict, then the
// mtcp companion's.
func soakTable(f *soakFigure, in Inputs) *table {
	t := &table{
		title: []string{fmt.Sprintf("Soak (seed %d, %d phases x %.1f ms): chaos + load ramp under the overload plane",
			in.Flags.Seed, len(f.Phases), float64(soakHorizon(in))/2.6e6)},
		cols: []column{{"phase", "%-6s", "%-6d"}, {"load", "%-6s", "%-6.1f"}, {"faults", "%-7s", "%-7.3g"},
			{"goodput", "%10s", "%9.2f%%"}, {"p99.9(µs)", "%10s", "%10.1f"}, {"reject", "%8s", "%7.1f%%"},
			{"brown", "%6s", "%6d"}, {"guards", " %s", ""}},
		sep:      " ",
		notes:    []string{"mtcp saturation companion: " + verdict(f.companion())},
		failures: "guard violation(s)",
		closing:  []string{"all phases within SLO; determinism, conservation and brownout guards hold"},
	}
	for _, r := range f.Rows {
		s := r.Res.Overload
		t.rows = append(t.rows, []any{r.Phase, r.Mult, r.FaultRate, 100 * r.Res.AchievedLoad / rampSaturatingLoad,
			r.Res.P999Us, 100 * s.RejectFrac(), s.MaxBrownout, verdict(r.violations(in.Flags.SLO()))})
	}
	return t
}
