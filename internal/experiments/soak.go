package experiments

import (
	"fmt"
	"io"

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
// faults, then back down to verify recovery.
var soakPhases = []soakPhase{
	{Mult: 0.5, FaultRate: 0},
	{Mult: 1.0, FaultRate: 0.001},
	{Mult: 2.0, FaultRate: 0.01},
	{Mult: 1.2, FaultRate: 0.001},
	{Mult: 0.8, FaultRate: 0},
}

// soakQuickPhases is the -quick subset: saturation and overload only.
var soakQuickPhases = []soakPhase{
	{Mult: 1.0, FaultRate: 0.001},
	{Mult: 2.0, FaultRate: 0.01},
}

// soakRow is one phase's outcome. Violations lists every guard the
// phase broke (empty = pass); it is computed deterministically inside
// the cell so rows shard cleanly across workers.
type soakRow struct {
	Phase int
	soakPhase
	Res        shenango.Result
	Violations []string
}

// runSoak executes the phases on the engine (one phase = one cell) with
// the admission plane on, checking per phase: the run's own invariants
// (shenango's conservation oracle plus the overload plane's accounting
// oracle via RunChecked), determinism under the composed fault plan,
// and the SLO with the phase's unavoidable excess. A non-nil quantum
// factory runs every phase under that adaptive handler-interval policy.
func runSoak(eng *engine.Engine, seed uint64, phaseDuration int64, phases []soakPhase, slo overload.SLO, quantum func() ciruntime.QuantumPolicy) ([]soakRow, []cellError) {
	if len(phases) == 0 {
		phases = soakPhases
	}
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
		row := soakRow{Phase: i, soakPhase: p}
		res, err := shenango.RunChecked(cfg)
		if err != nil {
			return row, err
		}
		row.Res = res
		if res2, _ := shenango.RunChecked(cfg); res2 != res {
			row.Violations = append(row.Violations, "determinism: re-run differs")
		}
		if err := slo.Check(res.P999Us, res.Overload.RejectFrac(), rampExcess(p.Mult)); err != nil {
			row.Violations = append(row.Violations, err.Error())
		}
		if p.Mult >= 2 && res.Overload.MaxBrownout < 1 {
			row.Violations = append(row.Violations, "brownout never engaged at 2x load")
		}
		return row, nil
	})
}

// soakMTCP is the companion mtcp cell: the CI server saturated by
// compute-heavy closed-loop clients under 1% loss with the plane on.
// It must shed via NACKs, conserve every request, and stay
// deterministic.
func soakMTCP(seed uint64, duration int64) []string {
	cfg := mtcp.Config{
		Mode: mtcp.CI, Conns: 64, WorkCycles: 100_000, Adaptive: true,
		Seed: seed, DurationCycles: duration,
		FaultPlan: faults.Uniform(seed, 0.01),
		Overload:  &overload.Config{DeadlineCycles: 2_000_000, TargetDelayCycles: 500_000},
	}
	var v []string
	r, err := mtcp.RunChecked(cfg)
	if err != nil {
		return append(v, fmt.Sprintf("progress: %v", err))
	}
	if r2, _ := mtcp.RunChecked(cfg); r2 != r {
		v = append(v, "determinism: re-run differs")
	}
	if r.Issued != r.CompletedAll+r.Aborted+r.Rejects+r.Outstanding {
		v = append(v, fmt.Sprintf("conservation: issued=%d completedAll=%d aborted=%d rejects=%d outstanding=%d",
			r.Issued, r.CompletedAll, r.Aborted, r.Rejects, r.Outstanding))
	}
	if r.Overload.Rejected == 0 || r.Rejects == 0 {
		v = append(v, "saturated mtcp never shed (no rejects/NACKs)")
	}
	return v
}

// printSoak runs the scripted soak and renders the per-phase table,
// then the mtcp companion verdict. Any violated guard in any phase
// returns an error, so `ciexp soak` exits non-zero.
func printSoak(w io.Writer, eng *engine.Engine, seed uint64, phaseDuration int64, slo overload.SLO, quick bool, quantum func() ciruntime.QuantumPolicy) error {
	phases := soakPhases
	if quick {
		phases = soakQuickPhases
	}
	fmt.Fprintf(w, "Soak (seed %d, %d phases x %.1f ms): chaos + load ramp under the overload plane\n",
		seed, len(phases), float64(phaseDuration)/2.6e6)
	fmt.Fprintf(w, "%-6s %-6s %-7s %10s %10s %8s %6s  %s\n",
		"phase", "load", "faults", "goodput", "p99.9(µs)", "reject", "brown", "guards")
	rows, cellErrs := runSoak(eng, seed, phaseDuration, phases, slo, quantum)
	bad := 0
	for _, r := range rows {
		s := r.Res.Overload
		verdict := "ok"
		if len(r.Violations) > 0 {
			verdict = fmt.Sprintf("VIOLATED: %v", r.Violations)
			bad += len(r.Violations)
		}
		fmt.Fprintf(w, "%-6d %-6.1f %-7.3g %9.2f%% %10.1f %7.1f%% %6d  %s\n",
			r.Phase, r.Mult, r.FaultRate, 100*r.Res.AchievedLoad/rampSaturatingLoad,
			r.Res.P999Us, 100*s.RejectFrac(), s.MaxBrownout, verdict)
	}
	mv := soakMTCP(seed, 2*phaseDuration)
	if len(mv) == 0 {
		fmt.Fprintln(w, "mtcp saturation companion: ok")
	} else {
		fmt.Fprintf(w, "mtcp saturation companion: VIOLATED: %v\n", mv)
		bad += len(mv)
	}
	if err := renderCellErrors(w, cellErrs); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("soak: %d guard violation(s)", bad)
	}
	fmt.Fprintln(w, "all phases within SLO; determinism, conservation and brownout guards hold")
	return nil
}
