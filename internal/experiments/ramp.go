package experiments

import (
	"fmt"

	"repro/internal/ci/ciruntime"
	"repro/internal/engine"
	"repro/internal/overload"
	"repro/internal/shenango"
)

// This file is the load-ramp / brownout experiment: shenango's
// CI-hosted IOKernel swept across offered-load multiples of its
// saturating capacity, with the overload-control plane off and on.
// The figure it produces is the paper's robustness counterpart to
// Fig. 4: without admission the 99.9th percentile diverges as soon as
// load exceeds capacity; with admission (deadline propagation + early
// rejection actuated from the CI probe handler) the tail stays flat
// and goodput holds near capacity, with the excess refused cheaply.

// rampSaturatingLoad is the offered load that saturates the CI-hosted
// IOKernel: one request costs two steered packets (ingress + egress),
// so capacity ≈ 2.6 GHz / (2 × 600 cycles) ≈ 2.17 M requests/s.
const rampSaturatingLoad = 2.6e9 / 1200.0

// rampMults is the standard sweep, in multiples of rampSaturatingLoad.
var rampMults = []float64{0.8, 1.0, 1.5, 2.0}

// rampDeadlineCycles is the propagated client deadline used by the
// ramp and soak experiments (~77 µs at 2.6 GHz).
const rampDeadlineCycles = 200_000

// rampOperationalFrac is the fraction of rampSaturatingLoad the
// CI-hosted IOKernel can actually serve: the raw steering bound ignores
// the fixed per-poll handler cost and the (cheap but non-zero) reject
// NACKs, which together eat ~12% of the budget. The SLO's "unavoidable
// excess" is measured against this operational capacity, not the raw
// bound — at exactly 1.0x offered load a correct controller already
// must refuse ~12%.
const rampOperationalFrac = 0.88

// rampExcess is the load fraction a perfect controller must refuse at
// the given offered-load multiple: max(0, 1 - operational/mult).
func rampExcess(mult float64) float64 {
	if mult <= 0 {
		return 0
	}
	return max(0, 1-rampOperationalFrac/mult)
}

// rampOverloadConfig is the tuned shenango admission configuration the
// ramp, soak and regression tests share. Deadline-based early
// rejection is the load-shedding mechanism: the token bucket stays
// disabled so the control loop is purely feedback-driven.
func rampOverloadConfig() *overload.Config {
	return &overload.Config{DeadlineCycles: rampDeadlineCycles}
}

// rampRow is one (load multiple, admission) cell of the sweep.
type rampRow struct {
	// Mult is the offered load in multiples of rampSaturatingLoad.
	Mult float64
	// Admission reports whether the overload plane was enabled.
	Admission bool
	// Res is the full shenango result, including the overload snapshot.
	Res shenango.Result
}

// measureLoadRamp sweeps shenango (CIHosted) across mults × {admission
// off, on}. One run is one engine cell; rows come back ordered by
// (mult, admission-off-first). A non-nil quantum factory installs an
// adaptive handler-interval policy (AIMD / feedback PID) in every
// cell's CI runtime; nil keeps the paper's fixed interval.
func measureLoadRamp(eng *engine.Engine, seed uint64, durationCycles int64, mults []float64, quantum func() ciruntime.QuantumPolicy) ([]rampRow, []cellError) {
	if len(mults) == 0 {
		mults = rampMults
	}
	label := func(i int) string { return fmt.Sprintf("ramp/%.1fx/admit=%t", mults[i/2], i%2 == 1) }
	return sweep(eng, 2*len(mults), label, func(i int) (rampRow, error) {
		mult := mults[i/2]
		admit := i%2 == 1
		cfg := shenango.Config{
			Kind:           shenango.CIHosted,
			OfferedLoad:    mult * rampSaturatingLoad,
			Seed:           seed,
			DurationCycles: durationCycles,
			Quantum:        quantum,
		}
		if admit {
			cfg.Overload = rampOverloadConfig()
		}
		res, err := shenango.RunChecked(cfg)
		if err != nil {
			return rampRow{}, err
		}
		return rampRow{Mult: mult, Admission: admit, Res: res}, nil
	})
}

// gateRamp is the ramp figure's gate: the -slo-p999us/-max-reject SLO
// against every admission-enabled row, with rampExcess(mult) as the
// unavoidable refusal fraction. A zero SLO checks nothing. It holds
// under any -quantum-policy: the guards must not depend on how the
// interval controller moves the probe quantum.
func gateRamp(rows []rampRow, in Inputs) []string {
	slo := in.Flags.SLO()
	var v []string
	for _, r := range rows {
		if !r.Admission {
			continue
		}
		if err := slo.Check(r.Res.P999Us, r.Res.Overload.RejectFrac(), rampExcess(r.Mult)); err != nil {
			v = append(v, fmt.Sprintf("%.1fx: %v", r.Mult, err))
		}
	}
	return v
}

func rampTable(rows []rampRow, in Inputs) *table {
	t := &table{
		title: []string{fmt.Sprintf("Load ramp (seed %d): shenango+CI under offered load vs %.2f M req/s capacity",
			in.Flags.Seed, rampSaturatingLoad/1e6)},
		cols: []column{{"load", "%-6s", "%-6.1f"}, {"admit", "%-6s", "%-6t"}, {"goodput", "%10s", "%9.2f%%"},
			{"p50(µs)", "%9s", "%9.1f"}, {"p99.9(µs)", "%10s", "%10.1f"}, {"reject", "%8s", "%7.1f%%"},
			{"shed", "%7s", "%7d"}, {"miner", "%7s", "%6.0f%%"}, {"brown", "%6s", "%6d"}},
		sep:       " ",
		violation: "SLO violation at ",
		failures:  "SLO violation(s)",
	}
	for _, r := range rows {
		s := r.Res.Overload
		t.rows = append(t.rows, []any{r.Mult, r.Admission, 100 * r.Res.AchievedLoad / rampSaturatingLoad, r.Res.MedianUs, r.Res.P999Us,
			100 * s.RejectFrac(), s.Shed, 100 * r.Res.MinerHashRate, s.MaxBrownout})
	}
	return t
}
