package experiments

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/ffwd"
	"repro/internal/mtcp"
	"repro/internal/shenango"
)

// This file is the chaos experiment: every subsystem runs under a
// uniform fault plan at increasing fault rates, and the run is judged
// against the graceful-degradation invariants rather than against the
// paper's figures:
//
//  1. determinism — the same seed and plan produce bit-identical
//     results on a re-run;
//  2. conservation — every issued request and pushed packet is
//     accounted for exactly once (completed, aborted, dropped, lost or
//     still outstanding);
//  3. bounded degradation — tail latency under faults stays within a
//     fixed factor of the fault-free run, and throughput above a fixed
//     floor, because every loss path has a recovery mechanism
//     (retransmission, re-steering, MCS fallback);
//  4. progress — no run hangs: the simulators' event-loop deadlines
//     return errors instead of spinning, and none may fire.

// chaosRates is the standard sweep: fault-free, 0.1%, 1%.
var chaosRates = []float64{0, 0.001, 0.01}

// chaosBounds are the degradation invariants' constants: under any
// swept fault rate, p99-class tails may grow at most tailFactor x the
// fault-free tail and throughput may fall at most to throughputFloor x
// the fault-free rate.
const (
	chaosTailFactor      = 50.0
	chaosThroughputFloor = 0.4
)

// chaosRow is one (subsystem, rate) cell of the sweep.
type chaosRow struct {
	Subsystem string
	Rate      float64
	// Throughput and TailUs are the subsystem's headline metric and
	// p99-class tail latency under the plan.
	Throughput float64
	TailUs     float64
	// Recovered summarizes the fault-recovery activity observed
	// (retransmits, re-steers or fallback ops, by subsystem).
	Recovered int64
	// Violations lists every invariant the run broke (empty = pass).
	Violations []string
}

func (r chaosRow) ok() string {
	if len(r.Violations) == 0 {
		return "ok"
	}
	return fmt.Sprintf("VIOLATED: %v", r.Violations)
}

// runChaos sweeps all three systems applications across the given
// fault rates on the engine, one (rate, application) cell each, and
// checks the invariants at every point. The returned rows carry any
// violations (it never converts them into errors — callers decide, so
// the printer can show a full table).
func runChaos(eng *engine.Engine, seed uint64, rates []float64) []chaosRow {
	if len(rates) == 0 {
		rates = chaosRates
	}
	apps := []func(seed uint64, rate float64) chaosRow{chaosMTCP, chaosShenango, chaosFFWD}
	n := len(apps)
	label := func(i int) string { return fmt.Sprintf("chaos/%g/%d", rates[i/n], i%n) }
	rows, _ := sweep(eng, n*len(rates), label, func(i int) (chaosRow, error) {
		return apps[i%n](seed, rates[i/n]), nil
	})
	return rows
}

func chaosMTCP(seed uint64, rate float64) chaosRow {
	cfg := mtcp.Config{
		Mode: mtcp.CI, Conns: 32, Adaptive: true,
		Seed: seed, FaultPlan: faults.Uniform(seed, rate),
	}
	row := chaosRow{Subsystem: "mtcp", Rate: rate}
	r, err := mtcp.RunChecked(cfg)
	row.Throughput = r.ThroughputGbps
	row.TailUs = r.P99LatencyUs
	row.Recovered = r.Retransmits
	if err != nil {
		row.Violations = append(row.Violations, fmt.Sprintf("progress: %v", err))
	}
	if r2, _ := mtcp.RunChecked(cfg); r2 != r {
		row.Violations = append(row.Violations, "determinism: re-run differs")
	}
	if r.Issued != r.CompletedAll+r.Aborted+r.Rejects+r.Outstanding || r.Outstanding < 0 || r.Outstanding > int64(cfg.Conns) {
		row.Violations = append(row.Violations,
			fmt.Sprintf("conservation: issued=%d completed=%d aborted=%d rejects=%d outstanding=%d",
				r.Issued, r.CompletedAll, r.Aborted, r.Rejects, r.Outstanding))
	}
	if rate > 0 {
		base, _ := mtcp.RunChecked(mtcp.Config{Mode: mtcp.CI, Conns: 32, Adaptive: true, Seed: seed})
		row.Violations = append(row.Violations, boundedDegradation(
			r.ThroughputGbps, base.ThroughputGbps, r.P99LatencyUs, base.P99LatencyUs)...)
	}
	return row
}

func chaosShenango(seed uint64, rate float64) chaosRow {
	cfg := shenango.Config{
		Kind: shenango.CIHosted, OfferedLoad: 200e3,
		Seed: seed, FaultPlan: faults.Uniform(seed, rate),
	}
	row := chaosRow{Subsystem: "shenango", Rate: rate}
	r, err := shenango.RunChecked(cfg)
	row.Throughput = r.AchievedLoad
	row.TailUs = r.P999Us
	row.Recovered = r.ReSteers
	if err != nil {
		row.Violations = append(row.Violations, fmt.Sprintf("progress: %v", err))
	}
	if r2, _ := shenango.RunChecked(cfg); r2 != r {
		row.Violations = append(row.Violations, "determinism: re-run differs")
	}
	if rate > 0 {
		base, _ := shenango.RunChecked(shenango.Config{Kind: shenango.CIHosted, OfferedLoad: 200e3, Seed: seed})
		row.Violations = append(row.Violations, boundedDegradation(
			r.AchievedLoad, base.AchievedLoad, r.P999Us, base.P999Us)...)
	}
	return row
}

func chaosFFWD(seed uint64, rate float64) chaosRow {
	cfg := ffwd.Config{
		Design: ffwd.DelegationCI, Threads: 32, RecordLatencies: true,
		Seed: seed, FaultPlan: faults.Uniform(seed, rate),
	}
	row := chaosRow{Subsystem: "ffwd", Rate: rate}
	r := ffwd.Run(cfg)
	row.Throughput = r.ThroughputMops
	row.TailUs = float64(r.LatencySummary.Max) / 2600
	row.Recovered = r.FallbackOps
	if r2 := ffwd.Run(cfg); r2 != r {
		row.Violations = append(row.Violations, "determinism: re-run differs")
	}
	if rate > 0 {
		base := ffwd.Run(ffwd.Config{Design: ffwd.DelegationCI, Threads: 32, RecordLatencies: true, Seed: seed})
		mcs := ffwd.Run(ffwd.Config{Design: ffwd.MCS, Threads: 32, Seed: seed})
		// ffwd degrades toward the MCS fallback, so its floor is
		// relative to MCS, not to fault-free delegation.
		if r.ThroughputMops < chaosThroughputFloor*mcs.ThroughputMops {
			row.Violations = append(row.Violations,
				fmt.Sprintf("degradation: %.2f Mops below MCS floor %.2f", r.ThroughputMops, mcs.ThroughputMops))
		}
		baseTail := float64(base.LatencySummary.Max) / 2600
		if row.TailUs > chaosTailFactor*baseTail {
			row.Violations = append(row.Violations,
				fmt.Sprintf("degradation: tail %.1fµs exceeds %gx fault-free %.1fµs",
					row.TailUs, chaosTailFactor, baseTail))
		}
	}
	return row
}

// boundedDegradation checks invariant 3 against a fault-free baseline.
func boundedDegradation(tput, baseTput, tail, baseTail float64) []string {
	var v []string
	if tput < chaosThroughputFloor*baseTput {
		v = append(v, fmt.Sprintf("degradation: throughput %.3g below %.2fx fault-free %.3g",
			tput, chaosThroughputFloor, baseTput))
	}
	if baseTail > 0 && tail > chaosTailFactor*baseTail {
		v = append(v, fmt.Sprintf("degradation: tail %.1fµs exceeds %gx fault-free %.1fµs",
			tail, chaosTailFactor, baseTail))
	}
	return v
}

// printChaos runs the sweep and renders the invariant table. It
// returns an error if any invariant was violated, so `ciexp chaos`
// exits non-zero on a broken degradation path.
func printChaos(w io.Writer, eng *engine.Engine, seed uint64, rates []float64) error {
	fmt.Fprintf(w, "Chaos sweep (seed %d): graceful degradation under uniform fault plans\n", seed)
	fmt.Fprintf(w, "%-10s %-7s %12s %12s %10s  %s\n",
		"subsystem", "rate", "throughput", "tail(µs)", "recovered", "invariants")
	rows := runChaos(eng, seed, rates)
	bad := 0
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-7.3g %12.3f %12.1f %10d  %s\n",
			r.Subsystem, r.Rate, r.Throughput, r.TailUs, r.Recovered, r.ok())
		bad += len(r.Violations)
	}
	if bad > 0 {
		return fmt.Errorf("chaos: %d invariant violation(s)", bad)
	}
	fmt.Fprintln(w, "all invariants hold: determinism, conservation, bounded degradation, progress")
	return nil
}
