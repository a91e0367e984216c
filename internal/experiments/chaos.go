package experiments

import (
	"fmt"

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

// appRun is what the progress, determinism and conservation
// invariants judge of one app run: its failure, whether a re-run under
// the same plan matched it bit for bit, and mtcp's request ledger
// (issued, completed, aborted, rejected, outstanding, connections;
// zero elsewhere).
type appRun struct {
	Err        error
	Reproduced bool
	Ledger     [6]int64
}

// mtcpRun runs cfg twice, checked, and returns the first run and its
// evidence.
func mtcpRun(cfg mtcp.Config) (mtcp.Result, appRun) {
	r, err := mtcp.RunChecked(cfg)
	r2, _ := mtcp.RunChecked(cfg)
	return r, appRun{err, r2 == r, [6]int64{r.Issued, r.CompletedAll, r.Aborted, r.Rejects, r.Outstanding, int64(cfg.Conns)}}
}

func (e appRun) violations() []string {
	var v []string
	if e.Err != nil {
		v = append(v, fmt.Sprintf("progress: %v", e.Err))
	}
	if !e.Reproduced {
		v = append(v, "determinism: re-run differs")
	}
	if l := e.Ledger; l[0] != l[1]+l[2]+l[3]+l[4] || l[4] < 0 || l[4] > l[5] {
		v = append(v, fmt.Sprintf("conservation: issued=%d completed=%d aborted=%d rejects=%d outstanding=%d",
			l[0], l[1], l[2], l[3], l[4]))
	}
	return v
}

// chaosRow is one (subsystem, rate) cell of the sweep: the headline
// numbers and the evidence the invariants are judged on.
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
	appRun
	// BaseThroughput and BaseTailUs are the fault-free references (at a
	// non-zero rate); ffwd's floor is MCS, the design it degrades toward.
	BaseThroughput, BaseTailUs float64
}

// runChaos sweeps all three systems applications across the fault
// rates on the engine, one (rate, application) cell each. The
// rows carry the evidence; gateChaos judges it.
func runChaos(eng *engine.Engine, seed uint64, rates []float64) []chaosRow {
	apps := []func(seed uint64, rate float64) chaosRow{chaosMTCP, chaosShenango, chaosFFWD}
	n := len(apps)
	label := func(i int) string { return fmt.Sprintf("chaos/%g/%d", rates[i/n], i%n) }
	rows, _ := sweep(eng, n*len(rates), label, func(i int) (chaosRow, error) {
		return apps[i%n](seed, rates[i/n]), nil
	})
	return rows
}

func chaosMTCP(seed uint64, rate float64) chaosRow {
	r, run := mtcpRun(mtcp.Config{
		Mode: mtcp.CI, Conns: 32, Adaptive: true,
		Seed: seed, FaultPlan: faults.Uniform(seed, rate),
	})
	row := chaosRow{Subsystem: "mtcp", Rate: rate, Throughput: r.ThroughputGbps, TailUs: r.P99LatencyUs,
		Recovered: r.Retransmits, appRun: run}
	if rate > 0 {
		base, _ := mtcp.RunChecked(mtcp.Config{Mode: mtcp.CI, Conns: 32, Adaptive: true, Seed: seed})
		row.BaseThroughput, row.BaseTailUs = base.ThroughputGbps, base.P99LatencyUs
	}
	return row
}

func chaosShenango(seed uint64, rate float64) chaosRow {
	cfg := shenango.Config{
		Kind: shenango.CIHosted, OfferedLoad: 200e3,
		Seed: seed, FaultPlan: faults.Uniform(seed, rate),
	}
	r, err := shenango.RunChecked(cfg)
	r2, _ := shenango.RunChecked(cfg)
	row := chaosRow{Subsystem: "shenango", Rate: rate, Throughput: r.AchievedLoad, TailUs: r.P999Us,
		Recovered: r.ReSteers, appRun: appRun{Err: err, Reproduced: r2 == r}}
	if rate > 0 {
		base, _ := shenango.RunChecked(shenango.Config{Kind: shenango.CIHosted, OfferedLoad: 200e3, Seed: seed})
		row.BaseThroughput, row.BaseTailUs = base.AchievedLoad, base.P999Us
	}
	return row
}

func chaosFFWD(seed uint64, rate float64) chaosRow {
	cfg := ffwd.Config{
		Design: ffwd.DelegationCI, Threads: 32, RecordLatencies: true,
		Seed: seed, FaultPlan: faults.Uniform(seed, rate),
	}
	r := ffwd.Run(cfg)
	row := chaosRow{Subsystem: "ffwd", Rate: rate, Throughput: r.ThroughputMops,
		TailUs: float64(r.LatencySummary.Max) / 2600, Recovered: r.FallbackOps, appRun: appRun{Reproduced: ffwd.Run(cfg) == r}}
	if rate > 0 {
		base := ffwd.Run(ffwd.Config{Design: ffwd.DelegationCI, Threads: 32, RecordLatencies: true, Seed: seed})
		row.BaseThroughput = ffwd.Run(ffwd.Config{Design: ffwd.MCS, Threads: 32, Seed: seed}).ThroughputMops
		row.BaseTailUs = float64(base.LatencySummary.Max) / 2600
	}
	return row
}

// violations checks one row against the invariants: progress,
// determinism, conservation and, under faults, bounded degradation.
func (r chaosRow) violations() []string {
	v := r.appRun.violations()
	if r.Rate == 0 {
		return v
	}
	switch {
	case r.Throughput >= chaosThroughputFloor*r.BaseThroughput:
	case r.Subsystem == "ffwd":
		v = append(v, fmt.Sprintf("degradation: %.2f Mops below MCS floor %.2f", r.Throughput, r.BaseThroughput))
	default:
		v = append(v, fmt.Sprintf("degradation: throughput %.3g below %.2fx fault-free %.3g",
			r.Throughput, chaosThroughputFloor, r.BaseThroughput))
	}
	if r.BaseTailUs > 0 && r.TailUs > chaosTailFactor*r.BaseTailUs {
		v = append(v, fmt.Sprintf("degradation: tail %.1fµs exceeds %gx fault-free %.1fµs",
			r.TailUs, chaosTailFactor, r.BaseTailUs))
	}
	return v
}

// gateChaos is the chaos figure's gate: every row's invariant
// violations.
func gateChaos(rows []chaosRow, _ Inputs) []string {
	var v []string
	for _, r := range rows {
		v = append(v, r.violations()...)
	}
	return v
}

// chaosTable lays the sweep out with each row's invariant verdict.
func chaosTable(rows []chaosRow, in Inputs) *table {
	t := &table{
		title: []string{fmt.Sprintf("Chaos sweep (seed %d): graceful degradation under uniform fault plans", in.Flags.Seed)},
		cols: []column{{"subsystem", "%-10s", ""}, {"rate", "%-7s", "%-7.3g"}, {"throughput", "%12s", "%12.3f"},
			{"tail(µs)", "%12s", "%12.1f"}, {"recovered", "%10s", "%10d"}, {"invariants", " %s", ""}},
		sep:      " ",
		failures: "invariant violation(s)",
		closing:  []string{"all invariants hold: determinism, conservation, bounded degradation, progress"},
	}
	for _, r := range rows {
		t.rows = append(t.rows, []any{r.Subsystem, r.Rate, r.Throughput, r.TailUs, r.Recovered, verdict(r.violations())})
	}
	return t
}

// verdict is a row's guard column: ok, or what it violated.
func verdict(v []string) string {
	if len(v) == 0 {
		return "ok"
	}
	return fmt.Sprintf("VIOLATED: %v", v)
}
