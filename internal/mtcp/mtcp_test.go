package mtcp

import (
	"testing"

	"repro/internal/faults"
)

func TestModesRunAndComplete(t *testing.T) {
	for _, m := range []Mode{Kernel, Orig, CI} {
		r := Run(Config{Mode: m, Conns: 16})
		if r.Completed == 0 {
			t.Errorf("%v: no completed requests", m)
		}
		if r.ThroughputGbps <= 0 || r.ThroughputGbps > 9.4 {
			t.Errorf("%v: throughput %v out of range", m, r.ThroughputGbps)
		}
		if r.MedianLatencyUs <= 0 {
			t.Errorf("%v: no latency recorded", m)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := Run(Config{Mode: CI, Conns: 32})
	b := Run(Config{Mode: CI, Conns: 32})
	if a.Completed != b.Completed || a.MedianLatencyUs != b.MedianLatencyUs {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

// Figure 4 headline: CI-mTCP ≈ 2x stock mTCP throughput at saturation,
// with lower latency; kernel collapses at high connection counts.
func TestFigure4Shape(t *testing.T) {
	ci := Run(Config{Mode: CI, Conns: 64})
	orig := Run(Config{Mode: Orig, Conns: 64})
	if ci.ThroughputGbps < 1.6*orig.ThroughputGbps {
		t.Errorf("CI (%.2f) should be ~2x orig (%.2f)", ci.ThroughputGbps, orig.ThroughputGbps)
	}
	if ci.MedianLatencyUs >= orig.MedianLatencyUs {
		t.Errorf("CI latency (%.1f) should beat orig (%.1f)", ci.MedianLatencyUs, orig.MedianLatencyUs)
	}
	kLow := Run(Config{Mode: Kernel, Conns: 2})
	kHigh := Run(Config{Mode: Kernel, Conns: 128})
	if kHigh.ThroughputGbps > kLow.ThroughputGbps/2 {
		t.Errorf("kernel should collapse: low-conns %.2f vs high-conns %.2f",
			kLow.ThroughputGbps, kHigh.ThroughputGbps)
	}
	if kHigh.ThroughputGbps >= ci.ThroughputGbps {
		t.Error("kernel at high conns should be far below CI")
	}
}

// Figure 5 headline: with per-request compute, CI beats orig clearly
// and kernel tracks CI.
func TestFigure5Shape(t *testing.T) {
	const work = 1_000_000
	ci := Run(Config{Mode: CI, Conns: 16, WorkCycles: work})
	orig := Run(Config{Mode: Orig, Conns: 16, WorkCycles: work})
	kern := Run(Config{Mode: Kernel, Conns: 16, WorkCycles: work})
	if ci.ThroughputGbps < 1.5*orig.ThroughputGbps {
		t.Errorf("CI (%.3f) should clearly beat orig (%.3f) with compute work",
			ci.ThroughputGbps, orig.ThroughputGbps)
	}
	ratio := kern.ThroughputGbps / ci.ThroughputGbps
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("kernel (%.3f) should track CI (%.3f) under compute work",
			kern.ThroughputGbps, ci.ThroughputGbps)
	}
	if orig.MedianLatencyUs < ci.MedianLatencyUs {
		t.Error("orig latency should exceed CI latency under compute work")
	}
}

func TestThroughputScalesWithConns(t *testing.T) {
	lo := Run(Config{Mode: CI, Conns: 1})
	hi := Run(Config{Mode: CI, Conns: 8})
	if hi.ThroughputGbps <= lo.ThroughputGbps {
		t.Errorf("throughput must rise with connections: %.2f -> %.2f",
			lo.ThroughputGbps, hi.ThroughputGbps)
	}
}

func TestDropsTriggerRetransmits(t *testing.T) {
	r := Run(Config{Mode: Orig, Conns: 256})
	if r.Drops == 0 || r.Retransmits == 0 {
		t.Errorf("expected ring overflow at 256 conns: drops=%d retx=%d", r.Drops, r.Retransmits)
	}
}

// Figures 4 and 5 sweep the connection count one Run per cell: each
// row must report the connections and mode it ran with.
func TestSweepCoversAllConns(t *testing.T) {
	for _, conns := range []int{1, 4, 16} {
		r := Run(Config{Mode: CI, Conns: conns})
		if r.Conns != conns || r.Mode != CI {
			t.Errorf("conns=%d: row = %+v", conns, r)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := Run(Config{Mode: CI})
	if r.Conns != 1 {
		t.Errorf("default conns = %d", r.Conns)
	}
}

// §5.1: "packet processing is more efficient in larger batches... the
// CI version polls the NIC periodically, based on the configured 2500
// cycle CI interval, resulting in larger batches... Longer CI intervals
// further improve efficiency" — at the cost of latency.
func TestLongerCIIntervalImprovesEfficiencyTradesLatency(t *testing.T) {
	// Use compute-bound requests so throughput is CPU-efficiency-bound
	// rather than link-bound, making the batching effect visible.
	// Efficiency: at CPU saturation, longer intervals amortize the
	// per-poll fixed costs over bigger batches.
	atLoad := func(interval int64) Result {
		return Run(Config{Mode: CI, Conns: 64, WorkCycles: 30000, IntervalCycles: interval})
	}
	short := atLoad(1000)
	long := atLoad(16000)
	if long.Completed <= short.Completed {
		t.Errorf("longer interval should complete more work: %d vs %d requests",
			long.Completed, short.Completed)
	}
	// Latency: at low load the poll delay dominates, so longer
	// intervals cost response time.
	idleShort := Run(Config{Mode: CI, Conns: 1, IntervalCycles: 1000})
	idleLong := Run(Config{Mode: CI, Conns: 1, IntervalCycles: 16000})
	if idleLong.MedianLatencyUs <= idleShort.MedianLatencyUs {
		t.Errorf("longer interval should raise low-load latency: %.1f vs %.1f µs",
			idleLong.MedianLatencyUs, idleShort.MedianLatencyUs)
	}
}

// Regression for the backoff path: at 1% injected packet loss the CI
// server must degrade smoothly — requests keep completing, conservation
// holds, retransmits recover nearly all losses, and throughput stays
// within a modest factor of the fault-free run.
func TestSmoothDegradationAtOnePercentLoss(t *testing.T) {
	base := Run(Config{Mode: CI, Conns: 32})
	r, err := RunChecked(Config{
		Mode: CI, Conns: 32,
		FaultPlan: &faults.Plan{Seed: 11, DropProb: 0.01},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if r.Lost == 0 {
		t.Fatal("no injected loss at 1%")
	}
	if r.Retransmits == 0 {
		t.Error("losses must trigger retransmits")
	}
	if r.Completed == 0 {
		t.Fatal("no completions under 1% loss")
	}
	if r.ThroughputGbps < 0.5*base.ThroughputGbps {
		t.Errorf("1%% loss should degrade gracefully: %.2f vs fault-free %.2f Gbps",
			r.ThroughputGbps, base.ThroughputGbps)
	}
	// With rtoBase backoff and maxRetries=6 the odds of aborting at 1%
	// loss are ~1e-12; any abort here means the backoff path is broken.
	if r.Aborted != 0 {
		t.Errorf("aborts at 1%% loss: %d", r.Aborted)
	}
	checkConservation(t, r)
}

func checkConservation(t *testing.T, r Result) {
	t.Helper()
	if r.Issued != r.CompletedAll+r.Aborted+r.Rejects+r.Outstanding {
		t.Errorf("request conservation: issued=%d completedAll=%d aborted=%d rejects=%d outstanding=%d",
			r.Issued, r.CompletedAll, r.Aborted, r.Rejects, r.Outstanding)
	}
	if r.Outstanding < 0 || r.Outstanding > int64(r.Conns) {
		t.Errorf("outstanding=%d out of [0, %d]", r.Outstanding, r.Conns)
	}
}

// The exponential backoff must abort (not retransmit forever) when the
// wire eats everything, and the closed loop must keep reissuing.
func TestTotalLossAbortsWithBackoffCap(t *testing.T) {
	r, err := RunChecked(Config{
		Mode: CI, Conns: 4,
		DurationCycles: 1_000_000_000, // 385 ms: enough for a full backoff ladder
		FaultPlan:      &faults.Plan{Seed: 3, DropProb: 1},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if r.CompletedAll != 0 {
		t.Errorf("completions despite 100%% loss: %d", r.CompletedAll)
	}
	if r.Aborted == 0 {
		t.Error("total loss must abort requests after maxRetries")
	}
	// Each aborted generation transmits 1 + maxRetries times.
	if want := r.Aborted * maxRetries; r.Retransmits < want {
		t.Errorf("retransmits=%d, want >= %d (maxRetries per abort)", r.Retransmits, want)
	}
	checkConservation(t, r)
}

// Same seed and plan ⇒ bit-identical results, fault injection included.
func TestFaultRunsDeterministic(t *testing.T) {
	cfg := Config{
		Mode: CI, Conns: 32, Adaptive: true,
		FaultPlan: faults.Uniform(99, 0.01),
	}
	a := Run(cfg)
	b := Run(cfg)
	if a != b {
		t.Errorf("fault runs differ:\n%+v\n%+v", a, b)
	}
}

// Corrupted packets are discarded at checksum time and recovered by
// retransmission; duplicates from spurious retransmits never reach the
// application twice.
func TestCorruptionDiscardAndDuplicateSuppression(t *testing.T) {
	r, err := RunChecked(Config{
		Mode: CI, Conns: 32,
		FaultPlan: &faults.Plan{Seed: 21, CorruptProb: 0.05},
	})
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if r.CorruptDiscards == 0 {
		t.Fatal("no corrupt discards at 5% corruption")
	}
	if r.Completed == 0 {
		t.Fatal("no completions under corruption")
	}
	checkConservation(t, r)
}

// Adaptive polling: injected handler-overrun spikes must back the
// interval off (bounded by the cap) and the backoff must re-tighten —
// and adaptation must stay off unless opted into.
func TestAdaptiveIntervalBacksOffUnderOverruns(t *testing.T) {
	plan := &faults.Plan{Seed: 7, OverrunProb: 0.5, OverrunCycles: 50_000}
	fixed := Run(Config{Mode: CI, Conns: 16, FaultPlan: plan})
	if fixed.FinalIntervalCycles != 2500 {
		t.Errorf("interval moved without Adaptive: %d", fixed.FinalIntervalCycles)
	}
	adaptive := Run(Config{Mode: CI, Conns: 16, FaultPlan: plan, Adaptive: true})
	if adaptive.Overruns == 0 {
		t.Fatal("no overruns detected under injected spikes")
	}
	if adaptive.FinalIntervalCycles <= 2500 {
		t.Errorf("interval did not back off: %d", adaptive.FinalIntervalCycles)
	}
	if max := int64(2500 * 8); adaptive.FinalIntervalCycles > max {
		t.Errorf("interval %d exceeds cap %d", adaptive.FinalIntervalCycles, max)
	}
	// With a base interval comfortably above the per-poll handler cost
	// and no spikes, an adaptive run never leaves the base.
	calm := Run(Config{Mode: CI, Conns: 1, IntervalCycles: 16000, Adaptive: true})
	if calm.FinalIntervalCycles != 16000 {
		t.Errorf("adaptive interval drifted without overruns: %d", calm.FinalIntervalCycles)
	}
}
