package core

import (
	"reflect"
	"testing"

	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/obs"
)

// The UserInterrupt design must insert no probes: delivery comes from
// the VM's user-level interrupt timer, the handler still runs on its
// cadence, and the run result carries the recorded gaps and the UIntr
// delivery counter instead of probe statistics.
func TestUserInterruptRunDeliversWithoutProbes(t *testing.T) {
	prog, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.UserInterrupt))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Instr.Probes != 0 {
		t.Fatalf("uintr module carries %d probes, want 0", prog.Instr.Probes)
	}
	fires := 0
	res, err := prog.Run("main",
		WithArgv(500000),
		WithInterval(5000),
		WithHandler(func(uint64) { fires++ }),
		WithRecordIntervals(true),
		WithLimit(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats[0]
	if s.Probes != 0 {
		t.Errorf("probes executed = %d, want 0", s.Probes)
	}
	if s.UIntrs == 0 || s.HandlerCalls == 0 || fires == 0 {
		t.Errorf("no deliveries: UIntrs=%d HandlerCalls=%d fires=%d", s.UIntrs, s.HandlerCalls, fires)
	}
	if s.UIntrs != s.HandlerCalls {
		t.Errorf("UIntrs=%d vs HandlerCalls=%d, want equal", s.UIntrs, s.HandlerCalls)
	}
	if s.HWInterrupts != 0 {
		t.Errorf("HWInterrupts=%d under the uintr design, want 0", s.HWInterrupts)
	}
	if int64(len(res.Intervals[0])) != s.UIntrs {
		t.Errorf("recorded %d gaps for %d deliveries", len(res.Intervals[0]), s.UIntrs)
	}
}

// The uintr run must feed the same interval histograms the CI designs
// feed, skipping the first delivery's meaningless gap.
func TestUserInterruptObsHistograms(t *testing.T) {
	scope := obs.New(0)
	prog, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.UserInterrupt), WithObs(scope))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run("main",
		WithArgv(500000), WithInterval(5000), WithLimit(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	gap := scope.Hist("run/handler_gap_cycles")
	errH := scope.Hist("run/interval_error_cycles")
	if gap == nil || errH == nil {
		t.Fatal("interval histograms missing under the uintr design")
	}
	if int64(gap.N()) != res.Stats[0].UIntrs-1 {
		t.Errorf("gap samples = %d, deliveries = %d (first must be skipped)",
			gap.N(), res.Stats[0].UIntrs)
	}
}

// WithQuantumPolicy installs a fresh policy per thread, and seeded
// policy-driven runs are deterministic: identical invocations return
// identical recorded gap sequences.
func TestQuantumPolicyRunDeterministic(t *testing.T) {
	prog, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.CI), WithProbeInterval(200))
	if err != nil {
		t.Fatal(err)
	}
	run := func() *RunResult {
		res, err := prog.Run("main",
			WithThreads(2),
			WithArgv(500000),
			WithInterval(5000),
			WithQuantumPolicy(func() ciruntime.QuantumPolicy { return &ciruntime.FeedbackPID{} }),
			WithRecordIntervals(true),
			WithLimit(50_000_000))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Intervals, b.Intervals) {
		t.Error("two identical policy-driven runs recorded different gap sequences")
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Error("two identical policy-driven runs diverged in Stats")
	}
	if len(a.Intervals[0]) == 0 {
		t.Error("no gaps recorded under the quantum policy")
	}
}
