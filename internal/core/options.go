// Functional-options surface for Compile/Run. Config remains a plain
// struct for callers that build configurations programmatically (via
// the CompileConfig entry point), but the canonical API is
//
//	prog, err := core.Compile(src,
//	    core.WithDesign(instrument.CI),
//	    core.WithProbeInterval(250),
//	    core.WithObs(scope))
//	res, err := prog.Run("main",
//	    core.WithThreads(8),
//	    core.WithInterval(5000))
//
// Options apply in order; later options override earlier ones.
package core

import (
	"repro/internal/ci/analysis"
	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/obs"
	"repro/internal/vm"
)

// settings is the resolved option state: the compile config, the
// run's set-up with its per-thread arguments and quantum policies, and
// the observability scope shared by both phases.
type settings struct {
	cfg     Config
	run     Setup
	args    func(id int) []int64
	quantum func() ciruntime.QuantumPolicy
	obs     *obs.Scope
}

// Option configures Compile and/or Run. Compile ignores run-only
// options and vice versa, so one option slice can serve both phases.
type Option func(*settings)

func resolve(opts []Option) settings {
	var st settings
	for _, o := range opts {
		if o != nil {
			o(&st)
		}
	}
	return st
}

// ConfigOf resolves opts to the compile-side Config — the canonical
// way to derive cache keys or feed struct-based entry points (e.g.
// sanitize.CompileChecked) from an option list.
func ConfigOf(opts ...Option) Config { return resolve(opts).cfg }

// WithDesign selects the probe design.
func WithDesign(d instrument.Design) Option {
	return func(s *settings) { s.cfg.Design = d }
}

// WithProbeInterval sets the compile-time probe interval in IR
// instructions.
func WithProbeInterval(n int64) Option {
	return func(s *settings) { s.cfg.ProbeIntervalIR = n }
}

// WithAllowableError bounds branch-arm summarization (§3.3).
func WithAllowableError(n int64) Option {
	return func(s *settings) { s.cfg.AllowableErrorIR = n }
}

// WithImportedCosts supplies cost files from other build units (§2.6).
func WithImportedCosts(t analysis.CostTable) Option {
	return func(s *settings) { s.cfg.ImportedCosts = t }
}

// WithLoopTransform enables or disables the §3.4 loop transform
// (enabled by default; disable for ablations).
func WithLoopTransform(on bool) Option {
	return func(s *settings) { s.cfg.DisableLoopTransform = !on }
}

// WithLoopClone enables or disables the §3.5 loop clone.
func WithLoopClone(on bool) Option {
	return func(s *settings) { s.cfg.DisableLoopClone = !on }
}

// WithOptimize runs the IR optimizer before the CI analysis.
func WithOptimize(on bool) Option {
	return func(s *settings) { s.cfg.Optimize = on }
}

// WithTier is a run-only option that selects the VM execution tier:
// vm.TierCompiled (the default, the closure-threaded compiled tier) or
// vm.TierInterpreter (the reference semantics, cycle-exact with it).
// Compile ignores it.
func WithTier(t vm.Tier) Option {
	return func(s *settings) { s.run.Tier = t }
}

// WithObs attaches an observability scope to both phases: Compile
// emits stage-transition instants, Run attaches the scope to the VM
// (probe-site profile, handler spans) and records interval-error and
// handler-latency histograms. A nil scope is the disabled default.
func WithObs(scope *obs.Scope) Option {
	return func(s *settings) { s.obs = scope }
}

// WithThreads runs the entry function on n VM threads.
func WithThreads(n int) Option {
	return func(s *settings) { s.run.Threads = n }
}

// WithArgv passes the same fixed arguments to every thread.
func WithArgv(vals ...int64) Option {
	return func(s *settings) {
		s.args = func(int) []int64 { return vals }
	}
}

// WithInterval registers the run handler with this CI interval
// (cycles) on every thread. Under the UserInterrupt design the same
// value is the hardware timer's cadence instead. Zero registers none.
func WithInterval(cycles int64) Option {
	return func(s *settings) { s.run.Interval = cycles }
}

// WithHandler sets the interrupt handler registered by WithInterval.
func WithHandler(h func(irSinceLast uint64)) Option {
	return func(s *settings) {
		s.run.Handler = nil
		if h != nil {
			s.run.Handler = func(_ *vm.Thread, irDelta uint64) { h(irDelta) }
		}
	}
}

// WithQuantumPolicy installs an interval-control policy on the run
// handler registered by WithInterval: each thread gets a fresh policy
// from make, observing every inter-fire gap and steering the next
// interval (see ciruntime.QuantumPolicy). Nil (the default) keeps the
// interval fixed. Ignored by the UserInterrupt design, whose cadence
// is a hardware timer rather than a probe-driven runtime.
func WithQuantumPolicy(make func() ciruntime.QuantumPolicy) Option {
	return func(s *settings) { s.quantum = make }
}

// WithRecordIntervals records each thread's inter-fire gaps
// (RunResult.Intervals).
func WithRecordIntervals(on bool) Option {
	return func(s *settings) { s.run.Record = on }
}

// WithLimit bounds per-thread execution in executed instructions.
func WithLimit(n int64) Option {
	return func(s *settings) { s.run.Limit = n }
}
