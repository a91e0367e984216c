// Package core is the public driver of the Compiler Interrupts
// library: it ties together canonicalization, the analysis phase (§3),
// the instrumentation phase (§4) and the virtual machine, behind a
// small API mirroring how the paper's LLVM pass is used.
//
// Typical usage (functional options; see options.go):
//
//	prog, err := core.CompileText(src,
//	    core.WithDesign(instrument.CI),
//	    core.WithProbeInterval(250))
//	stats, err := prog.Run("main",
//	    core.WithInterval(5000),
//	    core.WithHandler(func(irDelta uint64) { ... }))
//
// The Config struct remains for programmatic construction and reaches
// the same path via CompileConfig.
package core

import (
	"fmt"

	"repro/internal/ci/analysis"
	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/vm"
)

// Config selects the instrumentation design and analysis parameters.
type Config struct {
	// Design is the probe design (instrument.CI by default).
	Design instrument.Design
	// ProbeIntervalIR is the compile-time probe interval in IR
	// instructions (default 1000).
	ProbeIntervalIR int64
	// AllowableErrorIR bounds branch-arm summarization (§3.3); defaults
	// to the probe interval, as the paper chooses heuristically.
	AllowableErrorIR int64
	// ImportedCosts supplies cost files from other build units (§2.6).
	ImportedCosts analysis.CostTable
	// DisableLoopTransform / DisableLoopClone switch off the §3.4/§3.5
	// rewrites, for ablation studies.
	DisableLoopTransform bool
	DisableLoopClone     bool
	// Optimize runs the IR optimizer (package opt) before the CI
	// analysis, mirroring the paper's use of -O3 IR.
	Optimize bool
	// FuncStageHook observes each function after every analysis-side
	// rewrite ("canonicalize", "loop-transform", "loop-clone").
	FuncStageHook analysis.StageHook
	// ModStageHook observes the module at the instrumentation pipeline
	// points ("input", "analysis", "probes"). Both hooks feed the
	// translation-validation sanitizer (internal/sanitize).
	ModStageHook instrument.ModStageHook
}

// Program is a compiled (instrumented) module ready to run on the VM.
type Program struct {
	// Mod is the instrumented module.
	Mod *ir.Module
	// Source is the pristine module the program was compiled from.
	Source *ir.Module
	// Instr reports what the instrumentation phase did.
	Instr *instrument.Result
	cfg   Config
	obs   *obs.Scope
}

// Compile clones src and instruments the clone per the resolved
// options. src itself is not modified. With WithObs each pipeline
// stage emits a trace instant and the scope carries over to Run.
func Compile(src *ir.Module, opts ...Option) (*Program, error) {
	st := resolve(opts)
	cfg := st.cfg
	if scope := st.obs; scope.Enabled() {
		inner := cfg.ModStageHook
		cfg.ModStageHook = func(stage string, m *ir.Module) {
			scope.Instant("compile", "stage/"+stage, 0, scope.Tick())
			if inner != nil {
				inner(stage, m)
			}
		}
	}
	if err := src.Verify(); err != nil {
		return nil, fmt.Errorf("core: input module invalid: %w", err)
	}
	m := src.Clone()
	if cfg.Optimize {
		opt.Module(m)
	}
	res, err := instrument.Instrument(m, instrument.Options{
		Design: cfg.Design,
		Analysis: analysis.Options{
			ProbeInterval:        cfg.ProbeIntervalIR,
			AllowableError:       cfg.AllowableErrorIR,
			Imported:             cfg.ImportedCosts,
			DisableLoopTransform: cfg.DisableLoopTransform,
			DisableLoopClone:     cfg.DisableLoopClone,
			StageHook:            cfg.FuncStageHook,
		},
		StageHook: cfg.ModStageHook,
	})
	if err != nil {
		return nil, err
	}
	return &Program{Mod: m, Source: src, Instr: res, cfg: st.cfg, obs: st.obs}, nil
}

// CompileConfig compiles src from a programmatically built Config —
// the struct entry point for callers (like sanitize.CompileChecked)
// that assemble configurations as values rather than option lists.
// Equivalent to Compile with the matching fine-grained options.
func CompileConfig(src *ir.Module, cfg Config, opts ...Option) (*Program, error) {
	withCfg := func(s *settings) { s.cfg = cfg }
	return Compile(src, append([]Option{withCfg}, opts...)...)
}

// CompileText parses textual IR and compiles it.
func CompileText(src string, opts ...Option) (*Program, error) {
	m, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return Compile(m, opts...)
}

// ExportCosts serializes the program's function cost table for
// dependent build units (§2.6). Only meaningful for CI designs.
func (p *Program) ExportCosts() ([]byte, error) {
	if p.Instr.Analysis == nil {
		return nil, fmt.Errorf("core: design %v exports no cost table", p.cfg.Design)
	}
	return analysis.ExportCosts(p.Instr.Analysis.Costs)
}

// RunConfig configures a VM run of a compiled program.
type RunConfig struct {
	// Threads runs the entry function on this many VM threads (default
	// 1); Args(id) supplies per-thread arguments (default: thread id).
	Threads int
	Args    func(id int) []int64
	// IntervalCycles registers Handler with this CI interval on every
	// thread. Zero skips registration. Under the UserInterrupt design
	// the same value is the hardware timer cadence instead.
	IntervalCycles int64
	Handler        func(irSinceLast uint64)
	// Quantum, when non-nil, makes one fresh interval-control policy
	// per thread and installs it on the run handler (see
	// ciruntime.QuantumPolicy and WithQuantumPolicy).
	Quantum func() ciruntime.QuantumPolicy
	// RecordIntervals records inter-fire gaps on handler id 1.
	RecordIntervals bool
	// LimitInstrs bounds per-thread execution (0 = none).
	LimitInstrs int64
}

// RunResult aggregates a run.
type RunResult struct {
	// Stats holds per-thread VM statistics.
	Stats []vm.Stats
	// Intervals holds recorded handler gaps (cycles) per thread, when
	// RecordIntervals was set.
	Intervals [][]int64
	// Returns holds each thread's return value.
	Returns []int64
}

// Run executes the program's function fn under the configured VM. The
// observability scope defaults to the one given at Compile time; a
// WithObs among opts overrides it for this run.
func (p *Program) Run(fn string, opts ...Option) (*RunResult, error) {
	st := resolve(opts)
	rc := st.rc
	scope := st.obs
	if scope == nil {
		scope = p.obs
	}
	threads := rc.Threads
	if threads < 1 {
		threads = 1
	}
	args := rc.Args
	if args == nil {
		args = func(id int) []int64 { return []int64{int64(id)} }
	}
	f := p.Mod.FuncByName(fn)
	if f == nil {
		return nil, fmt.Errorf("core: no function %q", fn)
	}
	if f.NumParams == 0 {
		args = func(int) []int64 { return nil }
	}
	machine := vm.New(p.Mod, nil, threads)
	machine.LimitInstrs = rc.LimitInstrs
	machine.Obs = scope
	machine.Tier = st.tier
	res := &RunResult{
		Stats:     make([]vm.Stats, threads),
		Intervals: make([][]int64, threads),
		Returns:   make([]int64, threads),
	}
	// Under the UserInterrupt design the run handler is delivered by
	// the VM's user-level interrupt timer instead of probe-driven CI
	// registration: the code carries no probes, so the cadence, gap
	// recording and interval-error metrics all come from the hardware
	// delivery path.
	uintr := p.cfg.Design == instrument.UserInterrupt && rc.IntervalCycles > 0
	// Sequential execution keeps interval recording and return values
	// simple and deterministic; the contention model already accounts
	// for the thread count. Threads are virtual-time independent.
	for id := 0; id < threads; id++ {
		var uintrGaps []int64
		if uintr {
			h := rc.Handler
			target := rc.IntervalCycles
			record := rc.RecordIntervals
			var lastFire, lastInstrs int64
			first := true
			machine.HW = &vm.HWConfig{
				IntervalCycles: rc.IntervalCycles,
				User:           true,
				Handler: func(t *vm.Thread) {
					now := t.Now()
					gap := now - lastFire
					lastFire = now
					irDelta := uint64(t.Stats.Instrs - lastInstrs)
					lastInstrs = t.Stats.Instrs
					if record {
						uintrGaps = append(uintrGaps, gap)
					}
					if first {
						// The first delivery's gap spans thread start to
						// first interrupt, not a steady-state interval.
						first = false
					} else if scope.Enabled() {
						scope.Observe("run/handler_gap_cycles", gap)
						scope.Observe("run/interval_error_cycles", gap-target)
					}
					if h != nil {
						h(irDelta)
					}
				},
			}
		}
		th := machine.NewThread(id)
		th.RT.RecordIntervals = rc.RecordIntervals
		if scope.Enabled() && rc.IntervalCycles > 0 && !uintr {
			target := rc.IntervalCycles
			first := true
			th.RT.OnFire = func(hid int, irDelta uint64, gap int64) {
				if first {
					// The first fire's gap spans registration to
					// first interrupt, not a steady-state interval.
					first = false
					return
				}
				scope.Observe("run/handler_gap_cycles", gap)
				scope.Observe("run/interval_error_cycles", gap-target)
			}
		}
		hid := 0
		if rc.IntervalCycles > 0 && !uintr {
			h := rc.Handler
			if h == nil {
				h = func(uint64) {}
			}
			hid = th.RT.RegisterCI(rc.IntervalCycles, h)
			if rc.Quantum != nil {
				th.RT.SetPolicy(hid, rc.Quantum())
			}
		}
		rv, err := th.Run(fn, args(id)...)
		if err != nil {
			return nil, fmt.Errorf("core: thread %d: %w", id, err)
		}
		res.Returns[id] = rv
		res.Stats[id] = th.Stats
		if hid != 0 {
			res.Intervals[id] = th.RT.Intervals(hid)
		}
		if uintr {
			res.Intervals[id] = uintrGaps
		}
		if scope.Enabled() {
			scope.Span("core", "run/"+fn, int32(id), 0, th.Stats.Cycles,
				obs.I("instrs", th.Stats.Instrs),
				obs.I("probes", th.Stats.Probes),
				obs.I("handler_calls", th.Stats.HandlerCalls))
			scope.Advance(th.Stats.Cycles)
		}
	}
	return res, nil
}
