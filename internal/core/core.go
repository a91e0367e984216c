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
// the same path via CompileConfig. Beneath Program.Run, RunThread and
// Program.Calibrate (run.go) are the one run path: a measured run
// passes its inputs as a Setup.
package core

import (
	"fmt"
	"sync"

	"repro/internal/ci/analysis"
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
	// code is built on first use, so Compile pays nothing for it.
	codeOnce sync.Once
	code     *vm.Code
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

// Code is the program's module under the default cost model, compiled
// for the VM at most once, on the first compiled-tier run, and shared
// by every run of the program: Run, Calibrate and RunThread(p.Code(),
// ...) on any goroutine.
func (p *Program) Code() *vm.Code {
	p.codeOnce.Do(func() { p.code = vm.NewCode(p.Mod, nil) })
	return p.code
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
