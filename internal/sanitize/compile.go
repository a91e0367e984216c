package sanitize

import (
	"repro/internal/core"
	"repro/internal/ir"
)

// Options configures CompileChecked.
type Options struct {
	// Exec additionally runs the differential execution oracle on the
	// compiled program.
	Exec bool
	// ExecOptions parameterizes the oracle (zero value = defaults).
	ExecOptions ExecOptions
}

// CompileChecked compiles src under full translation validation: the
// stage checker, which verifies the IR before it checks anything else,
// is wired into every pipeline hook (chained after any hooks already
// present in cfg, so test doubles that corrupt a stage run before the
// checks), and — with opts.Exec — the differential execution oracle
// runs on the result.
// The returned error is a *StageError or *Divergence when validation
// fails, and wraps ErrInconclusive when the stage checks passed but the
// oracle ran out of its step budget: a verdict the caller reports, not
// a pass.
func CompileChecked(src *ir.Module, cfg core.Config, opts Options) (*core.Program, error) {
	ck := NewChecker()
	userF, userM := cfg.FuncStageHook, cfg.ModStageHook
	cfg.FuncStageHook = func(stage string, f *ir.Func) {
		if userF != nil {
			userF(stage, f)
		}
		ck.CheckFunc(stage, f)
	}
	cfg.ModStageHook = func(stage string, m *ir.Module) {
		if userM != nil {
			userM(stage, m)
		}
		ck.CheckModule(stage, m)
	}
	prog, err := core.CompileConfig(src, cfg)
	// Stage findings take precedence: they name the exact stage, where
	// the final-verify error from the pipeline only says "broken".
	if serr := ck.Err(); serr != nil {
		return nil, serr
	}
	if err != nil {
		return nil, err
	}
	if opts.Exec {
		if err := DiffExec(src, prog.Mod, cfg.Design.String(), opts.ExecOptions); err != nil {
			return nil, err
		}
	}
	return prog, nil
}
