package interleave

import (
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// ShrinkRace reduces src to a minimal module whose verifier report
// still fails (an unclassified race or a non-commutative schedule)
// under opts — the Shrink stage. It reuses the sanitize ddmin reducer;
// candidates that drop the entry or handler function, fail to compile,
// or come back clean are rejected automatically, so the reduction
// converges on the smallest module that still exhibits the hazard.
// Callers typically tighten opts for speed (ContextBound 1, small
// MaxSchedules) before shrinking, then pin the result with
// sanitize.SaveRepro under testdata/repro/.
func ShrinkRace(src *ir.Module, eng *engine.Engine, opts Options) *ir.Module {
	pred := func(m *ir.Module) bool {
		o := opts.withDefaults()
		if m.FuncByName(handlerFunc) == nil || m.FuncByName(o.Entry) == nil {
			return false
		}
		rep, err := VerifyHandlers(m, eng, opts)
		return err == nil && rep.Err() != nil
	}
	return sanitize.Reduce(src, opts.withDefaults().Entry, pred)
}
