package sanitize_test

import (
	"errors"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// diamondSrc is the miscompilation playground: a setup chain and a
// helper call feeding a diamond whose arms pick different return
// values.
const diamondSrc = `
func @main(%n) {
entry:
  %a = add %n, 5
  jmp pre
pre:
  %b = call @helper(%a)
  jmp test
test:
  %c = lt %n, 10
  br %c, small, big
small:
  %r = mov 1
  jmp out
big:
  %r = mov 2
  jmp out
out:
  ret %r
}
func @helper(%x) {
entry:
  %y = mul %x, 3
  ret %y
}
`

// firstBr returns f's first conditional branch block, if any.
func firstBr(f *ir.Func) *ir.Block {
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermBr {
			return b
		}
	}
	return nil
}

// An intentionally-miscompiling pass double that orphans a block must
// be caught by the stage checker at the exact stage it ran.
func TestMiscompileCaughtAtExactStage(t *testing.T) {
	src := ir.MustParse(diamondSrc)
	orphan := func(stage string, f *ir.Func) {
		if stage == "canonicalize" && f.Name == "main" {
			if b := firstBr(f); b != nil {
				b.Term.Else = b.Term.Then
			}
		}
	}
	_, err := sanitize.CompileChecked(src, core.Config{
		Design: instrument.CI, ProbeIntervalIR: 100, FuncStageHook: orphan,
	}, sanitize.Options{})
	var se *sanitize.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StageError", err)
	}
	if se.Stage != "canonicalize" || se.Func != "main" || se.Check != "reachability" {
		t.Errorf("caught at %q/%q check %q, want canonicalize/main reachability (%v)",
			se.Stage, se.Func, se.Check, se)
	}
}

// swapBr is the semantic miscompiler: structurally clean (every static
// invariant holds) but the branch goes the wrong way.
func swapBr(stage string, f *ir.Func) {
	if stage == "canonicalize" && f.Name == "main" {
		if b := firstBr(f); b != nil {
			b.Term.Then, b.Term.Else = b.Term.Else, b.Term.Then
		}
	}
}

// The differential oracle catches the semantically-miscompiling double
// the static checks cannot see, at the execution stage of the design it
// was compiled under.
func TestMiscompileDivergence(t *testing.T) {
	src := ir.MustParse(diamondSrc)
	cfg := core.Config{Design: instrument.CI, ProbeIntervalIR: 100, FuncStageHook: swapBr}
	eo := sanitize.ExecOptions{Args: []int64{3}, LimitInstrs: 1_000_000}

	_, err := sanitize.CompileChecked(src, cfg, sanitize.Options{Exec: true, ExecOptions: eo})
	var div *sanitize.Divergence
	if !errors.As(err, &div) {
		t.Fatalf("err = %v, want *Divergence", err)
	}
	if div.Stage != "exec" || div.Design != "CI" {
		t.Errorf("divergence = %+v, want stage exec design CI", div)
	}
}
