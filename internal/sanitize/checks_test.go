package sanitize_test

import (
	"errors"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// A stage that orphans two blocks breaks reachability twice; the error
// names the first orphan in block order, the same one on every run.
func TestStageErrorIsDeterministic(t *testing.T) {
	src := ir.MustParse(diamondSrc)
	orphanArms := func(stage string, f *ir.Func) {
		if stage == "canonicalize" && f.Name == "main" {
			if b := firstBr(f); b != nil {
				out := f.BlockByName("out")
				b.Term = ir.Terminator{Kind: ir.TermJmp, Then: out, Cond: ir.NoReg, Val: ir.NoReg}
			}
		}
	}
	first := ""
	for run := 0; run < 50; run++ {
		_, err := sanitize.CompileChecked(src, core.Config{
			Design: instrument.CI, ProbeIntervalIR: 100, FuncStageHook: orphanArms,
		}, sanitize.Options{})
		var se *sanitize.StageError
		if !errors.As(err, &se) || se.Check != "reachability" {
			t.Fatalf("run %d: err = %v, want a reachability *StageError", run, err)
		}
		if run == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("run %d reported %q, run 0 %q", run, err, first)
		}
	}
	t.Log(first)
}

// twoEntrySrc has one loop, head and body, entered at head only.
const twoEntrySrc = `
func @main(%n) {
entry:
  %c = lt %n, 10
  br %c, head, exit
head:
  %n = sub %n, 1
  jmp body
body:
  %d = lt %n, 0
  br %d, exit, head
exit:
  ret %n
}
`

// enterAtBody makes entry's exit edge a second way into the loop.
func enterAtBody(f *ir.Func) {
	f.Blocks[0].Term.Else = f.BlockByName("body")
}

// A stage that adds a second entry to a loop is reported as irreducible
// flow. The check it replaced, every natural loop's body dominated by
// its header, cannot see it: a loop with two entries has no header that
// dominates its other block, so it is not a natural loop at all.
func TestIrreducibleStageReported(t *testing.T) {
	m := ir.MustParse(twoEntrySrc)
	f := m.FuncByName("main")
	c := sanitize.NewChecker()
	c.CheckModule("input", m)
	enterAtBody(f)
	c.CheckFunc("loop-transform", f)
	var se *sanitize.StageError
	if err := c.Err(); !errors.As(err, &se) || se.Check != "irreducible" || se.Stage != "loop-transform" {
		t.Fatalf("err = %v, want an irreducible *StageError at loop-transform", err)
	}
	t.Log(se)

	g := cfg.New(f)
	dt := cfg.Dominators(g)
	for _, l := range cfg.FindLoops(g, dt).Loops {
		for _, b := range l.Blocks {
			if !dt.Dominates(l.Header, b) {
				t.Errorf("the natural-loop check would have fired at block %d", b)
			}
		}
	}
}

// Irreducible flow the input already had is not a stage's doing.
func TestIrreducibleInputNotReported(t *testing.T) {
	m := ir.MustParse(twoEntrySrc)
	f := m.FuncByName("main")
	enterAtBody(f)
	c := sanitize.NewChecker()
	c.CheckModule("input", m)
	c.CheckFunc("loop-transform", f)
	if err := c.Err(); err != nil {
		t.Fatalf("err = %v, want none", err)
	}
}
