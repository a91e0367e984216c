package sanitize_test

import (
	"errors"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ci/analysis"
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

// loopCloneSrc is the pinned loop-clone reproducer's program: a
// runtime-bounded counted loop that the §3.5 clone splits into a slow
// loop and a guarded ".fast" copy leaving through "head.fastprobe".
const loopCloneSrc = `
mem 128
func @main(%n) {
entry:
  %b = and %n, 255
  %i = mov 0
  jmp head
head:
  %c = lt %i, %b
  br %c, body, exit
body:
  %v = mul %i, 3
  %a = and %v, 127
  store %a, 0, %v
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`

// Each stage check has a pass double that breaks its invariant alone
// at one stage, and the checker names that stage, function and check.
func TestEachCheckCaughtAtExactStage(t *testing.T) {
	for _, tc := range []struct {
		check, src string
		hook       analysis.StageHook
		modHook    instrument.ModStageHook
		stage, fn  string
	}{
		// A block index left stale is malformed IR that the next
		// stage's Reindex would hide: only a verify after this very
		// stage sees it.
		{check: "verify", src: diamondSrc, stage: "canonicalize", fn: "main",
			hook: func(stage string, f *ir.Func) {
				if stage == "canonicalize" && f.Name == "main" {
					f.Blocks[1].Index = 99
				}
			}},
		// A second way from entry into test skips pre, which dominated
		// test and everything after it.
		{check: "dominance", src: diamondSrc, stage: "canonicalize", fn: "main",
			hook: func(stage string, f *ir.Func) {
				if stage == "canonicalize" && f.Name == "main" {
					entry := f.Blocks[0]
					entry.Term = ir.Terminator{Kind: ir.TermBr, Cond: 0, Then: entry.Term.Then,
						Else: f.BlockByName("test"), Val: ir.NoReg}
				}
			}},
		// The fast loop leaves straight to exit, around its
		// ".fastprobe" accounting block.
		{check: "clone-edges", src: loopCloneSrc, stage: "loop-clone", fn: "main",
			hook: func(stage string, f *ir.Func) {
				if stage == "loop-clone" && f.Name == "main" {
					f.BlockByName("head.fast").Term.Else = f.BlockByName("exit")
				}
			}},
		// Probe insertion that also changes an immediate.
		{check: "probe-only-diff", src: diamondSrc, stage: "probes",
			modHook: func(stage string, m *ir.Module) {
				if stage == "probes" {
					m.FuncByName("helper").Blocks[0].Instrs[0].Imm++
				}
			}},
	} {
		t.Run(tc.check, func(t *testing.T) {
			_, err := sanitize.CompileChecked(ir.MustParse(tc.src), core.Config{
				Design: instrument.CI, ProbeIntervalIR: 100, FuncStageHook: tc.hook, ModStageHook: tc.modHook,
			}, sanitize.Options{})
			var se *sanitize.StageError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StageError", err)
			}
			if se.Stage != tc.stage || se.Func != tc.fn || se.Check != tc.check {
				t.Errorf("caught at %q/%q check %q, want %s/%s %s (%v)",
					se.Stage, se.Func, se.Check, tc.stage, tc.fn, tc.check, se)
			}
			t.Log(se)
		})
	}
}
