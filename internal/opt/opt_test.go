package opt

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ci/fuzz"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func run(t *testing.T, m *ir.Module, fn string, args ...int64) int64 {
	t.Helper()
	machine := vm.New(m, nil, 1)
	machine.LimitInstrs = 80_000_000
	th := machine.NewThread(0)
	rv, err := th.Run(fn, args...)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, m)
	}
	return rv
}

func TestConstantFolding(t *testing.T) {
	m := ir.MustParse(`
func @f() {
entry:
  %a = mov 6
  %b = mov 7
  %c = mul %a, %b
  %d = add %c, 8
  ret %d
}
`)
	f := m.FuncByName("f")
	s := optimize(f, cfg.NewAnalyses(f))
	if s.Folded == 0 {
		t.Fatalf("nothing folded:\n%s", f)
	}
	if got := run(t, m, "f"); got != 50 {
		t.Errorf("result = %d, want 50", got)
	}
	// After folding + DCE the function should be tiny.
	if n := f.NumInstrs(); n > 3 {
		t.Errorf("instrs = %d after optimization, want <= 3\n%s", n, f)
	}
}

func TestConstantBranchFolding(t *testing.T) {
	m := ir.MustParse(`
func @f(%x) {
entry:
  %c = mov 1
  br %c, yes, no
yes:
  %r = add %x, 10
  ret %r
no:
  %r2 = add %x, 99
  ret %r2
}
`)
	f := m.FuncByName("f")
	optimize(f, cfg.NewAnalyses(f))
	if got := run(t, m, "f", 5); got != 15 {
		t.Fatalf("result = %d, want 15", got)
	}
	// The dead arm must be gone.
	if f.BlockByName("no") != nil {
		t.Errorf("unreachable arm survived:\n%s", f)
	}
}

func TestDeadCodeElimination(t *testing.T) {
	m := ir.MustParse(`
func @f(%x) {
entry:
  %dead1 = mul %x, 3
  %dead2 = add %dead1, 4
  %live = add %x, 1
  %t = rdcyc
  ret %live
}
`)
	f := m.FuncByName("f")
	s := optimize(f, cfg.NewAnalyses(f))
	if s.DeadRemoved < 3 {
		t.Errorf("DeadRemoved = %d, want >= 3 (two dead chains + rdcyc)\n%s", s.DeadRemoved, f)
	}
	if got := run(t, m, "f", 41); got != 42 {
		t.Errorf("result = %d", got)
	}
}

func TestDCEKeepsSideEffects(t *testing.T) {
	m := ir.MustParse(`
mem 16
extern @e cost 10
func @f(%x) {
entry:
  %v = mov 5
  store _, 3, %v
  %unusedload = load _, 3
  %unusedcall = call @g(%x)
  %unusedext = extcall @e(%x)
  %one = mov 1
  %unusedatomic = aadd _, 3, %one
  ret %x
}
func @g(%y) {
entry:
  %v = mov 9
  store _, 7, %v
  ret %y
}
`)
	f := m.FuncByName("f")
	optimize(f, cfg.NewAnalyses(f))
	counts := map[ir.Opcode]int{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			counts[b.Instrs[i].Op]++
		}
	}
	if counts[ir.OpStore] != 1 || counts[ir.OpLoad] != 1 ||
		counts[ir.OpCall] != 1 || counts[ir.OpExtCall] != 1 || counts[ir.OpAtomicAdd] != 1 {
		t.Errorf("side-effecting ops removed: %v\n%s", counts, f)
	}
	run(t, m, "f", 1)
	// The callee's store must have happened.
	machine := vm.New(m, nil, 1)
	th := machine.NewThread(0)
	if _, err := th.Run("f", 1); err != nil {
		t.Fatal(err)
	}
	if machine.Memory()[7] != 9 {
		t.Error("call side effect lost")
	}
}

func TestJumpThreadingAndMerging(t *testing.T) {
	m := ir.MustParse(`
func @f(%x) {
entry:
  jmp hop1
hop1:
  jmp hop2
hop2:
  %y = add %x, 1
  jmp tail
tail:
  %z = add %y, 1
  ret %z
}
`)
	f := m.FuncByName("f")
	s := optimize(f, cfg.NewAnalyses(f))
	if got := run(t, m, "f", 1); got != 3 {
		t.Fatalf("result = %d", got)
	}
	if len(f.Blocks) != 1 {
		t.Errorf("blocks = %d after threading+merging, want 1 (%+v)\n%s", len(f.Blocks), s, f)
	}
}

func TestNoFoldAcrossNonDominatingDef(t *testing.T) {
	// %v's single definition sits on one branch arm; the join must not
	// treat it as a constant (the other path reads the zero value).
	m := ir.MustParse(`
func @f(%x) {
entry:
  %c = lt %x, 5
  br %c, def, join
def:
  %v = mov 77
  jmp join
join:
  %r = add %v, 1
  ret %r
}
`)
	orig0 := run(t, m.Clone(), "f", 10) // skips def: %v == 0 -> 1
	orig1 := run(t, m.Clone(), "f", 1)  // takes def: 78
	f := m.FuncByName("f")
	optimize(f, cfg.NewAnalyses(f))
	if got := run(t, m, "f", 10); got != orig0 {
		t.Errorf("non-dominated path changed: %d, want %d\n%s", got, orig0, f)
	}
	if got := run(t, m, "f", 1); got != orig1 {
		t.Errorf("dominated path changed: %d, want %d", got, orig1)
	}
}

// The optimizer must preserve semantics on all workloads and shrink or
// hold the instruction count.
func TestOptimizePreservesWorkloads(t *testing.T) {
	for _, wl := range workloads.All {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			orig := wl.Build(1)
			want := run(t, orig, "main", 0)
			opt := wl.Build(1)
			Module(opt)
			if err := opt.Verify(); err != nil {
				t.Fatalf("optimized module invalid: %v", err)
			}
			if got := run(t, opt, "main", 0); got != want {
				t.Errorf("result changed: %d, want %d", got, want)
			}
		})
	}
}

// Differential fuzz: optimization preserves random-program semantics.
func TestOptimizeFuzz(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		src := fuzz.Generate(seed, fuzz.Options{WithExterns: seed%2 == 0})
		want := run(t, src.Clone(), "main", 1234)
		m := src.Clone()
		Module(m)
		if err := m.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := run(t, m, "main", 1234); got != want {
			t.Errorf("seed %d: result %d, want %d", seed, got, want)
		}
	}
}

func TestOptimizeIdempotentAtFixpoint(t *testing.T) {
	m := workloads.ByName("volrend").Build(1)
	Module(m)
	before := m.String()
	s := Module(m)
	if s.Folded+s.DeadRemoved+s.BlocksMerged+s.BlocksRemoved+s.JumpsThreaded != 0 {
		t.Errorf("second optimization pass still changed things: %+v", s)
	}
	if m.String() != before {
		t.Error("module text changed on second pass")
	}
}
