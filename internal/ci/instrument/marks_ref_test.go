package instrument

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/fuzz"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// applyMarksRef is probe insertion as it was before it became one pass:
// marks grouped in a map, each block's marks sorted with
// sort.SliceStable, and every probe inserted on its own, regrowing
// Block.Instrs each time. It is kept as the reference the differential
// tests compare applyMarks against.
func applyMarksRef(f *ir.Func, marks []analysis.Mark, cycles bool) int {
	byBlock := make(map[*ir.Block][]analysis.Mark)
	for _, mk := range marks {
		byBlock[mk.Block] = append(byBlock[mk.Block], mk)
	}
	n := 0
	for b, ms := range byBlock {
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].Index > ms[j].Index })
		for _, mk := range ms {
			kind := ir.ProbeIR
			switch {
			case mk.Loop && cycles:
				kind = ir.ProbeCyclesLoop
			case mk.Loop:
				kind = ir.ProbeIRLoop
			case cycles:
				kind = ir.ProbeCycles
			}
			pi := ir.ProbeInfo{Kind: kind, Inc: mk.Inc, IndVar: mk.IndVar, Base: mk.Base}
			if !mk.Loop {
				pi.IndVar, pi.Base = ir.NoReg, ir.NoReg
			}
			in := ir.ProbeInstr(pi)
			idx := mk.Index
			if idx > len(b.Instrs) {
				idx = len(b.Instrs)
			}
			b.Instrs = append(b.Instrs, ir.Instr{})
			copy(b.Instrs[idx+1:], b.Instrs[idx:])
			b.Instrs[idx] = in
			n++
		}
	}
	return n
}

// instrumentEveryBlockRef is the Naive/CD insertion as it was before
// it took its probes and instructions from per-function slabs: one
// append and one ProbeInfo allocation per block.
func instrumentEveryBlockRef(m *ir.Module, opts Options, cycles, coredet bool) int {
	eps := opts.Analysis.AllowableError
	if eps <= 0 {
		eps = opts.Analysis.ProbeInterval
	}
	if eps <= 0 {
		eps = 1000
	}
	probes := 0
	for _, f := range m.Funcs {
		if f.NoInstrument {
			continue
		}
		f.Reindex()
		inc := make([]int64, len(f.Blocks))
		has := make([]bool, len(f.Blocks))
		for i, b := range f.Blocks {
			inc[i] = staticBlockCost(b)
			has[i] = true
		}
		if coredet {
			applyBalance(f, inc, has, eps)
		}
		kind := ir.ProbeIR
		if cycles {
			kind = ir.ProbeCycles
		}
		for i, b := range f.Blocks {
			if !has[i] {
				continue
			}
			pi := ir.ProbeInfo{Kind: kind, Inc: inc[i], IndVar: ir.NoReg, Base: ir.NoReg}
			b.Instrs = append(b.Instrs, ir.ProbeInstr(pi))
			probes++
		}
	}
	return probes
}

// diffCorpus is the 528 programs of the compile digest goldens (the
// Table-7 programs at scale 1 and fuzz seeds 1-500, the last 50 large)
// and fuzz seeds 501-2500.
func diffCorpus() []*ir.Module {
	var mods []*ir.Module
	for _, w := range workloads.All {
		mods = append(mods, w.Build(1))
	}
	for i := 0; i < 2500; i++ {
		o := fuzz.Options{WithExterns: i%2 == 0}
		if i >= 450 && i < 500 || i >= 500 && i%10 == 9 {
			o = fuzz.Options{MaxDepth: 4, MaxStmts: 10, MaxFuncs: 8, WithExterns: true}
		}
		mods = append(mods, fuzz.Generate(uint64(i+1), o))
	}
	return mods
}

// instrs copies every block's instruction list of f.
func instrs(f *ir.Func) [][]ir.Instr {
	out := make([][]ir.Instr, len(f.Blocks))
	for i, b := range f.Blocks {
		out[i] = slices.Clone(b.Instrs)
	}
	return out
}

func restore(f *ir.Func, saved [][]ir.Instr) {
	for i, b := range f.Blocks {
		b.Instrs = slices.Clone(saved[i])
	}
}

// sameInsertion applies marks to f with applyMarks and with
// applyMarksRef, from the same starting instructions, and reports
// whether both placed the same probes in the same order. f is left as
// it was, and applyMarks must not reorder marks.
func sameInsertion(t *testing.T, f *ir.Func, marks []analysis.Mark, cycles bool) bool {
	t.Helper()
	saved, order := instrs(f), slices.Clone(marks)
	n := applyMarks(f, marks, cycles)
	got := instrs(f)
	restore(f, saved)
	nref := applyMarksRef(f, marks, cycles)
	want := instrs(f)
	restore(f, saved)
	if !slices.Equal(marks, order) {
		t.Errorf("@%s: applyMarks reordered the marks", f.Name)
	}
	if n != nref || !reflect.DeepEqual(got, want) {
		t.Errorf("@%s (cycles %v): %d probes, reference %d; instructions equal: %v",
			f.Name, cycles, n, nref, reflect.DeepEqual(got, want))
		return false
	}
	return true
}

// TestApplyMarksOrderMatchesReference pins the layout rules on one
// block: ties at an index, marks at the end and marks past it.
func TestApplyMarksOrderMatchesReference(t *testing.T) {
	f := ir.MustParse(`
func @f(%a) {
entry:
  %b = add %a, 1
  %c = add %b, 2
  ret %c
}
`).FuncByName("f")
	b := f.Blocks[0]
	marks := []analysis.Mark{
		{Block: b, Index: 1, Inc: 1}, {Block: b, Index: 0, Inc: 2}, {Block: b, Index: 1, Inc: 3},
		{Block: b, Index: 5, Inc: 4}, {Block: b, Index: 2, Inc: 5}, {Block: b, Index: 3, Inc: 6},
		{Block: b, Index: 2, Inc: 7, Loop: true, IndVar: 0, Base: 1}, {Block: b, Index: 0, Inc: 8},
	}
	for _, cycles := range []bool{false, true} {
		sameInsertion(t, f, marks, cycles)
	}
}

// TestProbeInsertionMatchesReference compares one-pass probe insertion
// with the reference over the corpus: the CI marks of every function,
// with IR and cycle probes, and the Naive, Naive-Cycles and CD
// insertion of every module.
func TestProbeInsertionMatchesReference(t *testing.T) {
	marks := 0
	for mi, src := range diffCorpus() {
		m := src.Clone()
		res := analysis.Analyze(m, analysis.Options{ProbeInterval: 250})
		for _, f := range m.Funcs {
			fr := res.Funcs[f.Name]
			if fr == nil || len(fr.Marks) == 0 {
				continue
			}
			marks += len(fr.Marks)
			for _, cycles := range []bool{false, true} {
				if !sameInsertion(t, f, fr.Marks, cycles) {
					t.Fatalf("program %d", mi)
				}
			}
		}
		for _, d := range []Design{Naive, NaiveCycles, CD} {
			opts := Options{Design: d, Analysis: analysis.Options{ProbeInterval: 250}}
			got, want := src.Clone(), src.Clone()
			n := instrumentEveryBlock(got, opts, d == NaiveCycles, d == CD)
			nref := instrumentEveryBlockRef(want, opts, d == NaiveCycles, d == CD)
			for i, f := range got.Funcs {
				if n != nref || !reflect.DeepEqual(instrs(f), instrs(want.Funcs[i])) {
					t.Fatalf("program %d, %s @%s: %d probes, reference %d", mi, d, f.Name, n, nref)
				}
			}
		}
	}
	t.Logf("%d marks", marks)
}
