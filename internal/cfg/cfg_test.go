package cfg

import (
	"testing"

	"repro/internal/ir"
)

// diamond builds:
//
//	entry -> a, b ; a -> join ; b -> join ; join -> ret
func diamond(t *testing.T) *ir.Func {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", 1)
	b := ir.NewBuilder(f)
	a := b.Block("a")
	bb := b.Block("b")
	join := b.Block("join")
	c := b.BinI(ir.OpCmpLt, 0, 10)
	b.Br(c, a, bb)
	b.SetBlock(a)
	b.Jmp(join)
	b.SetBlock(bb)
	b.Jmp(join)
	b.SetBlock(join)
	b.Ret(ir.NoReg)
	f.Reindex()
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return f
}

func TestGraphBasics(t *testing.T) {
	f := diamond(t)
	g := New(f)
	if g.N != 4 {
		t.Fatalf("N = %d", g.N)
	}
	if len(g.Succs(0)) != 2 || len(g.Preds(3)) != 2 {
		t.Errorf("succs(entry)=%v preds(join)=%v", g.Succs(0), g.Preds(3))
	}
	if g.RPO[0] != 0 {
		t.Errorf("RPO does not start at entry: %v", g.RPO)
	}
	if g.RPOIndex[3] != 3 {
		t.Errorf("join should be last in RPO: %v", g.RPO)
	}
	for i := 0; i < 4; i++ {
		if !g.Reachable(i) {
			t.Errorf("block %d unreachable", i)
		}
	}
}

func TestDominatorsDiamond(t *testing.T) {
	f := diamond(t)
	g := New(f)
	dom := Dominators(g)
	if dom.IDom[1] != 0 || dom.IDom[2] != 0 || dom.IDom[3] != 0 {
		t.Errorf("IDom = %v, want all dominated by entry", dom.IDom)
	}
	if !dom.Dominates(0, 3) || dom.Dominates(1, 3) || dom.Dominates(3, 1) {
		t.Error("Dominates answers wrong on diamond")
	}
	if !dom.Dominates(2, 2) {
		t.Error("Dominates must be reflexive")
	}
}

func loopFunc(t *testing.T, n int64) (*ir.Module, *ir.Func) {
	t.Helper()
	m := ir.NewModule("t")
	f := m.NewFunc("f", 1)
	b := ir.NewBuilder(f)
	sum := b.Mov(0)
	b.ConstLoop(n, func(i ir.Reg) {
		b.BinTo(sum, ir.OpAdd, sum, i)
	})
	b.Ret(sum)
	f.Reindex()
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m, f
}

func TestFindLoops(t *testing.T) {
	_, f := loopFunc(t, 100)
	g := New(f)
	dom := Dominators(g)
	lf := FindLoops(g, dom)
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(lf.Loops))
	}
	l := lf.Loops[0]
	head := f.BlockByName("loop.head")
	body := f.BlockByName("loop.body")
	if l.Header != head.Index {
		t.Errorf("header = %d, want %d", l.Header, head.Index)
	}
	if !l.Has(body.Index) || !l.Has(head.Index) {
		t.Error("loop body/header not in Blocks set")
	}
	if len(l.Blocks) != 2 {
		t.Errorf("loop blocks = %d, want 2", len(l.Blocks))
	}
	if len(l.Latches) != 1 || l.Latches[0] != body.Index {
		t.Errorf("latches = %v", l.Latches)
	}
	if l.Preheader != f.BlockByName("entry").Index {
		t.Errorf("preheader = %d", l.Preheader)
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
	if len(l.Exits) != 1 || l.Exits[0] != head.Index {
		t.Errorf("exits = %v", l.Exits)
	}
}

func TestNestedLoops(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("f", 0)
	b := ir.NewBuilder(f)
	acc := b.Mov(0)
	b.ConstLoop(10, func(i ir.Reg) {
		b.ConstLoop(20, func(j ir.Reg) {
			b.BinTo(acc, ir.OpAdd, acc, j)
		})
	})
	b.Ret(acc)
	f.Reindex()
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	if len(lf.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(lf.Loops))
	}
	var outer, inner *Loop
	for _, l := range lf.Loops {
		if l.Depth == 1 {
			outer = l
		} else {
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("missing outer or inner loop")
	}
	if inner.Parent != outer {
		t.Error("inner loop's parent is not the outer loop")
	}
	if len(outer.Children) != 1 || outer.Children[0] != inner {
		t.Error("outer loop's children wrong")
	}
	if inner.Depth != 2 {
		t.Errorf("inner depth = %d", inner.Depth)
	}
	// InnermostAt for an inner-loop block must be the inner loop.
	for _, bidx := range inner.Blocks {
		if lf.InnermostAt[bidx] != inner {
			t.Errorf("InnermostAt[%d] is not the inner loop", bidx)
		}
	}
	if !outer.Has(inner.Header) {
		t.Error("outer loop must contain the inner header")
	}
}

func TestLoopSimplifyAddsPreheaderAndLatch(t *testing.T) {
	// Build a loop whose header has two outside preds and two latches:
	//   entry -> head (cond) ; alt -> head ; bodyA -> head ; bodyB -> head
	src := `
func @f(%n) {
entry:
  %c0 = lt %n, 5
  br %c0, head, alt
alt:
  jmp head
head:
  %i = add %n, 1
  %c = lt %i, 100
  br %c, bodyA, exit
bodyA:
  %c2 = lt %i, 50
  br %c2, head, bodyB
bodyB:
  jmp head
exit:
  ret
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	if !LoopSimplify(NewAnalyses(f)) {
		t.Fatal("LoopSimplify reported no change")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("after simplify: %v\n%s", err, f)
	}
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(lf.Loops), f)
	}
	l := lf.Loops[0]
	if l.Preheader < 0 {
		t.Errorf("no preheader after simplify\n%s", f)
	}
	if len(l.Latches) != 1 {
		t.Errorf("latches = %d, want 1\n%s", len(l.Latches), f)
	}
	// Idempotent.
	if LoopSimplify(NewAnalyses(f)) {
		t.Error("LoopSimplify not idempotent")
	}
}

func TestLoopSimplifyEntryHeader(t *testing.T) {
	src := `
func @f(%n) {
head:
  %n = sub %n, 1
  %c = gt %n, 0
  br %c, head, exit
exit:
  ret %n
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	LoopSimplify(NewAnalyses(f))
	if err := f.Verify(); err != nil {
		t.Fatalf("after simplify: %v\n%s", err, f)
	}
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	if len(lf.Loops) != 1 {
		t.Fatalf("loops = %d\n%s", len(lf.Loops), f)
	}
	if lf.Loops[0].Preheader != 0 {
		t.Errorf("entry-header loop should get preheader as new entry\n%s", f)
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// entry branches to a and join; a branches to join and exit: the
	// edges entry->join and a->join are critical (join has 2 preds,
	// sources have 2 succs).
	src := `
func @f(%n) {
entry:
  %c = lt %n, 5
  br %c, a, join
a:
  %c2 = lt %n, 2
  br %c2, join, exit
join:
  jmp exit
exit:
  ret
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	if !SplitCriticalEdges(NewAnalyses(f)) {
		t.Fatal("no critical edges split")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("after split: %v\n%s", err, f)
	}
	g := New(f)
	for b := 0; b < g.N; b++ {
		if len(g.Succs(b)) < 2 {
			continue
		}
		for _, s := range g.Succs(b) {
			if len(g.Preds(int(s))) >= 2 {
				t.Errorf("critical edge %s -> %s remains", f.Blocks[b].Name, f.Blocks[s].Name)
			}
		}
	}
	if SplitCriticalEdges(NewAnalyses(f)) {
		t.Error("SplitCriticalEdges not idempotent")
	}
}

func TestAnalyzeInductionConstTrips(t *testing.T) {
	_, f := loopFunc(t, 100)
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	ri := NewAnalyses(f).Regs()
	iv := AnalyzeInduction(f, g, lf.Loops[0], ri)
	if !iv.Found {
		t.Fatalf("induction not found\n%s", f)
	}
	if iv.Step != 1 || !iv.InitIsConst || iv.InitConst != 0 {
		t.Errorf("induction = %+v", iv)
	}
	n, ok := iv.TripCount()
	if !ok || n != 100 {
		t.Errorf("TripCount = %d, %v; want 100, true", n, ok)
	}
}

func TestAnalyzeInductionParamBound(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %i = add %i, 2
  jmp head
exit:
  ret %i
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	ri := NewAnalyses(f).Regs()
	iv := AnalyzeInduction(f, g, lf.Loops[0], ri)
	if !iv.Found || !iv.BoundIsParam || iv.BoundParam != 0 || iv.Step != 2 {
		t.Fatalf("induction = %+v", iv)
	}
	if _, ok := iv.TripCount(); ok {
		t.Error("param-bounded loop must not report const trip count")
	}
	p, step, init, ok := iv.ParamTripCount()
	if !ok || p != 0 || step != 2 || init != 0 {
		t.Errorf("ParamTripCount = %d,%d,%d,%v", p, step, init, ok)
	}
}

func TestAnalyzeInductionRejectsMutatedBound(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %n = add %n, 1
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	ri := NewAnalyses(f).Regs()
	iv := AnalyzeInduction(f, g, lf.Loops[0], ri)
	if iv.Found && (iv.BoundIsParam || iv.BoundIsConst) {
		t.Errorf("mutated bound must not be const/param: %+v", iv)
	}
}

func TestAnalyzeInductionGtForm(t *testing.T) {
	src := `
func @f() {
entry:
  %i = mov 0
  %n = mov 50
  jmp head
head:
  %c = gt %n, %i
  br %c, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	ri := NewAnalyses(f).Regs()
	iv := AnalyzeInduction(f, g, lf.Loops[0], ri)
	if !iv.Found {
		t.Fatal("gt-form induction not recognized")
	}
	n, ok := iv.TripCount()
	if !ok || n != 50 {
		t.Errorf("TripCount = %d, %v; want 50", n, ok)
	}
}

func TestRegInfoConstAndParam(t *testing.T) {
	src := `
func @f(%p) {
entry:
  %c = mov 42
  %twice = add %c, %c
  %twice = add %twice, 1
  ret %twice
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	ri := NewAnalyses(f).Regs()
	if v, ok := ri.ConstValue(1); !ok || v != 42 {
		t.Errorf("ConstValue(%%c) = %d, %v", v, ok)
	}
	if _, ok := ri.ConstValue(2); ok {
		t.Error("multiply-defined register must not be const")
	}
	if p, ok := ri.ParamValue(0); !ok || p != 0 {
		t.Errorf("ParamValue = %d, %v", p, ok)
	}
	if _, ok := ri.ParamValue(1); ok {
		t.Error("non-param register must not be a param")
	}
}

func TestUnifyReturns(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %c = lt %n, 0
  br %c, neg, pos
neg:
  %a = mov -1
  ret %a
pos:
  %b = add %n, 1
  ret %b
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	if !UnifyReturns(f) {
		t.Fatal("UnifyReturns reported no change")
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("after unify: %v\n%s", err, f)
	}
	rets := 0
	for _, b := range f.Blocks {
		if b.Term.Kind == ir.TermRet {
			rets++
		}
	}
	if rets != 1 {
		t.Fatalf("rets = %d, want 1\n%s", rets, f)
	}
	// Idempotent.
	if UnifyReturns(f) {
		t.Error("UnifyReturns not idempotent")
	}
	// Semantics: via block-level evaluation through the VM is covered
	// elsewhere; structurally, both old ret blocks must now move their
	// value into the shared register.
	exit := f.BlockByName("ret.unified")
	if exit == nil || exit.Term.Val == ir.NoReg {
		t.Fatal("unified exit missing or void")
	}
}

func TestUnifyReturnsVoid(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %c = lt %n, 0
  br %c, a, b
a:
  ret
b:
  ret
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	UnifyReturns(f)
	if err := f.Verify(); err != nil {
		t.Fatalf("%v\n%s", err, f)
	}
	exit := f.BlockByName("ret.unified")
	if exit == nil || exit.Term.Val != ir.NoReg {
		t.Error("void rets should unify to a void ret")
	}
}

func TestSingleDefOutside(t *testing.T) {
	src := `
func @f(%p) {
entry:
  %k = mov 9
  %i = mov 0
  jmp head
head:
  %c = lt %i, %k
  br %c, body, exit
body:
  %inner = add %i, %k
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
	m := ir.MustParse(src)
	f := m.FuncByName("f")
	g := New(f)
	lf := FindLoops(g, Dominators(g))
	ri := NewAnalyses(f).Regs()
	l := lf.Loops[0]
	if !ri.SingleDefOutside(1, l) { // %k
		t.Error("%k defined once outside the loop")
	}
	if ri.SingleDefOutside(2, l) { // %i: defined inside too
		t.Error("%i is loop-modified")
	}
	if !ri.SingleDefOutside(0, l) { // parameter
		t.Error("unmodified parameter is stable")
	}
	if ri.SingleDefOutside(ir.NoReg, l) {
		t.Error("NoReg cannot be stable")
	}
}
