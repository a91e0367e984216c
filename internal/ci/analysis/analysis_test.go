package analysis

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func analyzeSrc(t *testing.T, src string, opts Options) *ModuleResult {
	t.Helper()
	m := ir.MustParse(src)
	res := Analyze(m, opts)
	if err := m.Verify(); err != nil {
		t.Fatalf("module does not verify after analysis: %v\n%s", err, m)
	}
	return res
}

func TestSmallFunctionTransparent(t *testing.T) {
	res := analyzeSrc(t, `
func @tiny(%x) {
entry:
  %y = add %x, 1
  %z = mul %y, 2
  ret %z
}
`, Options{ProbeInterval: 100})
	fr := res.Funcs["tiny"]
	if fr.Instrumented {
		t.Error("tiny function should not be instrumented")
	}
	if !fr.Cost.IsConst() || fr.Cost.C != 3 {
		t.Errorf("cost = %v, want 3 (2 instrs + terminator)", fr.Cost)
	}
	if len(fr.Marks) != 0 {
		t.Errorf("marks = %d, want 0", len(fr.Marks))
	}
}

func TestConstLoopFoldedWhenSmall(t *testing.T) {
	res := analyzeSrc(t, `
func @f() {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, 10
  br %c, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`, Options{ProbeInterval: 1000})
	fr := res.Funcs["f"]
	if fr.Instrumented {
		t.Errorf("small const loop should fold; cost=%v marks=%d", fr.Cost, len(fr.Marks))
	}
	// Loop: header 3 (cmp+br) per iter... cost must be const and modest.
	if !fr.Cost.IsConst() {
		t.Fatalf("cost = %v, want const", fr.Cost)
	}
	if fr.Cost.C < 30 || fr.Cost.C > 80 {
		t.Errorf("cost = %d, implausible for 10 iterations", fr.Cost.C)
	}
}

func TestBigConstLoopTransformed(t *testing.T) {
	res := analyzeSrc(t, `
func @f() {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, 100000
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`, Options{ProbeInterval: 500})
	fr := res.Funcs["f"]
	if !fr.Instrumented {
		t.Fatal("big loop function must be instrumented")
	}
	if fr.LoopsTransformed != 1 {
		t.Errorf("LoopsTransformed = %d, want 1\n%s", fr.LoopsTransformed, fr.Fn)
	}
	if fr.LoopsCloned != 0 {
		t.Errorf("LoopsCloned = %d, want 0 (const trips)", fr.LoopsCloned)
	}
	var loopMarks int
	for _, mk := range fr.Marks {
		if mk.Loop {
			loopMarks++
			if mk.IndVar == ir.NoReg || mk.Base == ir.NoReg {
				t.Error("loop mark without registers")
			}
			if mk.Inc < 3 || mk.Inc > 10 {
				t.Errorf("per-iteration inc = %d, implausible", mk.Inc)
			}
		}
	}
	if loopMarks != 1 {
		t.Errorf("loop marks = %d, want 1", loopMarks)
	}
	// The transform must create outer/chunk/probe blocks.
	f := fr.Fn
	if f.BlockByName("head.outer") == nil || f.BlockByName("head.chunk") == nil ||
		f.BlockByName("head.chunkprobe") == nil {
		t.Errorf("transform blocks missing:\n%s", f)
	}
}

func TestParamLoopClonedAndTransformed(t *testing.T) {
	res := analyzeSrc(t, `
func @f(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`, Options{ProbeInterval: 500})
	fr := res.Funcs["f"]
	if !fr.Instrumented {
		t.Fatal("parametric loop function must be instrumented")
	}
	if fr.LoopsCloned != 1 || fr.LoopsTransformed != 1 {
		t.Errorf("cloned=%d transformed=%d, want 1/1\n%s", fr.LoopsCloned, fr.LoopsTransformed, fr.Fn)
	}
	// Cost should be affine in parameter 0.
	if fr.Cost.Kind != CostAffine || fr.Cost.Param != 0 {
		t.Errorf("cost = %v, want affine in p0", fr.Cost)
	}
	// Fast-path blocks must exist.
	found := false
	for _, b := range fr.Fn.Blocks {
		if strings.Contains(b.Name, ".fast") {
			found = true
		}
	}
	if !found {
		t.Errorf("no cloned fast-path blocks:\n%s", fr.Fn)
	}
}

func TestDisableTransformAndClone(t *testing.T) {
	src := `
func @f(%n) {
entry:
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
	res := analyzeSrc(t, src, Options{ProbeInterval: 500, DisableLoopTransform: true})
	fr := res.Funcs["f"]
	if fr.LoopsTransformed != 0 || fr.LoopsCloned != 0 {
		t.Errorf("transform/clone ran despite being disabled")
	}
	// Fallback: per-iteration probes inside the loop body.
	if len(fr.Marks) == 0 {
		t.Error("fallback produced no marks")
	}
	res = analyzeSrc(t, src, Options{ProbeInterval: 500, DisableLoopClone: true})
	fr = res.Funcs["f"]
	if fr.LoopsTransformed != 1 || fr.LoopsCloned != 0 {
		t.Errorf("transformed=%d cloned=%d, want 1/0", fr.LoopsTransformed, fr.LoopsCloned)
	}
}

func TestExtCallBarrier(t *testing.T) {
	res := analyzeSrc(t, `
extern @lib cost 700
func @f(%n) {
entry:
  %a = add %n, 1
  %b = extcall @lib(%a)
  %d = add %b, 1
  ret %d
}
`, Options{ProbeInterval: 50})
	fr := res.Funcs["f"]
	if !fr.Instrumented {
		t.Fatal("extcall function must be instrumented (cost exceeds interval)")
	}
	// A mark must sit right after the extcall (index 2 in entry).
	found := false
	for _, mk := range fr.Marks {
		if mk.Block.Name == "entry" && mk.Index == 2 && !mk.Loop {
			found = true
			// inc = add(1) + extcall(1+100) = 102
			if mk.Inc != 102 {
				t.Errorf("barrier inc = %d, want 102", mk.Inc)
			}
		}
	}
	if !found {
		t.Errorf("no barrier mark after extcall; marks = %+v", fr.Marks)
	}
}

func TestBranchArmsSummarizedByMean(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %c = lt %n, 5
  br %c, a, b
a:
  %x = add %n, 1
  %x = add %x, 1
  jmp join
b:
  %y = mul %n, 2
  %y = add %y, 3
  jmp join
join:
  ret %n
}
`
	res := analyzeSrc(t, src, Options{ProbeInterval: 100})
	fr := res.Funcs["f"]
	if fr.Instrumented {
		t.Error("similar-arm diamond should stay transparent")
	}
	if !fr.Cost.IsConst() {
		t.Fatalf("cost = %v", fr.Cost)
	}
}

func TestDissimilarArmsForceInstrumentation(t *testing.T) {
	// One arm is a big loop, the other trivial: means differ wildly.
	src := `
func @f(%n) {
entry:
  %c = lt %n, 5
  br %c, a, b
a:
  %i = mov 0
  jmp head
head:
  %hc = lt %i, 5000
  br %hc, body, adone
body:
  %i = add %i, 1
  jmp head
adone:
  jmp join
b:
  %y = mul %n, 2
  jmp join
join:
  ret %n
}
`
	res := analyzeSrc(t, src, Options{ProbeInterval: 200, AllowableError: 200})
	fr := res.Funcs["f"]
	if !fr.Instrumented {
		t.Fatal("dissimilar arms must instrument")
	}
	if len(fr.Marks) == 0 {
		t.Error("no marks emitted")
	}
}

func TestCallGraphOrderAndTransparentCallees(t *testing.T) {
	src := `
func @main(%n) {
entry:
  %a = call @leaf(%n)
  %b = call @mid(%a)
  ret %b
}
func @mid(%x) {
entry:
  %r = call @leaf(%x)
  %r2 = add %r, 1
  ret %r2
}
func @leaf(%x) {
entry:
  %y = mul %x, 3
  ret %y
}
`
	res := analyzeSrc(t, src, Options{ProbeInterval: 100})
	leaf := res.Funcs["leaf"]
	if leaf.Instrumented || !leaf.Cost.IsConst() || leaf.Cost.C != 2 {
		t.Errorf("leaf = inst=%v cost=%v", leaf.Instrumented, leaf.Cost)
	}
	mid := res.Funcs["mid"]
	if mid.Instrumented {
		t.Error("mid should be transparent")
	}
	// mid = call(1+2) + add(1) + ret(1) = 5
	if !mid.Cost.IsConst() || mid.Cost.C != 5 {
		t.Errorf("mid cost = %v, want 5", mid.Cost)
	}
	main := res.Funcs["main"]
	// main = call leaf (3) + call mid (6) + ret (1) = 10
	if !main.Cost.IsConst() || main.Cost.C != 10 {
		t.Errorf("main cost = %v, want 10", main.Cost)
	}
}

func TestRecursiveFunctionInstrumented(t *testing.T) {
	src := `
func @fib(%n) {
entry:
  %c = lt %n, 2
  br %c, base, rec
base:
  ret %n
rec:
  %a = sub %n, 1
  %r1 = call @fib(%a)
  %b = sub %n, 2
  %r2 = call @fib(%b)
  %s = add %r1, %r2
  ret %s
}
`
	res := analyzeSrc(t, src, Options{ProbeInterval: 100})
	fr := res.Funcs["fib"]
	if !fr.Instrumented {
		t.Error("recursive function must be instrumented")
	}
	if fr.Cost.Kind != CostUnknown {
		t.Errorf("recursive cost = %v, want unknown", fr.Cost)
	}
}

func TestNoInstrumentPragma(t *testing.T) {
	src := `
func @hot(%n) noinstrument {
entry:
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
	res := analyzeSrc(t, src, Options{ProbeInterval: 100})
	fr := res.Funcs["hot"]
	if fr.Instrumented || len(fr.Marks) != 0 {
		t.Error("noinstrument function must not receive probes")
	}
	if fr.LoopsTransformed != 0 {
		t.Error("noinstrument function must not be transformed")
	}
}

// §2.6 modular compilation: an imported function's cost summary prices
// its call sites, and a local definition of the same name wins over the
// import.
func TestImportedCostsUsed(t *testing.T) {
	const caller = `
import @libfn
func @caller(%n) {
entry:
  %r = call @libfn(%n)
  ret %r
}
`
	// A transparent 5000-instruction callee makes the caller long
	// enough to need probes of its own; without the import the call is
	// priced as a single instruction.
	imported := CostTable{"libfn": {Name: "libfn", Cost: Const(5000)}}
	for _, tc := range []struct {
		imported     CostTable
		instrumented bool
		cost         int64
		marks        int
	}{
		{imported, true, 5002, 2},
		{nil, false, 2, 0},
	} {
		res := Analyze(ir.MustParse(caller), Options{ProbeInterval: 100, Imported: tc.imported})
		fr := res.Funcs["caller"]
		if fr.Instrumented != tc.instrumented || fr.Cost != Const(tc.cost) || len(fr.Marks) != tc.marks {
			t.Errorf("imports %v: caller instrumented=%t cost=%+v marks=%d, want %t, Const(%d), %d",
				tc.imported, fr.Instrumented, fr.Cost, len(fr.Marks), tc.instrumented, tc.cost, tc.marks)
		}
	}

	// A local (trivial) definition shadows an instrumented, unknown-cost
	// import: callees are analysed before their callers, so the caller
	// is priced by the local result.
	local := caller + `
func @libfn(%x) {
entry:
  ret %x
}
`
	shadow := CostTable{"libfn": {Name: "libfn", Instrumented: true, Cost: Unknown()}}
	res := Analyze(ir.MustParse(local), Options{ProbeInterval: 100, Imported: shadow})
	want := Analyze(ir.MustParse(local), Options{ProbeInterval: 100})
	for _, name := range []string{"libfn", "caller"} {
		if got, w := res.Costs[name], want.Costs[name]; got != w {
			t.Errorf("%s: cost summary %+v with a shadowed import, want the local %+v", name, got, w)
		}
	}
}

func TestReductionShapes(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %c = lt %n, 5
  br %c, a, b
a:
  %x = add %n, 1
  jmp join
b:
  %y = mul %n, 2
  jmp join
join:
  %i = mov 0
  jmp head
head:
  %hc = lt %i, 10
  br %hc, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
	m := ir.MustParse(src)
	res := Analyze(m, Options{ProbeInterval: 10000})
	fr := res.Funcs["f"]
	root := fr.Reduction.Root()
	if root == nil {
		t.Fatalf("CFG did not fully reduce:\n%s", fr.Fn)
	}
	dump := root.Dump()
	if !strings.Contains(dump, "diamond") {
		t.Errorf("reduction lacks diamond:\n%s", dump)
	}
	if !strings.Contains(dump, "loop3b") {
		t.Errorf("reduction lacks while-loop:\n%s", dump)
	}
	if !strings.Contains(dump, "chain") {
		t.Errorf("reduction lacks chain:\n%s", dump)
	}
	if root.NumBlocks() != len(fr.Fn.Blocks) {
		t.Errorf("root covers %d blocks, function has %d", root.NumBlocks(), len(fr.Fn.Blocks))
	}
}

func TestTriangleReduction(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %c = lt %n, 5
  br %c, arm, join
arm:
  %x = add %n, 1
  jmp join
join:
  ret %n
}
`
	m := ir.MustParse(src)
	res := Analyze(m, Options{ProbeInterval: 10000})
	root := res.Funcs["f"].Reduction.Root()
	if root == nil {
		t.Fatal("triangle did not reduce")
	}
	if !strings.Contains(root.Dump(), "triangle") {
		t.Errorf("reduction lacks triangle:\n%s", root.Dump())
	}
}

func TestSelfLoopReduction(t *testing.T) {
	src := `
func @f(%n) {
entry:
  %i = mov 0
  jmp loop
loop:
  %i = add %i, 1
  %c = lt %i, %n
  br %c, loop, exit
exit:
  ret %i
}
`
	m := ir.MustParse(src)
	res := Analyze(m, Options{ProbeInterval: 10000})
	fr := res.Funcs["f"]
	root := fr.Reduction.Root()
	if root == nil {
		t.Fatalf("self-loop did not reduce:\n%s", fr.Fn)
	}
	if !strings.Contains(root.Dump(), "loop3c") {
		t.Errorf("reduction lacks self loop:\n%s", root.Dump())
	}
}

func TestIrreducibleCFGUnmatched(t *testing.T) {
	// Classic irreducible shape: two blocks jumping into each other's
	// loop from the entry.
	src := `
func @f(%n) {
entry:
  %c = lt %n, 5
  br %c, x, y
x:
  %a = add %n, 1
  %cx = lt %a, 100
  br %cx, y, exit
y:
  %b = add %n, 2
  %cy = lt %b, 100
  br %cy, x, exit
exit:
  ret %n
}
`
	m := ir.MustParse(src)
	res := Analyze(m, Options{ProbeInterval: 100})
	fr := res.Funcs["f"]
	if fr.Reduction.Root() != nil {
		t.Skip("CFG reduced after canonicalization; irreducibility not preserved")
	}
	if !fr.Instrumented {
		t.Error("unreduced function must be instrumented")
	}
	if len(fr.Marks) == 0 {
		t.Error("§3.6 produced no marks for unmatched regions")
	}
}

func TestMarksHaveValidPositions(t *testing.T) {
	srcs := []string{
		`
func @f(%n) {
entry:
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
`, `
extern @io cost 900
func @g(%n) {
entry:
  %a = extcall @io(%n)
  %b = extcall @io(%a)
  ret %b
}
`,
	}
	for _, src := range srcs {
		m := ir.MustParse(src)
		res := Analyze(m, Options{ProbeInterval: 300})
		for name, fr := range res.Funcs {
			inFunc := make(map[*ir.Block]bool)
			for _, b := range fr.Fn.Blocks {
				inFunc[b] = true
			}
			for _, mk := range fr.Marks {
				if !inFunc[mk.Block] {
					t.Errorf("%s: mark references foreign block %q", name, mk.Block.Name)
				}
				if mk.Index < 0 || mk.Index > len(mk.Block.Instrs) {
					t.Errorf("%s: mark index %d out of range [0,%d]", name, mk.Index, len(mk.Block.Instrs))
				}
				if mk.Inc < 0 {
					t.Errorf("%s: negative inc %d", name, mk.Inc)
				}
			}
		}
	}
}

// TestFigure1InitOpacityReduction reconstructs the paper's Figure 1
// walkthrough: Init_Opacity() from volrend — several assignments and
// five unnested loops — must reduce to one chain container whose
// children are the loop containers (c1, c2, ...) interleaved with the
// basic blocks between them, exactly as the paper's hierarchy shows.
func TestFigure1InitOpacityReduction(t *testing.T) {
	src := `
func @Init_Opacity() {
entry:
  %a = mov 1
  %b = mov 2
  %i1 = mov 0
  jmp for.body12.head
for.body12.head:
  %c1 = lt %i1, 256
  br %c1, for.body12, for.end16
for.body12:
  %a = add %a, %i1
  %i1 = add %i1, 1
  jmp for.body12.head
for.end16:
  %i2 = mov 0
  jmp for.body29.head
for.body29.head:
  %c2 = lt %i2, 128
  br %c2, for.body29, for.end33
for.body29:
  %b = add %b, %i2
  %i2 = add %i2, 1
  jmp for.body29.head
for.end33:
  %i3 = mov 0
  jmp l3.head
l3.head:
  %c3 = lt %i3, 64
  br %c3, l3.body, l3.end
l3.body:
  %a = xor %a, %i3
  %i3 = add %i3, 1
  jmp l3.head
l3.end:
  %i4 = mov 0
  jmp l4.head
l4.head:
  %c4 = lt %i4, 64
  br %c4, l4.body, l4.end
l4.body:
  %b = xor %b, %i4
  %i4 = add %i4, 1
  jmp l4.head
l4.end:
  %i5 = mov 0
  jmp l5.head
l5.head:
  %c5 = lt %i5, 32
  br %c5, l5.body, l5.end
l5.body:
  %a = or %a, %i5
  %i5 = add %i5, 1
  jmp l5.head
l5.end:
  %r = add %a, %b
  ret %r
}
`
	m := ir.MustParse(src)
	res := Analyze(m, Options{ProbeInterval: 100000})
	fr := res.Funcs["Init_Opacity"]
	root := fr.Reduction.Root()
	if root == nil {
		t.Fatalf("Init_Opacity did not reduce to a single container:\n%s", fr.Fn)
	}
	if root.Kind != CChain {
		t.Fatalf("root = %v, want chain (the paper's outer container)", root.Kind)
	}
	loops := 0
	for _, ch := range root.Children {
		if ch.IsLoop() {
			loops++
			if !ch.Loop.Trips.IsConst() {
				t.Errorf("loop %s has non-constant trips %v; backedge counts were known", ch.Entry.Name, ch.Loop.Trips)
			}
		}
	}
	if loops != 5 {
		t.Errorf("chain contains %d loop containers, want 5 (the five unnested loops)\n%s",
			loops, root.Dump())
	}
	// With all trip counts known and a large probe interval, the whole
	// function folds: cost constant, no instrumentation needed —
	// "eliminating such instrumentations can significantly reduce
	// runtime overhead."
	if !fr.Cost.IsConst() {
		t.Errorf("function cost = %v, want constant", fr.Cost)
	}
	if fr.Instrumented || len(fr.Marks) != 0 {
		t.Errorf("small-cost function should carry no probes (marks=%d)", len(fr.Marks))
	}
}

// A very long basic block must receive mid-block probes so spacing
// holds even without branches.
func TestHugeBlockGetsMidBlockProbes(t *testing.T) {
	m := ir.NewModule("t")
	f := m.NewFunc("big", 0)
	b := ir.NewBuilder(f)
	x := b.Mov(1)
	for i := 0; i < 900; i++ {
		x = b.BinI(ir.OpAdd, x, 1)
	}
	b.Ret(x)
	f.Reindex()
	res := Analyze(m, Options{ProbeInterval: 200})
	fr := res.Funcs["big"]
	if !fr.Instrumented {
		t.Fatal("900-IR block should be instrumented")
	}
	inBlock := 0
	for _, mk := range fr.Marks {
		if mk.Block == f.Blocks[0] && mk.Index > 0 && mk.Index < 901 {
			inBlock++
		}
	}
	if inBlock < 3 {
		t.Errorf("mid-block probes = %d, want >= 3 for 900 IR at interval 200", inBlock)
	}
}
