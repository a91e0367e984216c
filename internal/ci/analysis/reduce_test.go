package analysis

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// randomCFG builds a function of n blocks whose terminators are drawn
// at random, so that shapes no structured generator produces (shared
// joins, irreducible cycles, unreachable blocks, two-way branches to
// one target) reach the reducer. Most blocks jump or branch forward,
// as compiled code does, which lets the rules make long runs of merges.
func randomCFG(rng *rand.Rand, n int) *ir.Func {
	m := ir.NewModule("rnd")
	f := m.NewFunc("f", 1)
	for i := 0; i < n; i++ {
		f.NewBlock(fmt.Sprintf("b%d", i))
	}
	target := func(i int) *ir.Block {
		if i+1 < n && rng.Intn(4) > 0 {
			return f.Blocks[i+1+rng.Intn(min(3, n-i-1))]
		}
		return f.Blocks[rng.Intn(n)]
	}
	for i, b := range f.Blocks {
		switch k := rng.Intn(10); {
		case i == n-1 || k == 0:
			b.Term = ir.Terminator{Kind: ir.TermRet, Cond: ir.NoReg, Val: ir.NoReg}
		case k < 5:
			b.Term = ir.Terminator{Kind: ir.TermJmp, Then: target(i), Cond: ir.NoReg, Val: ir.NoReg}
		default:
			b.Term = ir.Terminator{Kind: ir.TermBr, Cond: 0, Then: target(i), Else: target(i), Val: ir.NoReg}
		}
	}
	return f
}

func dumpRegions(r *Reduction) string {
	var sb strings.Builder
	for _, n := range r.Regions {
		sb.WriteString(n.C.Dump())
		fmt.Fprintf(&sb, "  preds %d succs %d\n", len(n.Preds), len(n.Succs))
	}
	return sb.String()
}

// reduceBothWays reduces f with the reducer's resume rule and with the
// strategy it stands for, starting the scan over from the first node
// after every merge, and returns both results rendered.
func reduceBothWays(f *ir.Func) (resumed, restarted string, root bool) {
	opts := (&Options{ProbeInterval: 250}).withDefaults()
	cost := func(b *ir.Block) (Cost, bool) { return Const(int64(1 + b.Index%7)), false }
	f.Reindex()
	build := func() reducer {
		an := cfg.NewAnalyses(f)
		return newReducer(f, an.Graph(), an.Loops(), an.Regs(), opts, cost, new(scratch))
	}
	a := build()
	a.run()

	b := build()
	for changed := true; changed; {
		changed = false
		for _, n := range b.slots {
			if n != nil && (b.trySelfLoop(n) || b.tryChain(n) || b.tryDiamond(n) ||
				b.tryTriangle(n) || b.tryLoopDo(n) || b.tryLoopWhile(n)) {
				changed = true
				break
			}
		}
	}
	return dumpRegions(a.reduction()), dumpRegions(b.reduction()), a.reduction().Root() != nil
}

// TestResumeMatchesRestart checks that the resume rule applies the same
// rules in the same order as a scan restarted after every merge, that
// is, builds the same container trees: on shapes that need each part of
// the rule, then on random graphs.
func TestResumeMatchesRestart(t *testing.T) {
	shapes := []struct{ name, src string }{
		// The loop's merge leaves its header one predecessor, and the
		// chain from the block before it becomes possible: the scan must
		// go back to the merged node's predecessors.
		{"block before a loop header", `
func @f(%n) {
pre:
  jmp head
head:
  br %n, body, exit
body:
  jmp head
exit:
  ret
}`},
		// The loop's merge leaves the diamond's join two predecessors:
		// the scan must go back two steps, to the diamond's head. Only
		// code that skipped loop-simplify has this shape.
		{"diamond joining at a loop header", `
func @f(%n) {
top:
  br %n, left, right
left:
  jmp head
right:
  jmp head
head:
  br %n, body, exit
body:
  jmp head
exit:
  ret
}`},
		{"triangle joining at a self loop", `
func @f(%n) {
top:
  br %n, arm, spin
arm:
  jmp spin
spin:
  br %n, spin, exit
exit:
  ret
}`},
		{"diamond whose arm is a chain that forms later", `
func @f(%n) {
top:
  br %n, left, right
left:
  jmp join
right:
  jmp right2
join:
  ret
right2:
  jmp join
}`},
	}
	for _, tc := range shapes {
		f := ir.MustParse(tc.src).Funcs[0]
		got, want, root := reduceBothWays(f)
		if got != want {
			t.Errorf("%s: resume and restart reduce differently\n-- resume --\n%s-- restart --\n%s", tc.name, got, want)
		}
		if !root {
			t.Errorf("%s: not reduced to one container:\n%s", tc.name, got)
		}
	}

	rng := rand.New(rand.NewSource(1))
	reduced := 0
	for i := 0; i < 3000; i++ {
		f := randomCFG(rng, 2+rng.Intn(40))
		if i%2 == 0 {
			cfg.Canonicalize(f)
		}
		got, want, root := reduceBothWays(f)
		if got != want {
			t.Fatalf("graph %d: resume and restart reduce differently\n%s-- resume --\n%s-- restart --\n%s", i, f, got, want)
		}
		if root {
			reduced++
		}
	}
	// The comparison is only worth something if both outcomes occur.
	if reduced < 300 || reduced > 2700 {
		t.Errorf("%d of 3000 graphs reduce fully; the generator no longer exercises both outcomes", reduced)
	}
}
