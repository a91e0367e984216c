package cfg

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// ladder builds a function of n blocks in which block i branches to
// i+1 and to the last block, so every list but the last block's
// predecessors is short and the edge count grows with n.
func ladder(n int) *ir.Func {
	f := ir.NewModule("m").NewFunc("f", 1)
	for i := 0; i < n; i++ {
		f.NewBlock(fmt.Sprintf("b%d", i))
	}
	for i, b := range f.Blocks[:n-1] {
		b.Term = ir.Terminator{Kind: ir.TermBr, Cond: 0, Then: f.Blocks[i+1], Else: f.Blocks[n-1], Val: ir.NoReg}
	}
	f.Blocks[n-1].Term = ir.Terminator{Kind: ir.TermRet, Cond: ir.NoReg, Val: ir.NoReg}
	return f
}

// TestNewAllocsIndependentOfSize gates the storage of the graph: the
// edge lists of all blocks share one counted array, so building the
// graph of 2000 blocks allocates as many objects as that of 20.
// Before, every block with an edge had lists of its own (2 to 4
// allocations each).
func TestNewAllocsIndependentOfSize(t *testing.T) {
	for _, n := range []int{20, 2000} {
		f := ladder(n)
		if allocs := testing.AllocsPerRun(10, func() { New(f) }); allocs > 8 {
			t.Errorf("New on %d blocks: %.0f allocations, want at most 8", n, allocs)
		}
	}
}

// TestListsDoNotShareCapacity checks that a consumer appending to one
// successor, predecessor or dominator-tree children list gets a copy
// and leaves the list stored next to it alone.
func TestListsDoNotShareCapacity(t *testing.T) {
	f := ladder(6)
	g := New(f)
	dom := Dominators(g)
	want := [][][]int{clone(g.Succs), clone(g.Preds), clone(dom.Children)}
	for _, lists := range [][][]int{g.Succs, g.Preds, dom.Children} {
		for i := range lists {
			if len(lists[i]) != cap(lists[i]) {
				t.Errorf("list %d: len %d, cap %d", i, len(lists[i]), cap(lists[i]))
			}
			_ = append(lists[i], -1)
		}
	}
	if got := [][][]int{g.Succs, g.Preds, dom.Children}; !reflect.DeepEqual(got, want) {
		t.Errorf("lists changed by appends:\n got %v\nwant %v", got, want)
	}
}

func clone(lists [][]int) [][]int {
	out := make([][]int, len(lists))
	for i, l := range lists {
		out[i] = append([]int(nil), l...)
	}
	return out
}
