package cfg

import (
	"fmt"
	"reflect"
	"slices"
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
// offsets, reverse postorder and edge lists of all blocks share one
// counted int32 array, so building the graph of 2000 blocks allocates
// as many objects as that of 20: the Graph, the array and the visit
// stack. Before the lists moved into that array each block had list
// headers of its own and a build took 6 objects; before they shared one
// array, every block with an edge had lists of its own (2 to 4
// allocations each).
func TestNewAllocsIndependentOfSize(t *testing.T) {
	for _, n := range []int{20, 2000} {
		f := ladder(n)
		if allocs := testing.AllocsPerRun(10, func() { New(f) }); allocs > 3 {
			t.Errorf("New on %d blocks: %.0f allocations, want at most 3", n, allocs)
		}
	}
}

// TestAnalysesRebuildInPlace checks that a bundle builds the graph,
// dominators and register info into the memory of the ones it dropped,
// for its own function after an edit and for the next function after
// Reset, and that what it builds there matches a fresh build.
func TestAnalysesRebuildInPlace(t *testing.T) {
	big, small := ladder(40), ladder(12)
	a := NewAnalyses(big)
	a.Graph()
	a.Dom()
	a.Regs()
	if allocs := testing.AllocsPerRun(10, func() {
		a.CFGChanged()
		a.Graph()
		a.Dom()
		a.Regs()
	}); allocs != 0 {
		t.Errorf("rebuild after CFGChanged: %.0f allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		a.Reset(small)
		a.Graph()
		a.Dom()
		a.Regs()
		a.Reset(big)
	}); allocs != 0 {
		t.Errorf("Reset to a smaller function: %.0f allocations, want 0", allocs)
	}
	a.Reset(small)
	g, dom := a.Graph(), a.Dom()
	fg := New(small)
	fdom := Dominators(fg)
	for b := 0; b < fg.N; b++ {
		if !slices.Equal(g.Succs(b), fg.Succs(b)) || !slices.Equal(g.Preds(b), fg.Preds(b)) {
			t.Errorf("block %d: reused graph has succs %v preds %v, fresh %v %v", b, g.Succs(b), g.Preds(b), fg.Succs(b), fg.Preds(b))
		}
	}
	if !slices.Equal(g.RPO, fg.RPO) || !slices.Equal(g.RPOIndex, fg.RPOIndex) || !slices.Equal(dom.IDom, fdom.IDom) {
		t.Errorf("reused graph or tree differs from a fresh build")
	}
}

// TestListsDoNotShareCapacity checks that a consumer appending to one
// successor or predecessor list gets a copy and leaves the list stored
// next to it alone.
func TestListsDoNotShareCapacity(t *testing.T) {
	f := ladder(6)
	g := New(f)
	lists := func() (out [][]int32) {
		for b := 0; b < g.N; b++ {
			out = append(out, slices.Clone(g.Succs(b)), slices.Clone(g.Preds(b)))
		}
		return out
	}
	want := lists()
	for b := 0; b < g.N; b++ {
		for _, l := range [][]int32{g.Succs(b), g.Preds(b)} {
			if len(l) != cap(l) {
				t.Errorf("block %d: list len %d, cap %d", b, len(l), cap(l))
			}
			_ = append(l, -1)
		}
	}
	if got := lists(); !reflect.DeepEqual(got, want) {
		t.Errorf("lists changed by appends:\n got %v\nwant %v", got, want)
	}
}
