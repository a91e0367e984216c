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

// TestDeleteInstrsKeepsRegInfo checks that the register info DeleteInstrs
// updates in place equals one built afresh after the deletion: the
// deleted definitions' sites drop out, the sites after them in a block
// move down, and a register left with one definition reads as constant.
func TestDeleteInstrsKeepsRegInfo(t *testing.T) {
	const src = `
func @f(%p) {
entry:
  %a = mov 1
  %b = add %p, 2
  %a = mov 3
  %c = mov 4
  store %p, 0, %c
  br %p, left, right
left:
  %d = mul %b, %b
  %e = mov 5
  %c = add %c, 1
  jmp right
right:
  %f = sub %c, %a
  ret %f
}
`
	cases := []struct {
		name string
		dead func(in *ir.Instr) bool
		want int
	}{
		{"none", func(*ir.Instr) bool { return false }, 0},
		{"first instruction", func(in *ir.Instr) bool { return in.Op == ir.OpMov && in.Imm == 1 }, 1},
		{"one of two definitions", func(in *ir.Instr) bool { return in.Op == ir.OpMov && in.Imm == 3 }, 1},
		{"every mov", func(in *ir.Instr) bool { return in.Op == ir.OpMov }, 4},
		{"middle of a block", func(in *ir.Instr) bool { return in.Op == ir.OpMul || in.Op == ir.OpAdd && in.A == 0 }, 2},
		{"all but the store", func(in *ir.Instr) bool { return in.Op != ir.OpStore }, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := ir.MustParse(src).FuncByName("f")
			a := NewAnalyses(f)
			a.Graph()
			a.Regs()
			if n := a.DeleteInstrs(tc.dead); n != tc.want {
				t.Errorf("deleted %d instructions, want %d", n, tc.want)
			}
			if a.valid&validRegs == 0 {
				t.Fatal("DeleteInstrs dropped the register info")
			}
			kept := a.Regs()
			var fresh RegInfo
			fresh.build(f)
			if !slices.Equal(kept.first, fresh.first) || !slices.Equal(kept.sites, fresh.sites) {
				t.Errorf("kept register info %v %v, fresh %v %v", kept.first, kept.sites, fresh.first, fresh.sites)
			}
			for r := ir.Reg(0); int(r) < f.NumRegs; r++ {
				kv, kok := kept.ConstValue(r)
				fv, fok := fresh.ConstValue(r)
				if kv != fv || kok != fok {
					t.Errorf("ConstValue(%d): kept %d %v, fresh %d %v", r, kv, kok, fv, fok)
				}
			}
		})
	}
}
