// Package cfg provides control-flow-graph analyses over ir functions:
// predecessor/successor maps, reverse postorder, dominator and
// postdominator trees, natural-loop detection, the canonicalization
// transforms of §3.1 (critical-edge splitting, loop-simplify), and the
// induction-variable / trip-count analysis that stands in for LLVM's
// loop-simplify + scalar-evolution passes.
package cfg

import "repro/internal/ir"

// Graph caches the CFG structure of a function, keyed by Block.Index.
// It must be rebuilt (cfg.New) after any transform that changes blocks
// or terminators.
type Graph struct {
	F *ir.Func
	// N is the number of blocks.
	N int
	// Succs and Preds map block index to successor/predecessor indices.
	Succs, Preds [][]int
	// RPO lists reachable block indices in reverse postorder from the
	// entry. RPOIndex gives each block's position, or -1 if the block
	// is unreachable.
	RPO      []int
	RPOIndex []int
}

// New builds the CFG for f. Block indices must be fresh (ir.Func.Reindex).
//
// All successor and predecessor lists share one array, counted before
// it is filled, so a call allocates the same few objects whatever the
// number of blocks. Each list's capacity ends at its length: a caller
// that appends to one gets a copy and cannot write into the next.
func New(f *ir.Func) *Graph {
	n := len(f.Blocks)
	lists := make([][]int, 2*n)
	order := make([]int, 2*n) // RPOIndex, then the array RPO is the tail of
	g := &Graph{F: f, N: n, Succs: lists[:n:n], Preds: lists[n:], RPOIndex: order[:n:n]}
	// Count the edges; RPOIndex holds the predecessor counts meanwhile.
	npreds, edges := g.RPOIndex, 0
	var buf [2]*ir.Block
	scratch := buf[:0]
	for _, b := range f.Blocks {
		scratch = b.Succs(scratch[:0])
		edges += len(scratch)
		for _, s := range scratch {
			npreds[s.Index]++
		}
	}
	// Carve an empty list of the right capacity for every block that
	// has edges, then append the edges in block order.
	store := make([]int, 2*edges)
	carve := func(n int) (list []int) {
		if n > 0 {
			list, store = store[:0:n], store[n:]
		}
		return list
	}
	for i, b := range f.Blocks {
		g.Succs[i] = carve(len(b.Succs(scratch[:0])))
		g.Preds[i] = carve(npreds[i])
	}
	for i, b := range f.Blocks {
		scratch = b.Succs(scratch[:0])
		for _, s := range scratch {
			g.Succs[i] = append(g.Succs[i], s.Index)
			g.Preds[s.Index] = append(g.Preds[s.Index], i)
		}
	}
	for i := range g.RPOIndex {
		g.RPOIndex[i] = -1
	}
	if n == 0 {
		return g
	}
	// Iterative postorder DFS from the entry. The k-th block to finish
	// is the k-th from the end of the reverse postorder.
	type frame struct {
		node int
		next int
	}
	visited := make([]bool, n)
	rpo, first := order[n:], n
	stack := append(make([]frame, 0, n), frame{node: 0})
	visited[0] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(g.Succs[fr.node]) {
			s := g.Succs[fr.node][fr.next]
			fr.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{node: s})
			}
			continue
		}
		first--
		rpo[first] = fr.node
		stack = stack[:len(stack)-1]
	}
	g.RPO = rpo[first:]
	for i, b := range g.RPO {
		g.RPOIndex[b] = i
	}
	return g
}

// Reachable reports whether block index b is reachable from the entry.
func (g *Graph) Reachable(b int) bool { return g.RPOIndex[b] >= 0 }
