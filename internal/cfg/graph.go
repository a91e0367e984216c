// Package cfg provides control-flow-graph analyses over ir functions:
// predecessor/successor maps, reverse postorder, dominator and
// postdominator trees, natural-loop detection, the canonicalization
// transforms of §3.1 (critical-edge splitting, loop-simplify), and the
// induction-variable / trip-count analysis that stands in for LLVM's
// loop-simplify + scalar-evolution passes.
package cfg

import "repro/internal/ir"

// Graph caches the CFG structure of a function, keyed by Block.Index.
// It describes the function as it was when built: hold it in an
// Analyses, which drops it when a transform edits blocks or terminators.
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

// Analyses is the CFG analyses of one function: its graph, dominator
// tree, loop forest and register info, each computed on first use and
// kept until an edit invalidates it, the way LLVM's analysis manager
// serves a function pass. The invalidation rule is the transform's to
// keep:
//
//   - an edit of blocks or terminators (a block added, removed or
//     moved, an edge retargeted) calls CFGChanged, which drops all four;
//   - an edit of instructions alone calls InstrsChanged, which drops the
//     register info and keeps the graph, dominators and loops.
//
// A graph in the bundle implies fresh block indices: Graph reindexes
// the function before it builds one.
type Analyses struct {
	f     *ir.Func
	graph *Graph
	dom   *DomTree
	loops *LoopForest
	regs  *RegInfo
}

// NewAnalyses returns an empty bundle for f.
func NewAnalyses(f *ir.Func) *Analyses { return &Analyses{f: f} }

// Graph returns the function's CFG.
func (a *Analyses) Graph() *Graph {
	if a.graph == nil {
		a.f.Reindex()
		a.graph = New(a.f)
	}
	return a.graph
}

// Dom returns the dominator tree.
func (a *Analyses) Dom() *DomTree {
	if a.dom == nil {
		a.dom = Dominators(a.Graph())
	}
	return a.dom
}

// Loops returns the loop forest.
func (a *Analyses) Loops() *LoopForest {
	if a.loops == nil {
		a.loops = FindLoops(a.Graph(), a.Dom())
	}
	return a.loops
}

// Regs returns the register definition info.
func (a *Analyses) Regs() *RegInfo {
	if a.regs == nil {
		a.regs = AnalyzeRegs(a.f)
	}
	return a.regs
}

// CFGChanged drops every analysis: blocks or terminators were edited.
func (a *Analyses) CFGChanged() { *a = Analyses{f: a.f} }

// InstrsChanged drops the register info: instructions were edited, and
// blocks and terminators were not.
func (a *Analyses) InstrsChanged() { a.regs = nil }
