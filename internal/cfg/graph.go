// Package cfg provides control-flow-graph analyses over ir functions:
// predecessor/successor lists, reverse postorder, dominator trees,
// natural-loop detection, the canonicalization transforms of §3.1
// (critical-edge splitting, loop-simplify), and the induction-variable
// / trip-count analysis that stands in for LLVM's loop-simplify +
// scalar-evolution passes.
package cfg

import "repro/internal/ir"

// Graph caches the CFG structure of a function, keyed by Block.Index.
// It describes the function as it was when built: hold it in an
// Analyses, which drops it when a transform edits blocks or terminators.
type Graph struct {
	F *ir.Func
	// N is the number of blocks.
	N int
	// RPO lists reachable block indices in reverse postorder from the
	// entry. RPOIndex gives each block's position, or -1 if the block
	// is unreachable.
	RPO      []int32
	RPOIndex []int32
	// csr is the whole graph in one array: 2N+1 offsets into csr, then
	// RPOIndex, then the N entries the tail RPO is cut from, then the
	// edge lists. Block b's successors are csr[csr[2b]:csr[2b+1]] and
	// its predecessors csr[csr[2b+1]:csr[2b+2]].
	csr []int32
	// stack is the depth-first visit's, kept for the next build.
	stack []visit
}

// visit is a block on the depth-first stack and the index of the next
// successor it tries.
type visit struct{ node, next int32 }

// Succs returns the successor indices of block b, in terminator order
// (a branch with both arms on one block lists it twice). The list's
// capacity ends at its length.
func (g *Graph) Succs(b int) []int32 {
	lo, hi := g.csr[2*b], g.csr[2*b+1]
	return g.csr[lo:hi:hi]
}

// Preds returns the predecessor indices of block b in block order, one
// entry per edge. The list's capacity ends at its length.
func (g *Graph) Preds(b int) []int32 {
	lo, hi := g.csr[2*b+1], g.csr[2*b+2]
	return g.csr[lo:hi:hi]
}

// New builds the CFG for f. Block indices must be fresh (ir.Func.Reindex).
func New(f *ir.Func) *Graph {
	g := new(Graph)
	g.build(f)
	return g
}

// build makes g the CFG of f, in g's own arrays when they are large
// enough. Edges are counted before the one array is filled, so a build
// allocates at most that array and the visit stack whatever the number
// of blocks.
func (g *Graph) build(f *ir.Func) {
	n := len(f.Blocks)
	var buf [2]*ir.Block
	scratch := buf[:0]
	edges := 0
	for _, b := range f.Blocks {
		edges += len(b.Succs(scratch[:0]))
	}
	size := 4*n + 1 + 2*edges
	if cap(g.csr) < size {
		g.csr = make([]int32, size)
	}
	csr := g.csr[:size]
	*g = Graph{F: f, N: n, RPOIndex: csr[2*n+1 : 3*n+1 : 3*n+1], csr: csr, stack: g.stack}
	// Count the predecessors; RPOIndex holds the counts, then each
	// predecessor list's fill cursor.
	npreds := g.RPOIndex
	clear(npreds)
	for _, b := range f.Blocks {
		for _, s := range b.Succs(scratch[:0]) {
			npreds[s.Index]++
		}
	}
	pos := int32(4*n + 1)
	for i, b := range f.Blocks {
		csr[2*i] = pos
		pos += int32(len(b.Succs(scratch[:0])))
		csr[2*i+1] = pos
		pos, npreds[i] = pos+npreds[i], pos
	}
	csr[2*n] = pos
	for i, b := range f.Blocks {
		at := csr[2*i]
		for _, s := range b.Succs(scratch[:0]) {
			csr[at] = int32(s.Index)
			at++
			csr[npreds[s.Index]] = int32(i)
			npreds[s.Index]++
		}
	}
	for i := range g.RPOIndex {
		g.RPOIndex[i] = -1
	}
	if n == 0 {
		return
	}
	// Iterative postorder DFS from the entry. The k-th block to finish
	// is the k-th from the end of the reverse postorder; RPOIndex marks
	// the blocks pushed meanwhile.
	rpo, first := csr[3*n+1:4*n+1:4*n+1], n
	if cap(g.stack) < n {
		g.stack = make([]visit, 0, n)
	}
	stack := append(g.stack[:0], visit{node: 0})
	g.RPOIndex[0] = 0
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if succs := g.Succs(int(fr.node)); int(fr.next) < len(succs) {
			s := succs[fr.next]
			fr.next++
			if g.RPOIndex[s] < 0 {
				g.RPOIndex[s] = 0
				stack = append(stack, visit{node: s})
			}
			continue
		}
		first--
		rpo[first] = fr.node
		stack = stack[:len(stack)-1]
	}
	g.stack = stack
	g.RPO = rpo[first:]
	for i, b := range g.RPO {
		g.RPOIndex[b] = int32(i)
	}
}

// grown returns s resliced to length n, in a new array when s has
// less capacity. The contents are not defined.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
//     moved, an edge retargeted) calls CFGChanged, which drops all four,
//     and so does one that adds or moves instructions;
//   - instructions are deleted through DeleteInstrs, which keeps the
//     graph, dominators and loops and the register info current;
//   - an instruction rewritten in place that defines the register it
//     defined before (an operand or an opcode folded) needs no call: the
//     register info records where each register is defined and reads
//     the instructions themselves.
//
// A graph in the bundle implies fresh block indices: Graph reindexes
// the function before it builds one.
//
// The bundle builds each analysis into the memory of the one it
// dropped, and Reset moves it on to another function the same way, so
// one bundle serves a whole module at the cost of its largest function.
// An analysis it returned is therefore valid only until the next
// CFGChanged or Reset. The loops
// of a forest are the exception: each build allocates them anew, so a
// *Loop stays valid for as long as it is held.
type Analyses struct {
	f     *ir.Func
	valid uint8 // which of the analyses below describe f
	graph Graph
	dom   DomTree
	loops LoopForest
	regs  RegInfo
}

// The bits of Analyses.valid.
const (
	validGraph uint8 = 1 << iota
	validDom
	validLoops
	validRegs
)

// NewAnalyses returns an empty bundle for f.
func NewAnalyses(f *ir.Func) *Analyses { return &Analyses{f: f} }

// Reset makes a the empty bundle of f, keeping its memory for the
// analyses it builds next.
func (a *Analyses) Reset(f *ir.Func) { a.f, a.valid = f, 0 }

// Graph returns the function's CFG.
func (a *Analyses) Graph() *Graph {
	if a.valid&validGraph == 0 {
		a.f.Reindex()
		a.graph.build(a.f)
		a.valid |= validGraph
	}
	return &a.graph
}

// Dom returns the dominator tree.
func (a *Analyses) Dom() *DomTree {
	if a.valid&validDom == 0 {
		a.dom.build(a.Graph())
		a.valid |= validDom
	}
	return &a.dom
}

// Loops returns the loop forest.
func (a *Analyses) Loops() *LoopForest {
	if a.valid&validLoops == 0 {
		a.loops.build(a.Graph(), a.Dom())
		a.valid |= validLoops
	}
	return &a.loops
}

// Regs returns the register definition info.
func (a *Analyses) Regs() *RegInfo {
	if a.valid&validRegs == 0 {
		a.regs.build(a.f)
		a.valid |= validRegs
	}
	return &a.regs
}

// CFGChanged drops every analysis: blocks or terminators were edited.
func (a *Analyses) CFGChanged() { a.valid = 0 }

// DeleteInstrs deletes from every block the instructions dead reports,
// keeping the order of the others, and returns how many it deleted.
// The register info, when the bundle holds it, is brought up to date in
// place: the sites of the deleted definitions drop out and the others
// move with their instructions.
func (a *Analyses) DeleteInstrs(dead func(in *ir.Instr) bool) int {
	ri := &a.regs
	keep := a.valid&validRegs != 0
	deleted := 0
	for bi, b := range a.f.Blocks {
		// The first k instructions kept are in place; only those after a
		// deleted one move.
		k := 0
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if dead(in) {
				if keep && defines(in) {
					ri.site(in.Dst, bi, i).index = -1
				}
				deleted++
				continue
			}
			if k < i {
				if keep && defines(in) {
					ri.site(in.Dst, bi, i).index = int32(k)
				}
				b.Instrs[k] = *in
			}
			k++
		}
		b.Instrs = b.Instrs[:k]
	}
	if keep && deleted > 0 {
		ri.compact()
	}
	return deleted
}
