package cfg

// DomTree is a dominator tree computed with the Cooper-Harvey-Kennedy
// "A Simple, Fast Dominance Algorithm" iteration.
type DomTree struct {
	g *Graph
	// IDom maps block index to its immediate dominator; the entry maps
	// to itself and unreachable blocks map to -1.
	IDom []int
	// Children maps block index to dominated children indices.
	Children [][]int
	// depth in the dominator tree, used for O(h) Dominates queries.
	depth []int
}

// Dominators computes the dominator tree of g.
func Dominators(g *Graph) *DomTree {
	idom := chk(g.N, g.RPO, g.RPOIndex, g.Preds, 0)
	return newDomTree(g, idom)
}

// PostDominators computes the postdominator tree of g. Functions with
// multiple return blocks are handled with a virtual exit; blocks from
// which no return is reachable (infinite loops) get IPDom -1.
type PostDomTree struct {
	// IPDom maps block index to immediate postdominator; a block that
	// postdominates all paths to exit(s) from itself maps to -1 when it
	// is itself a virtual-exit child, i.e. return blocks map to -1.
	IPDom []int
}

// PostDominators computes immediate postdominators of each block.
// Return blocks (and blocks with no path to a return) have IPDom -1.
func PostDominators(g *Graph) *PostDomTree {
	// Reverse graph with a virtual exit node N.
	n := g.N + 1
	exit := g.N
	preds := make([][]int, n) // preds in reverse graph = succs in original
	var exits []int
	for b := 0; b < g.N; b++ {
		for _, s := range g.Succs[b] {
			preds[b] = append(preds[b], s)
		}
		if len(g.Succs[b]) == 0 && g.Reachable(b) {
			exits = append(exits, b)
			preds[b] = append(preds[b], exit)
		}
	}
	// Postorder on the reverse graph from the virtual exit. Successor
	// function in the reverse graph is the original Preds, plus
	// exit → each return block.
	succs := make([][]int, n)
	for b := 0; b < g.N; b++ {
		succs[b] = g.Preds[b]
	}
	succs[exit] = exits

	rpo, rpoIndex := orderFrom(n, exit, succs)
	idom := chk(n, rpo, rpoIndex, preds, exit)
	out := make([]int, g.N)
	for b := 0; b < g.N; b++ {
		d := idom[b]
		if d == exit || b == idom[b] || rpoIndex[b] < 0 {
			out[b] = -1
		} else {
			out[b] = d
		}
	}
	return &PostDomTree{IPDom: out}
}

func orderFrom(n, root int, succs [][]int) (rpo, rpoIndex []int) {
	rpoIndex = make([]int, n)
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	type frame struct{ node, next int }
	visited := make([]bool, n)
	post := make([]int, 0, n)
	stack := []frame{{node: root}}
	visited[root] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(succs[fr.node]) {
			s := succs[fr.node][fr.next]
			fr.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{node: s})
			}
			continue
		}
		post = append(post, fr.node)
		stack = stack[:len(stack)-1]
	}
	rpo = make([]int, len(post))
	for i := range post {
		rpo[i] = post[len(post)-1-i]
	}
	for i, b := range rpo {
		rpoIndex[b] = i
	}
	return rpo, rpoIndex
}

// chk runs the Cooper-Harvey-Kennedy iteration. rpo/rpoIndex describe
// a traversal from root over the graph whose predecessor relation is
// preds. Unvisited nodes get idom -1; the root maps to itself.
func chk(n int, rpo, rpoIndex []int, preds [][]int, root int) []int {
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == root {
				continue
			}
			newIdom := -1
			for _, p := range preds[b] {
				if rpoIndex[p] < 0 || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// newDomTree builds the tree for the immediate dominators idom of g,
// computed from the entry. The children lists share one array, counted
// before it is filled, with each list's capacity ending at its length.
func newDomTree(g *Graph, idom []int) *DomTree {
	const root = 0
	ints := make([]int, 2*g.N) // depth, then the children lists
	t := &DomTree{g: g, IDom: idom, Children: make([][]int, g.N), depth: ints[:g.N:g.N]}
	// depth holds the number of children while the lists are carved.
	for b := 0; b < g.N; b++ {
		if b != root && idom[b] >= 0 {
			t.depth[idom[b]]++
		}
	}
	store := ints[g.N:]
	for b, n := range t.depth {
		if n > 0 {
			t.Children[b], store = store[:0:n], store[n:]
			t.depth[b] = 0
		}
	}
	for b := 0; b < g.N; b++ {
		if b != root && idom[b] >= 0 {
			t.Children[idom[b]] = append(t.Children[idom[b]], b)
		}
	}
	// A block's dominator precedes it in reverse postorder.
	for _, b := range g.RPO[1:] {
		t.depth[b] = t.depth[idom[b]] + 1
	}
	return t
}

// StrictDomPairs returns every ordered pair (a, b) of reachable blocks
// where a strictly dominates b, by walking each block's immediate-
// dominator chain to the entry — O(n·h) for dominator-tree height h,
// versus O(n²·h) for pairwise Dominates queries. Translation-validation
// snapshots (internal/sanitize) use it to compare the dominance
// relation across pipeline stages.
func (t *DomTree) StrictDomPairs() [][2]int {
	var out [][2]int
	for b := 0; b < t.g.N; b++ {
		if !t.g.Reachable(b) || t.IDom[b] < 0 {
			continue
		}
		for a := b; a != t.IDom[a]; {
			a = t.IDom[a]
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// Dominates reports whether block a dominates block b (reflexive).
func (t *DomTree) Dominates(a, b int) bool {
	if t.IDom[b] == -1 && b != 0 {
		return false // unreachable
	}
	for t.depth[b] > t.depth[a] {
		b = t.IDom[b]
	}
	return a == b
}
