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
