package cfg

// DomTree is a dominator tree computed with the Cooper-Harvey-Kennedy
// "A Simple, Fast Dominance Algorithm" iteration.
type DomTree struct {
	g *Graph
	// IDom maps block index to its immediate dominator; the entry maps
	// to itself and unreachable blocks map to -1.
	IDom []int32
	// depth in the dominator tree, used for O(h) Dominates queries.
	depth []int32
	// ints holds IDom and depth.
	ints []int32
}

// Dominators computes the dominator tree of g.
func Dominators(g *Graph) *DomTree {
	t := new(DomTree)
	t.build(g)
	return t
}

// build makes t the dominator tree of g, in t's own array when it is
// large enough.
func (t *DomTree) build(g *Graph) {
	if cap(t.ints) < 2*g.N {
		t.ints = make([]int32, 2*g.N)
	}
	ints := t.ints[:2*g.N]
	*t = DomTree{g: g, IDom: ints[:g.N:g.N], depth: ints[g.N:], ints: ints}
	chk(t.IDom, g)
	// A block's dominator precedes it in reverse postorder.
	clear(t.depth)
	if len(g.RPO) > 0 {
		for _, b := range g.RPO[1:] {
			t.depth[b] = t.depth[t.IDom[b]] + 1
		}
	}
}

// chk runs the Cooper-Harvey-Kennedy iteration over g from its entry,
// writing the immediate dominators to idom. Unreachable blocks get -1;
// the entry maps to itself.
func chk(idom []int32, g *Graph) {
	const root = 0
	rpoIndex := g.RPOIndex
	for i := range idom {
		idom[i] = -1
	}
	if g.N == 0 {
		return
	}
	idom[root] = root
	intersect := func(a, b int32) int32 {
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
		for _, b := range g.RPO {
			if b == root {
				continue
			}
			newIdom := int32(-1)
			for _, p := range g.Preds(int(b)) {
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
}

// Dominates reports whether block a dominates block b (reflexive).
func (t *DomTree) Dominates(a, b int) bool {
	if t.IDom[b] == -1 && b != 0 {
		return false // unreachable
	}
	for t.depth[b] > t.depth[a] {
		b = int(t.IDom[b])
	}
	return a == b
}
