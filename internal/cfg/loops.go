package cfg

import (
	"math/bits"
	"slices"
)

// Loop describes one natural loop.
type Loop struct {
	// Header is the loop header block index.
	Header int
	// Latches are the blocks with back edges to the header.
	Latches []int
	// Blocks lists the block indices in the loop (header included) in
	// ascending order; Has tests membership.
	Blocks []int
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	// Children are the loops nested immediately inside this one.
	Children []*Loop
	// Depth is the nesting depth (top-level loops have depth 1).
	Depth int
	// Preheader is the unique block outside the loop whose only
	// successor is the header, or -1 when the loop is not simplified.
	Preheader int
	// Exits are in-loop blocks with a successor outside the loop, in
	// ascending order.
	Exits []int
	// set holds Blocks as one bit per block index of the graph.
	set []uint64
}

// Has reports whether block index b is in the loop. An index the graph
// did not have (a block added since) is not.
func (l *Loop) Has(b int) bool {
	w := uint(b) >> 6
	return w < uint(len(l.set)) && l.set[w]&(1<<(uint(b)&63)) != 0
}

// LoopForest is the set of natural loops of a function with nesting.
type LoopForest struct {
	// Loops lists all loops, outermost-first within each nest.
	Loops []*Loop
	// InnermostAt maps block index to the innermost loop containing it
	// (nil if the block is not in any loop). A header's innermost loop
	// is the loop it heads: natural loops with different headers are
	// disjoint or nested, and a loop nested in another cannot contain
	// that loop's header, which dominates it.
	InnermostAt []*Loop
	// ints is the build's work array: the latches, then a work stack.
	ints []int
}

// FindLoops detects the natural loops of g using the dominator tree.
// Back edges t→h with h dominating t define loops; loops sharing a
// header are merged, as is conventional.
func FindLoops(g *Graph, dom *DomTree) *LoopForest {
	lf := new(LoopForest)
	lf.build(g, dom)
	return lf
}

// build makes lf the loop forest of g. Loops, InnermostAt and the work
// array reuse lf's memory when it is large enough. The loops themselves
// take theirs from a few new slabs whatever the number of loops: one
// for the Loop values, one for the membership bits, one for the index
// lists (latches, bodies, exits) and one for the children lists. Every
// list handed out has its capacity cut at its length.
func (lf *LoopForest) build(g *Graph, dom *DomTree) {
	// A loop's latches are its header's reachable predecessors that the
	// header dominates. Preds lists them in block order, one entry per
	// branch arm, the order and multiplicity of the back edges.
	isLatch := func(h int, p int32) bool { return g.Reachable(int(p)) && dom.Dominates(h, int(p)) }
	nloops, nlatches := 0, 0
	for h := 0; h < g.N; h++ {
		n := 0
		for _, p := range g.Preds(h) {
			if isLatch(h, p) {
				n++
			}
		}
		if n > 0 {
			nloops++
			nlatches += n
		}
	}
	lf.InnermostAt = grown(lf.InnermostAt, g.N)
	clear(lf.InnermostAt)
	lf.Loops = grown(lf.Loops, nloops)
	if nloops == 0 {
		return
	}
	loops := make([]Loop, nloops)
	words := (g.N + 63) >> 6
	set := make([]uint64, nloops*words)
	lf.ints = grown(lf.ints, nlatches+g.N)
	latches, stack := lf.ints[:0:nlatches], lf.ints[nlatches:nlatches]

	// Bodies: walk backwards from the latches to the header, marking a
	// block when it is first pushed. Latches are read off the scratch
	// array until the index lists exist.
	nbody, nexits, k := 0, 0, 0
	for h := 0; h < g.N; h++ {
		first := len(latches)
		for _, p := range g.Preds(h) {
			if isLatch(h, p) {
				latches = append(latches, int(p))
			}
		}
		if len(latches) == first {
			continue
		}
		l := &loops[k]
		*l = Loop{Header: h, Latches: latches[first:len(latches):len(latches)], Preheader: -1,
			set: set[k*words : (k+1)*words : (k+1)*words]}
		lf.Loops[k] = l
		k++
		l.set[h>>6] |= 1 << (h & 63)
		size := 1
		stack = stack[:0]
		push := func(b int) {
			if !l.Has(b) {
				l.set[b>>6] |= 1 << (b & 63)
				size++
				stack = append(stack, b)
			}
		}
		for _, t := range l.Latches {
			push(t)
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, p := range g.Preds(b) {
				if g.Reachable(int(p)) {
					push(int(p))
				}
			}
		}
		nbody += size
		l.each(func(b int) {
			if l.exits(g, b) {
				nexits++
			}
		})
	}
	// Latches, then blocks and exits in ascending order, read off the
	// bits.
	lists := make([]int, nlatches+nbody+nexits)
	for _, l := range lf.Loops {
		n := copy(lists, l.Latches)
		l.Latches, lists = lists[:n:n], lists[n:]
		n = 0
		l.each(func(b int) { lists[n] = b; n++ })
		l.Blocks, lists = lists[:n:n], lists[n:]
		n = 0
		for _, b := range l.Blocks {
			if l.exits(g, b) {
				lists[n] = b
				n++
			}
		}
		if n > 0 {
			l.Exits, lists = lists[:n:n], lists[n:]
		}
		l.Preheader = findPreheader(g, l)
	}
	// Sort loops by size descending so parents precede children.
	slices.SortFunc(lf.Loops, func(a, b *Loop) int {
		if len(a.Blocks) != len(b.Blocks) {
			return len(b.Blocks) - len(a.Blocks)
		}
		return a.Header - b.Header
	})
	// Nesting: a loop's parent is the smallest loop strictly containing
	// its header (other than itself).
	nchild := lf.ints[:g.N] // the latches and the stack are done; count children per parent header
	clear(nchild)
	nested := 0
	for i, l := range lf.Loops {
		for j := i - 1; j >= 0; j-- {
			cand := lf.Loops[j]
			if cand != l && cand.Has(l.Header) {
				// Loops are sorted by size descending, so scanning j
				// downward visits smaller loops first; the first match
				// is the smallest strict container.
				l.Parent = cand
				break
			}
		}
		if l.Parent != nil {
			l.Depth = l.Parent.Depth + 1
			nchild[l.Parent.Header]++
			nested++
		} else {
			l.Depth = 1
		}
	}
	if nested > 0 {
		// The children lists are carved per parent, then filled in the
		// order of lf.Loops.
		children := make([]*Loop, nested)
		for _, l := range lf.Loops {
			if n := nchild[l.Header]; n > 0 {
				l.Children, children = children[:0:n], children[n:]
			}
		}
		for _, l := range lf.Loops {
			if l.Parent != nil {
				l.Parent.Children = append(l.Parent.Children, l)
			}
		}
	}
	// Innermost loop per block: iterate loops from largest to smallest
	// so smaller (inner) loops overwrite.
	for _, l := range lf.Loops {
		for _, b := range l.Blocks {
			lf.InnermostAt[b] = l
		}
	}
}

// each calls fn for every block of the loop's set in ascending order.
func (l *Loop) each(fn func(int)) {
	for w, word := range l.set {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// exits reports whether in-loop block b has a successor outside l.
func (l *Loop) exits(g *Graph, b int) bool {
	for _, s := range g.Succs(b) {
		if !l.Has(int(s)) {
			return true
		}
	}
	return false
}

func findPreheader(g *Graph, l *Loop) int {
	// The preheader is the unique out-of-loop predecessor of the
	// header, and must have the header as its only successor.
	ph := -1
	for _, p := range g.Preds(l.Header) {
		if l.Has(int(p)) {
			continue
		}
		if ph != -1 {
			return -1
		}
		ph = int(p)
	}
	if ph == -1 || len(g.Succs(ph)) != 1 {
		return -1
	}
	return ph
}
