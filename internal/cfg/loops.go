package cfg

import (
	"slices"
	"sort"
)

// Loop describes one natural loop.
type Loop struct {
	// Header is the loop header block index.
	Header int
	// Latches are the blocks with back edges to the header.
	Latches []int
	// Blocks is the set of block indices in the loop (header included).
	Blocks map[int]bool
	// Parent is the innermost enclosing loop, nil for top-level loops.
	Parent *Loop
	// Children are the loops nested immediately inside this one.
	Children []*Loop
	// Depth is the nesting depth (top-level loops have depth 1).
	Depth int
	// Preheader is the unique block outside the loop whose only
	// successor is the header, or -1 when the loop is not simplified.
	Preheader int
	// Exits are in-loop blocks with a successor outside the loop.
	Exits []int
}

// LoopForest is the set of natural loops of a function with nesting.
type LoopForest struct {
	// Loops lists all loops, outermost-first within each nest.
	Loops []*Loop
	// ByHeader maps header block index to its loop.
	ByHeader map[int]*Loop
	// InnermostAt maps block index to the innermost loop containing it
	// (nil if the block is not in any loop).
	InnermostAt []*Loop
}

// FindLoops detects the natural loops of g using the dominator tree.
// Back edges t→h with h dominating t define loops; loops sharing a
// header are merged, as is conventional.
func FindLoops(g *Graph, dom *DomTree) *LoopForest {
	lf := &LoopForest{ByHeader: make(map[int]*Loop), InnermostAt: make([]*Loop, g.N)}
	// Collect back edges.
	for t := 0; t < g.N; t++ {
		if !g.Reachable(t) {
			continue
		}
		for _, h := range g.Succs[t] {
			if !dom.Dominates(h, t) {
				continue
			}
			l := lf.ByHeader[h]
			if l == nil {
				l = &Loop{Header: h, Preheader: -1}
				lf.ByHeader[h] = l
				lf.Loops = append(lf.Loops, l)
			}
			l.Latches = append(l.Latches, t)
		}
	}
	if len(lf.Loops) == 0 {
		return lf
	}
	// Bodies: walk backwards from the latches to the header. The body
	// is listed first, so that its set is allocated at its final size
	// and the exits need no pass over the set.
	owner := make([]*Loop, g.N) // the last loop whose walk reached the block
	var body, stack []int
	for _, l := range lf.Loops {
		owner[l.Header] = l
		body = append(body[:0], l.Header)
		stack = append(stack[:0], l.Latches...)
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if owner[b] == l {
				continue
			}
			owner[b] = l
			body = append(body, b)
			for _, p := range g.Preds[b] {
				if g.Reachable(p) {
					stack = append(stack, p)
				}
			}
		}
		l.Blocks = make(map[int]bool, len(body))
		for _, b := range body {
			l.Blocks[b] = true
		}
		// Exits are in-loop blocks with a successor outside the loop.
		for _, b := range body {
			for _, s := range g.Succs[b] {
				if owner[s] != l {
					l.Exits = append(l.Exits, b)
					break
				}
			}
		}
		sort.Ints(l.Exits)
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
	nested := 0
	for i, l := range lf.Loops {
		for j := i - 1; j >= 0; j-- {
			cand := lf.Loops[j]
			if cand != l && cand.Blocks[l.Header] {
				// Loops are sorted by size descending, so scanning j
				// downward visits smaller loops first; the first match
				// is the smallest strict container.
				l.Parent = cand
				break
			}
		}
		if l.Parent != nil {
			l.Depth = l.Parent.Depth + 1
			nested++
		} else {
			l.Depth = 1
		}
	}
	if nested > 0 {
		// The children lists share one array: counted per parent
		// header, carved, then filled in the order of lf.Loops.
		nchild := make([]int, g.N)
		for _, l := range lf.Loops {
			if l.Parent != nil {
				nchild[l.Parent.Header]++
			}
		}
		store := make([]*Loop, nested)
		for _, l := range lf.Loops {
			if n := nchild[l.Header]; n > 0 {
				l.Children, store = store[:0:n], store[n:]
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
		for b := range l.Blocks {
			lf.InnermostAt[b] = l
		}
	}
	return lf
}

func findPreheader(g *Graph, l *Loop) int {
	// The preheader is the unique out-of-loop predecessor of the
	// header, and must have the header as its only successor.
	ph := -1
	for _, p := range g.Preds[l.Header] {
		if l.Blocks[p] {
			continue
		}
		if ph != -1 {
			return -1
		}
		ph = p
	}
	if ph == -1 || len(g.Succs[ph]) != 1 {
		return -1
	}
	return ph
}
