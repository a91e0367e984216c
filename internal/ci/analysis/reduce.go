package analysis

import (
	"repro/internal/cfg"
	"repro/internal/ir"
)

// Region is one node of the (possibly partially) reduced graph.
type Region struct {
	C            *Container
	Succs, Preds []*Region
}

// Reduction is the result of running the production-rule system over a
// function's CFG. When the rules reduce the graph to a single node,
// Regions has length 1 and Root is its container.
type Reduction struct {
	Regions []*Region
}

// Root returns the single remaining container when the CFG was fully
// reduced, else nil.
func (r *Reduction) Root() *Container {
	if len(r.Regions) == 1 {
		return r.Regions[0].C
	}
	return nil
}

type reducer struct {
	f    *ir.Func
	g    *cfg.Graph
	lf   *cfg.LoopForest
	ri   *cfg.RegInfo
	opts *Options
	// slots holds the live nodes, each at the index of its container's
	// entry block, nil elsewhere. Every rule gives the merged container
	// the entry of the node it was applied at, so a merged node takes
	// that node's slot and a walk over slots always visits the nodes in
	// entry-block order. Its array is sc's.
	slots []*Region
	// resume is where the scan continues after the last merge.
	resume int
	// arena holds the merged containers and their lists.
	arena arena
	sc    *scratch
}

// scratch is the memory one Analyze call lends the reduction of each of
// its functions in turn. Nothing a FuncResult keeps points into it: the
// edge lists of the nodes a reduction leaves are copied out
// (reduction), and a node that merges away drops its own.
type scratch struct {
	slots  []*Region
	npreds []int32
	// store holds the leaves' edge lists.
	store []*Region
	// preds and succs are merge's lists.
	preds, succs []*Region
}

// newScratch returns scratch sized for m's largest function and the
// blocks canonicalization may add to it (one unified return, then a
// preheader or a latch), so that most modules need no more: n slots and
// predecessor counts, and 4n list entries for the leaves' edges (a
// block has at most two successors, and an edge sits in two lists).
func newScratch(m *ir.Module) *scratch {
	n := 0
	for _, f := range m.Funcs {
		n = max(n, len(f.Blocks)+3)
	}
	const merge = 8 // none of merge's lists outgrew this on the benchmark's corpus
	regs := make([]*Region, 5*n+2*merge)
	return &scratch{
		slots:  regs[:n:n],
		store:  regs[n : 5*n : 5*n],
		preds:  regs[5*n : 5*n : 5*n+merge],
		succs:  regs[5*n+merge : 5*n+merge],
		npreds: make([]int32, n),
	}
}

// zeroed returns s resliced to n zero elements, in a new array when s
// is too short.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// arena hands out a reduction's merged containers, their child lists,
// the loop records of the loop containers and the edge lists a merge
// outgrows, from chunks, so a merge allocates only when a chunk runs
// out. It belongs to one function's reducer, and what it hands out
// lives as long as the FuncResult whose Reduction holds it.
type arena struct {
	containers slab[Container]
	children   slab[*Container]
	edges      slab[*Region]
	loops      slab[LoopInfo]
}

// slab carves slices out of chunks of at least size elements. Each
// slice has its capacity cut at its length.
type slab[T any] struct {
	chunk []T
	used  int // elements of chunk handed out
	last  int // where the last slice handed out starts
	size  int
}

func (s *slab[T]) take(n int) []T {
	if s.used+n > len(s.chunk) {
		s.chunk, s.used = make([]T, max(n, s.size)), 0
	}
	s.last = s.used
	s.used += n
	return s.chunk[s.last:s.used:s.used]
}

// grow returns list with n more elements after it: in place when list
// is the last slice taken and its chunk has room, else in a new slice.
func (s *slab[T]) grow(list []T, n int) []T {
	if len(list) > 0 && s.used-s.last == len(list) && &s.chunk[s.last] == &list[0] && s.used+n <= len(s.chunk) {
		s.used += n
		return s.chunk[s.last:s.used:s.used]
	}
	out := s.take(len(list) + n)
	copy(out, list)
	return out
}

// container returns c placed in the arena.
func (r *reducer) container(c Container) *Container {
	p := &r.arena.containers.take(1)[0]
	*p = c
	return p
}

// children returns cs as a child list from the arena.
func (r *reducer) children(cs ...*Container) []*Container {
	out := r.arena.children.take(len(cs))
	copy(out, cs)
	return out
}

// reduce builds leaf containers for all reachable blocks and applies
// the Figure 3 rules to fixpoint.
func reduce(f *ir.Func, g *cfg.Graph, lf *cfg.LoopForest, ri *cfg.RegInfo,
	opts *Options, blockCost func(b *ir.Block) (Cost, bool), sc *scratch) *Reduction {

	r := newReducer(f, g, lf, ri, opts, blockCost, sc)
	r.run()
	return r.reduction()
}

// newReducer returns the reducer of f's leaves; blockCost computes a
// leaf's cost and barrier flag.
func newReducer(f *ir.Func, g *cfg.Graph, lf *cfg.LoopForest, ri *cfg.RegInfo,
	opts *Options, blockCost func(b *ir.Block) (Cost, bool), sc *scratch) reducer {

	sc.slots = zeroed(sc.slots, g.N)
	r := reducer{f: f, g: g, lf: lf, ri: ri, opts: opts, slots: sc.slots, sc: sc}
	// Chunk sizes are fractions of the leaf count, set by measuring
	// allocations against bytes on the benchmark's corpus: a chain grows
	// in place, so few merges need a container of their own.
	n := len(g.RPO)
	r.arena.containers.size, r.arena.children.size, r.arena.edges.size = n/4+1, n, n/2+1
	r.arena.loops.size = len(lf.Loops) + 1
	// The leaves come out of two arrays, and their edge lists out of a
	// third that is counted before it is filled.
	containers := make([]Container, len(g.RPO))
	regions := make([]Region, len(g.RPO))
	sc.npreds = zeroed(sc.npreds, g.N)
	npreds := sc.npreds
	edges := 0
	for k, bi := range g.RPO {
		b := f.Blocks[bi]
		cost, barrier := blockCost(b)
		containers[k] = Container{Kind: CBlock, Block: b, Entry: b, Exit: b, Cost: cost, Barrier: barrier}
		regions[k].C = &containers[k]
		r.slots[bi] = &regions[k]
		for _, si := range distinct(g.Succs(int(bi))) {
			npreds[si]++
			edges++
		}
	}
	sc.store = zeroed(sc.store, 2*edges)
	store := sc.store
	carve := func(n int) (list []*Region) {
		if n > 0 {
			list, store = store[:0:n], store[n:]
		}
		return list
	}
	for _, bi := range g.RPO {
		r.slots[bi].Succs = carve(len(distinct(g.Succs(int(bi)))))
		r.slots[bi].Preds = carve(int(npreds[bi]))
	}
	for _, bi := range g.RPO {
		n := r.slots[bi]
		for _, si := range distinct(g.Succs(int(bi))) {
			s := r.slots[si]
			n.Succs = append(n.Succs, s)
			s.Preds = append(s.Preds, n)
		}
	}
	return r
}

// reduction lists the nodes that are left, in entry-block order, with
// their edge lists copied out of the scratch into one array of their
// own.
func (r *reducer) reduction() *Reduction {
	n, edges := 0, 0
	for _, x := range r.slots {
		if x != nil {
			n++
			edges += len(x.Preds) + len(x.Succs)
		}
	}
	left := make([]*Region, 0, n)
	var lists []*Region
	if edges > 0 {
		lists = make([]*Region, edges)
	}
	own := func(list []*Region) []*Region {
		if len(list) == 0 {
			return nil
		}
		k := copy(lists, list)
		list, lists = lists[:k:k], lists[k:]
		return list
	}
	for _, x := range r.slots {
		if x != nil {
			x.Preds, x.Succs = own(x.Preds), own(x.Succs)
			left = append(left, x)
		}
	}
	return &Reduction{Regions: left}
}

// distinct drops the second edge of a two-way branch whose arms reach
// the same block; a block has at most two successors.
func distinct(succs []int32) []int32 {
	if len(succs) == 2 && succs[0] == succs[1] {
		return succs[:1]
	}
	return succs
}

// run applies, until none applies, the first rule that matches at the
// first node in entry-block order that any rule matches at.
//
// After a merge the scan does not start over. Whether a rule matches at
// a node x depends only on the edge lists of x, of its successors and
// of their successors (the diamond's join is the farthest node any rule
// looks at), and a merge rewrites the edge lists of the merged node,
// its predecessors and its successors only. So the scan goes back to
// the first node within two successor steps of one of those; at every
// node before it no rule matched before the merge and none can now.
func (r *reducer) run() {
	for i := 0; i < len(r.slots); {
		n := r.slots[i]
		if n != nil && (r.trySelfLoop(n) || r.tryChain(n) || r.tryDiamond(n) ||
			r.tryTriangle(n) || r.tryLoopDo(n) || r.tryLoopWhile(n)) {
			i = r.resume
			continue
		}
		i++
	}
}

func contains(list []*Region, x *Region) bool {
	for _, n := range list {
		if n == x {
			return true
		}
	}
	return false
}

func hasEdge(u, v *Region) bool { return contains(u.Succs, v) }

func remove(list []*Region, x *Region) []*Region {
	out := list[:0]
	for _, n := range list {
		if n != x {
			out = append(out, n)
		}
	}
	return out
}

// merge replaces the nodes in group with a single node holding c; u,
// the node the rule was applied at, is group[0] and becomes that node.
// External edges are recomputed; edges internal to the group vanish.
func (r *reducer) merge(c *Container, group ...*Region) {
	u := group[0]
	in := func(n *Region) bool { return contains(group, n) }
	preds, succs := r.sc.preds[:0], r.sc.succs[:0]
	for _, n := range group {
		for _, p := range n.Preds {
			if !in(p) && !contains(preds, p) {
				preds = append(preds, p)
			}
		}
		for _, s := range n.Succs {
			if !in(s) && !contains(succs, s) {
				succs = append(succs, s)
			}
		}
	}
	// In a neighbour's list the first member of the group becomes u and
	// the others drop out.
	replace := func(list []*Region) []*Region {
		out, added := list[:0], false
		for _, n := range list {
			if !in(n) {
				out = append(out, n)
			} else if !added {
				out, added = append(out, u), true
			}
		}
		return out
	}
	for _, p := range preds {
		p.Succs = replace(p.Succs)
	}
	for _, s := range succs {
		s.Preds = replace(s.Preds)
	}
	for _, n := range group[1:] {
		r.slots[n.C.Entry.Index] = nil
		n.Preds, n.Succs = nil, nil
	}
	u.C, u.Preds, u.Succs = c, r.fit(u.Preds, preds), r.fit(u.Succs, succs)
	r.sc.preds, r.sc.succs = preds, succs

	// The nodes whose edge lists changed are u, preds and succs; a rule
	// applied at x reads x, x's successors and their successors.
	r.resume = u.C.Entry.Index
	r.rescan(u)
	for _, p := range preds {
		r.rescan(p)
	}
	for _, s := range succs {
		r.rescan(s)
	}
}

// fit copies src into list's array when it has room, else into a list
// from the arena.
func (r *reducer) fit(list, src []*Region) []*Region {
	if cap(list) < len(src) {
		list = r.arena.edges.take(len(src))
	}
	list = list[:len(src):len(src)]
	copy(list, src)
	return list
}

// rescan lowers r.resume to the first of the nodes at which a rule
// reads changed: changed itself, its predecessors and theirs.
func (r *reducer) rescan(changed *Region) {
	lower := func(n *Region) {
		if i := n.C.Entry.Index; i < r.resume {
			r.resume = i
		}
	}
	lower(changed)
	for _, p := range changed.Preds {
		lower(p)
		for _, q := range p.Preds {
			lower(q)
		}
	}
}

// tryChain implements rule 1 pairwise (u followed by v); repeated
// application and chain flattening yield arbitrary-length chains. A
// chain that grows again is extended in place: it is the container of
// a live node, so no other container holds it.
func (r *reducer) tryChain(u *Region) bool {
	if len(u.Succs) != 1 {
		return false
	}
	v := u.Succs[0]
	if v == u || len(v.Preds) != 1 || hasEdge(v, u) {
		return false
	}
	c := u.C
	if c.Kind != CChain {
		c = r.container(Container{Kind: CChain, Children: r.children(u.C), Entry: u.C.Entry, Cost: u.C.Cost})
	}
	tail := []*Container{v.C}
	if v.C.Kind == CChain {
		tail = v.C.Children
	}
	c.Children = r.arena.children.grow(c.Children, len(tail))
	copy(c.Children[len(c.Children)-len(tail):], tail)
	c.Exit = v.C.Exit
	c.Cost = c.Cost.Add(v.C.Cost)
	r.merge(c, u, v)
	return true
}

// loopInfo returns the loop record of a loop container headed at
// header: the natural loop headed there, if any, and its induction and
// trip analysis.
func (r *reducer) loopInfo(header *ir.Block) *LoopInfo {
	info := &r.arena.loops.take(1)[0]
	info.Trips = Unknown()
	l := r.lf.InnermostAt[header.Index]
	if l == nil || l.Header != header.Index {
		return info
	}
	iv := cfg.AnalyzeInduction(r.f, r.g, l, r.ri)
	info.Ind, info.Natural = iv, l
	if n, ok := iv.TripCount(); ok {
		info.Trips = Const(n)
	} else if p, step, init, ok := iv.ParamTripCount(); ok {
		// iterations ≈ (param - init)/step; representable when step=1.
		if step == 1 {
			info.Trips = Affine(-init, 1, p)
		}
	}
	return info
}

func loopCost(kind CKind, header, body *Container, trips Cost) Cost {
	switch kind {
	case CLoopSelf:
		// Rule 3c: f(C) = f(C1) * (b+1); trips = b+1 body executions.
		return header.Cost.Mul(trips)
	case CLoopDo:
		// Rule 3a: f(C) = (f(C1)+f(C2)) * (b+1).
		return header.Cost.Add(body.Cost).Mul(trips)
	case CLoopWhile:
		// Rule 3b: f(C) = (f(C1)+f(C2))*b + f(C1); trips = b.
		return header.Cost.Add(body.Cost).Mul(trips).Add(header.Cost)
	}
	return Unknown()
}

// trySelfLoop implements rule 3c.
func (r *reducer) trySelfLoop(u *Region) bool {
	if !hasEdge(u, u) {
		return false
	}
	info := r.loopInfo(u.C.Entry)
	c := r.container(Container{
		Kind:     CLoopSelf,
		Children: r.children(u.C),
		Entry:    u.C.Entry,
		Exit:     u.C.Exit,
		Cost:     loopCost(CLoopSelf, u.C, nil, info.Trips),
		Loop:     info,
	})
	// Drop the self edge, then rebuild the node.
	u.Succs = remove(u.Succs, u)
	u.Preds = remove(u.Preds, u)
	r.merge(c, u)
	return true
}

// tryLoopWhile implements rule 3b: u is the header (tests and exits),
// v is the body chain returning to u.
func (r *reducer) tryLoopWhile(u *Region) bool {
	if len(u.Succs) != 2 {
		return false
	}
	for _, v := range u.Succs {
		if v == u {
			continue
		}
		if len(v.Preds) != 1 || v.Preds[0] != u {
			continue
		}
		if len(v.Succs) != 1 || v.Succs[0] != u {
			continue
		}
		info := r.loopInfo(u.C.Entry)
		c := r.container(Container{
			Kind:     CLoopWhile,
			Children: r.children(u.C, v.C),
			Entry:    u.C.Entry,
			Exit:     u.C.Exit, // exits through the header's test
			Cost:     loopCost(CLoopWhile, u.C, v.C, info.Trips),
			Loop:     info,
		})
		r.merge(c, u, v)
		return true
	}
	return false
}

// tryLoopDo implements rule 3a: u is the top (single successor v), v
// tests at the bottom and either loops back to u or exits.
func (r *reducer) tryLoopDo(u *Region) bool {
	if len(u.Succs) != 1 {
		return false
	}
	v := u.Succs[0]
	if v == u || len(v.Preds) != 1 || v.Preds[0] != u {
		return false
	}
	if len(v.Succs) != 2 || !hasEdge(v, u) {
		return false
	}
	info := r.loopInfo(u.C.Entry)
	c := r.container(Container{
		Kind:     CLoopDo,
		Children: r.children(u.C, v.C),
		Entry:    u.C.Entry,
		Exit:     v.C.Exit,
		Cost:     loopCost(CLoopDo, u.C, v.C, info.Trips),
		Loop:     info,
	})
	r.merge(c, u, v)
	return true
}

// branchArmCost applies the paper's g (mean within allowable error,
// also bounded by the probe interval).
func (r *reducer) branchArmCost(a, b Cost) Cost {
	if !a.DiffWithin(b, r.opts.AllowableError) {
		return Unknown()
	}
	m := a.Mean(b)
	if m.Kind == CostConst && m.C > r.opts.ProbeInterval {
		return Unknown()
	}
	return m
}

// tryDiamond implements rule 2a.
func (r *reducer) tryDiamond(u *Region) bool {
	if len(u.Succs) != 2 {
		return false
	}
	v, w := u.Succs[0], u.Succs[1]
	if v == u || w == u || v == w {
		return false
	}
	if len(v.Preds) != 1 || len(w.Preds) != 1 || len(v.Succs) != 1 || len(w.Succs) != 1 {
		return false
	}
	x := v.Succs[0]
	if x != w.Succs[0] || x == u || x == v || x == w {
		return false
	}
	if len(x.Preds) != 2 {
		return false
	}
	g := r.branchArmCost(v.C.Cost, w.C.Cost)
	c := r.container(Container{
		Kind:     CDiamond,
		Children: r.children(u.C, v.C, w.C, x.C),
		Entry:    u.C.Entry,
		Exit:     x.C.Exit,
		Cost:     u.C.Cost.Add(g).Add(x.C.Cost),
	})
	r.merge(c, u, v, w, x)
	return true
}

// tryTriangle implements rule 2b.
func (r *reducer) tryTriangle(u *Region) bool {
	if len(u.Succs) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		v, x := u.Succs[i], u.Succs[1-i]
		if v == u || x == u || v == x {
			continue
		}
		if len(v.Preds) != 1 || len(v.Succs) != 1 || v.Succs[0] != x {
			continue
		}
		if len(x.Preds) != 2 || hasEdge(x, u) || hasEdge(x, v) {
			continue
		}
		g := r.branchArmCost(v.C.Cost, Const(0))
		c := r.container(Container{
			Kind:     CTriangle,
			Children: r.children(u.C, v.C, x.C),
			Entry:    u.C.Entry,
			Exit:     x.C.Exit,
			Cost:     u.C.Cost.Add(g).Add(x.C.Cost),
		})
		r.merge(c, u, v, x)
		return true
	}
	return false
}
