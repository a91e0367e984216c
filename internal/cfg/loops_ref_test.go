package cfg

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// refLoop is a loop of findLoopsRef: Loop with its body as a map.
type refLoop struct {
	Header    int
	Latches   []int
	Blocks    map[int]bool
	Parent    *refLoop
	Children  []*refLoop
	Depth     int
	Preheader int
	Exits     []int
}

// refForest is the forest of findLoopsRef.
type refForest struct {
	Loops       []*refLoop
	ByHeader    map[int]*refLoop
	InnermostAt []*refLoop
}

// findLoopsRef is FindLoops as it was before loop membership moved onto
// bit sets and the forest onto slabs: a map per loop body, a ByHeader
// map, and loops, latches and exits allocated one by one. It is kept as
// the reference the differential tests compare FindLoops against.
func findLoopsRef(g *Graph, dom *DomTree) *refForest {
	lf := &refForest{ByHeader: make(map[int]*refLoop), InnermostAt: make([]*refLoop, g.N)}
	// Collect back edges.
	for t := 0; t < g.N; t++ {
		if !g.Reachable(t) {
			continue
		}
		for _, s := range g.Succs(t) {
			h := int(s)
			if !dom.Dominates(h, t) {
				continue
			}
			l := lf.ByHeader[h]
			if l == nil {
				l = &refLoop{Header: h, Preheader: -1}
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
	owner := make([]*refLoop, g.N) // the last loop whose walk reached the block
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
			for _, p := range g.Preds(b) {
				if g.Reachable(int(p)) {
					stack = append(stack, int(p))
				}
			}
		}
		l.Blocks = make(map[int]bool, len(body))
		for _, b := range body {
			l.Blocks[b] = true
		}
		// Exits are in-loop blocks with a successor outside the loop.
		for _, b := range body {
			for _, s := range g.Succs(b) {
				if owner[s] != l {
					l.Exits = append(l.Exits, b)
					break
				}
			}
		}
		sort.Ints(l.Exits)
		l.Preheader = findPreheaderRef(g, l)
	}
	// Sort loops by size descending so parents precede children.
	slices.SortFunc(lf.Loops, func(a, b *refLoop) int {
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
		store := make([]*refLoop, nested)
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

func findPreheaderRef(g *Graph, l *refLoop) int {
	// The preheader is the unique out-of-loop predecessor of the
	// header, and must have the header as its only successor.
	ph := -1
	for _, p := range g.Preds(l.Header) {
		if l.Blocks[int(p)] {
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

// diffCorpus is the 528 programs of the compile digest goldens (the
// Table-7 programs at scale 1 and fuzz seeds 1-500, the last 50 large)
// and fuzz seeds 501-2500.
func diffCorpus() []*ir.Module {
	var mods []*ir.Module
	for _, w := range workloads.All {
		mods = append(mods, w.Build(1))
	}
	for i := 0; i < 2500; i++ {
		o := fuzz.Options{WithExterns: i%2 == 0}
		if i >= 450 && i < 500 || i >= 500 && i%10 == 9 {
			o = fuzz.Options{MaxDepth: 4, MaxStmts: 10, MaxFuncs: 8, WithExterns: true}
		}
		mods = append(mods, fuzz.Generate(uint64(i+1), o))
	}
	return mods
}

// TestFindLoopsMatchesReference runs FindLoops and findLoopsRef on every
// function of the corpus, as generated and canonicalized, and requires
// the same forest: loop order, header, latches, body, exits, parent,
// children, depth, preheader and innermost loop per block, with
// InnermostAt answering every header lookup ByHeader answered.
func TestFindLoopsMatchesReference(t *testing.T) {
	funcs, loops := 0, 0
	for mi, m := range diffCorpus() {
		for _, f := range m.Funcs {
			for _, stage := range []string{"input", "canonical"} {
				if stage == "canonical" {
					Canonicalize(f)
				}
				f.Reindex()
				g := New(f)
				dom := Dominators(g)
				got, want := FindLoops(g, dom), findLoopsRef(g, dom)
				if err := sameForest(g, got, want); err != nil {
					t.Fatalf("program %d @%s (%s): %v", mi, f.Name, stage, err)
				}
				funcs++
				loops += len(got.Loops)
			}
		}
	}
	t.Logf("%d functions, %d loops", funcs, loops)
}

func sameForest(g *Graph, got *LoopForest, want *refForest) error {
	header := func(l *Loop) int {
		if l == nil {
			return -1
		}
		return l.Header
	}
	refHeader := func(l *refLoop) int {
		if l == nil {
			return -1
		}
		return l.Header
	}
	if len(got.Loops) != len(want.Loops) {
		return fmt.Errorf("%d loops, want %d", len(got.Loops), len(want.Loops))
	}
	for i, l := range got.Loops {
		w := want.Loops[i]
		var body []int
		for b := range w.Blocks {
			body = append(body, b)
		}
		slices.Sort(body)
		kids := make([]int, len(l.Children))
		for k, c := range l.Children {
			kids[k] = c.Header
		}
		wantKids := make([]int, len(w.Children))
		for k, c := range w.Children {
			wantKids[k] = c.Header
		}
		switch {
		case l.Header != w.Header:
			return fmt.Errorf("loop %d: header %d, want %d", i, l.Header, w.Header)
		case !slices.Equal(l.Latches, w.Latches):
			return fmt.Errorf("loop %d: latches %v, want %v", i, l.Latches, w.Latches)
		case !slices.Equal(l.Blocks, body):
			return fmt.Errorf("loop %d: blocks %v, want %v", i, l.Blocks, body)
		case !slices.Equal(l.Exits, w.Exits):
			return fmt.Errorf("loop %d: exits %v, want %v", i, l.Exits, w.Exits)
		case header(l.Parent) != refHeader(w.Parent) || l.Depth != w.Depth || l.Preheader != w.Preheader:
			return fmt.Errorf("loop %d: parent %d depth %d preheader %d, want %d %d %d", i,
				header(l.Parent), l.Depth, l.Preheader, refHeader(w.Parent), w.Depth, w.Preheader)
		case !slices.Equal(kids, wantKids):
			return fmt.Errorf("loop %d: children %v, want %v", i, kids, wantKids)
		}
		for b := -1; b <= g.N+64; b++ {
			if l.Has(b) != w.Blocks[b] {
				return fmt.Errorf("loop %d: Has(%d) = %v", i, b, l.Has(b))
			}
		}
	}
	for b := 0; b < g.N; b++ {
		if header(got.InnermostAt[b]) != refHeader(want.InnermostAt[b]) {
			return fmt.Errorf("InnermostAt[%d] heads %d, want %d", b, header(got.InnermostAt[b]), refHeader(want.InnermostAt[b]))
		}
		in := got.InnermostAt[b]
		if by := want.ByHeader[b]; (by != nil) != (in != nil && in.Header == b) {
			return fmt.Errorf("block %d: ByHeader %v, InnermostAt heads %d", b, by != nil, header(in))
		}
	}
	return nil
}
