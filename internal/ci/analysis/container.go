package analysis

import (
	"fmt"
	"strings"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// CKind identifies which Figure 3 pattern produced a container.
type CKind uint8

const (
	// CBlock is a leaf container wrapping one basic block.
	CBlock CKind = iota
	// CChain is rule 1: a sequence of single-entry single-exit children.
	CChain
	// CDiamond is rule 2a: head, two arms, join.
	CDiamond
	// CTriangle is rule 2b: head, one arm, join.
	CTriangle
	// CLoopDo is rule 3a: two-node cycle exiting from the bottom node;
	// both children execute b+1 times.
	CLoopDo
	// CLoopWhile is rule 3b: two-node cycle exiting from the header;
	// the header executes b+1 times, the body b times.
	CLoopWhile
	// CLoopSelf is rule 3c: a single self-looping node executing b+1
	// times.
	CLoopSelf
)

var ckindNames = [...]string{
	CBlock: "block", CChain: "chain", CDiamond: "diamond",
	CTriangle: "triangle", CLoopDo: "loop3a", CLoopWhile: "loop3b",
	CLoopSelf: "loop3c",
}

// String names the container kind.
func (k CKind) String() string { return ckindNames[k] }

// Container is a node of the hierarchical abstraction built by the
// production-rule system (§3.2). Every container is a single-entry,
// single-exit region of the CFG.
//
// Every reachable block gets a leaf, so the fields only loop containers
// use live in a LoopInfo behind Loop: a leaf is 96 bytes.
type Container struct {
	Kind CKind
	// Barrier marks leaves containing uninstrumentable calls (external
	// library calls / unknown-cost NoInstrument callees) after which a
	// probe must be placed (§3).
	Barrier  bool
	Children []*Container
	// Block is the wrapped basic block for CBlock leaves.
	Block *ir.Block
	// Entry and Exit are the region's entry and exit basic blocks.
	Entry, Exit *ir.Block
	// Cost is the evaluated cost (Table 6); for loop containers it
	// already includes the trip multiplication when trips are known.
	Cost Cost
	// Loop is set for loop containers and nil for the others.
	Loop *LoopInfo
}

// LoopInfo is what a loop container knows of its loop.
type LoopInfo struct {
	// Trips is the body execution count.
	Trips Cost
	// Ind is the recognized induction variable.
	Ind cfg.Induction
	// Natural is the natural loop headed at the container's entry, when
	// there is one.
	Natural *cfg.Loop
}

// IsLoop reports whether the container is one of the loop kinds.
func (c *Container) IsLoop() bool {
	return c.Kind == CLoopDo || c.Kind == CLoopWhile || c.Kind == CLoopSelf
}

// NumBlocks counts the basic blocks contained in the region.
func (c *Container) NumBlocks() int {
	if c.Kind == CBlock {
		return 1
	}
	n := 0
	for _, ch := range c.Children {
		n += ch.NumBlocks()
	}
	return n
}

// Dump renders the container tree for tests and debugging.
func (c *Container) Dump() string {
	var sb strings.Builder
	c.dump(&sb, 0)
	return sb.String()
}

func (c *Container) dump(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	if c.Kind == CBlock {
		fmt.Fprintf(sb, "block %s cost=%s", c.Block.Name, c.Cost)
		if c.Barrier {
			sb.WriteString(" barrier")
		}
		sb.WriteByte('\n')
		return
	}
	fmt.Fprintf(sb, "%s cost=%s", c.Kind, c.Cost)
	if c.IsLoop() {
		fmt.Fprintf(sb, " trips=%s", c.Loop.Trips)
	}
	sb.WriteByte('\n')
	for _, ch := range c.Children {
		ch.dump(sb, depth+1)
	}
}
