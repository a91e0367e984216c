package ir_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/workloads"
)

// TestParseAllocsPerInstr gates the parser's allocations on a printed
// Table-7 program: the blocks, instructions and call arguments come out
// of slabs and every name is a substring of the source, so what is left
// is a handful of objects per Parse and per function. Before the
// one-pass parser this read 15.6 per instruction.
func TestParseAllocsPerInstr(t *testing.T) {
	m := workloads.All[0].Build(1)
	src := m.String()
	instrs := 0
	for _, f := range m.Funcs {
		instrs += f.NumInstrs()
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ir.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(instrs); per > 2 {
		t.Errorf("ir.Parse: %.0f allocations for %d instructions (%.2f each), want at most 2 each", allocs, instrs, per)
	}
}

// TestParseAndCloneManyBlocks guards the scans that used to be
// quadratic in the number of blocks: a search of all labels per label
// and per branch in Parse, and a search of all names per block in
// Clone. One function of 20 000 labelled blocks took the parser 4.3 s
// and the clone 0.9 s on the host this was written on; the bound is
// coarse so that it fails for a quadratic scan and for nothing else.
func TestParseAndCloneManyBlocks(t *testing.T) {
	const blocks = 20000
	var sb strings.Builder
	sb.WriteString("func @f(%n) {\n")
	for i := 0; i < blocks-1; i++ {
		fmt.Fprintf(&sb, "b%d:\n  %%x = add %%n, %d\n  br %%x, b%d, b%d\n", i, i, i+1, blocks-1)
	}
	fmt.Fprintf(&sb, "b%d:\n  ret %%n\n}\n", blocks-1)
	start := time.Now()
	m, err := ir.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	if d := time.Since(start); d > time.Second {
		t.Errorf("parsing and cloning %d blocks took %v, want under 1s", blocks, d)
	}
	if got := len(c.Funcs[0].Blocks); got != blocks {
		t.Errorf("clone has %d blocks, want %d", got, blocks)
	}
}

// TestCloneSlicesDoNotShareCapacity checks the property that makes the
// clone's shared arrays safe: appending to one block's instructions,
// one call's arguments or one function's call table must not write
// into the next.
func TestCloneSlicesDoNotShareCapacity(t *testing.T) {
	m := ir.MustParse(`
func @f(%a, %b) {
entry:
  %c = call @f(%a, %b)
  %d = call @f(%b, %a)
  jmp next
next:
  %e = add %c, %d
  ret %e
}
func @g() {
only:
  %x = call @g()
  ret
}`)
	for name, mod := range map[string]*ir.Module{"parsed": m, "cloned": m.Clone()} {
		want := mod.String()
		f := mod.Funcs[0]
		entry := f.Blocks[0]
		f.Calls[0].Args = append(f.Calls[0].Args, 0)[:2]
		f.Calls = append(f.Calls, ir.Call{Callee: "f"})[:2]
		entry.Instrs = append(entry.Instrs, ir.Instr{Op: ir.OpNop, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg})[:2]
		f.Blocks = append(f.Blocks, entry)[:2]
		if got := mod.String(); got != want {
			t.Errorf("%s module changed by appends to its slices:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
