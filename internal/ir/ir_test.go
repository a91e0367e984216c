package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func buildCountedLoopModule(t *testing.T, n int64) *Module {
	t.Helper()
	m := NewModule("test")
	m.MemWords = 64
	f := m.NewFunc("main", 0)
	b := NewBuilder(f)
	sum := b.Mov(0)
	b.ConstLoop(n, func(i Reg) {
		b.BinTo(sum, OpAdd, sum, i)
	})
	b.Ret(sum)
	f.Reindex()
	if err := m.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return m
}

func TestBuilderCountedLoop(t *testing.T) {
	m := buildCountedLoopModule(t, 10)
	f := m.FuncByName("main")
	if f == nil {
		t.Fatal("main not found")
	}
	if got := len(f.Blocks); got != 4 {
		t.Fatalf("blocks = %d, want 4 (entry, head, body, exit)", got)
	}
	if f.Entry().Name != "entry" {
		t.Errorf("entry block name = %q", f.Entry().Name)
	}
	// Entry ends in a jump to the loop head.
	if f.Entry().Term.Kind != TermJmp {
		t.Errorf("entry terminator = %v, want jmp", f.Entry().Term.Kind)
	}
	head := f.BlockByName("loop.head")
	if head == nil || head.Term.Kind != TermBr {
		t.Fatalf("loop.head missing or not a branch")
	}
}

func TestBlockSuccs(t *testing.T) {
	m := buildCountedLoopModule(t, 3)
	f := m.FuncByName("main")
	head := f.BlockByName("loop.head")
	succs := head.Succs(nil)
	if len(succs) != 2 {
		t.Fatalf("head succs = %d, want 2", len(succs))
	}
	if succs[0].Name != "loop.body" || succs[1].Name != "loop.exit" {
		t.Errorf("head succs = %s, %s", succs[0].Name, succs[1].Name)
	}
	exit := f.BlockByName("loop.exit")
	if got := exit.Succs(nil); len(got) != 0 {
		t.Errorf("ret block has %d succs, want 0", len(got))
	}
}

// TestNewBlockUniqueNames pins NewBlock's naming rule, with blocks allocated
// one at a time and from a reservation: an empty name gives "bN" for N
// the block count, and a name a block has gets the first free suffix
// ".1", ".2", …, which a removed block frees.
func TestNewBlockUniqueNames(t *testing.T) {
	// A step adds a block named add and wants it named want, or, when
	// remove is set, drops the block of that name.
	type step struct{ add, want, remove string }
	cases := []struct {
		name  string
		steps []step
	}{
		{"empty names count blocks", []step{
			{add: "", want: "b0"}, {add: "", want: "b1"}, {add: "x", want: "x"}, {add: "", want: "b3"},
		}},
		{"repeats take suffixes", []step{
			{add: "x", want: "x"}, {add: "x", want: "x.1"}, {add: "x", want: "x.2"},
			{add: "x.1", want: "x.1.1"}, {add: "y", want: "y"}, {add: "x", want: "x.3"},
		}},
		{"a removed block frees its name", []step{
			{add: "x", want: "x"}, {add: "x", want: "x.1"}, {add: "x", want: "x.2"},
			{remove: "x.1"}, {add: "x", want: "x.1"}, {remove: "x"}, {add: "x", want: "x"},
			{add: "x", want: "x.3"},
		}},
		{"an empty name counts the blocks left", []step{
			{add: "", want: "b0"}, {add: "", want: "b1"}, {remove: "b0"}, {add: "", want: "b1.1"},
			{add: "", want: "b2"},
		}},
	}
	for _, tc := range cases {
		for _, reserve := range []int{0, len(tc.steps)} {
			t.Run(fmt.Sprintf("%s/reserve%d", tc.name, reserve), func(t *testing.T) {
				f := NewModule("t").NewFunc("f", 0)
				f.ReserveBlocks(reserve)
				for i, s := range tc.steps {
					if s.remove != "" {
						f.Blocks = slices.DeleteFunc(f.Blocks, func(b *Block) bool { return b.Name == s.remove })
						f.Reindex()
						continue
					}
					b := f.NewBlock(s.add)
					if b.Name != s.want {
						t.Errorf("step %d: NewBlock(%q) named %q, want %q", i, s.add, b.Name, s.want)
					}
					if b.Index != len(f.Blocks)-1 || f.Blocks[b.Index] != b {
						t.Errorf("step %d: block %q at index %d of %d", i, b.Name, b.Index, len(f.Blocks))
					}
				}
			})
		}
	}
}

func TestEmitIntoTerminatedBlockPanics(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	b.Ret(NoReg)
	defer func() {
		if recover() == nil {
			t.Error("expected panic when emitting into a terminated block")
		}
	}()
	b.Mov(1)
}

func TestCloneIsDeep(t *testing.T) {
	m := buildCountedLoopModule(t, 5)
	m.DeclareExtern("lib", 123)
	c := m.Clone()
	if err := c.Verify(); err != nil {
		t.Fatalf("clone does not verify: %v", err)
	}
	if c.String() != m.String() {
		t.Fatalf("clone differs from original:\n-- original --\n%s\n-- clone --\n%s", m, c)
	}
	// Mutating the clone must not affect the original.
	cf := c.FuncByName("main")
	cf.Blocks[0].Instrs[0].Imm = 999
	cf.NoInstrument = true
	c.Externs["lib"].Cost = 1
	if m.FuncByName("main").Blocks[0].Instrs[0].Imm == 999 {
		t.Error("instruction mutation leaked into original")
	}
	if m.FuncByName("main").NoInstrument {
		t.Error("attribute mutation leaked into original")
	}
	if m.Externs["lib"].Cost != 123 {
		t.Error("extern mutation leaked into original")
	}
	// Clone terminators must point at clone blocks, not originals.
	orig := make(map[*Block]bool)
	for _, b := range m.FuncByName("main").Blocks {
		orig[b] = true
	}
	for _, b := range cf.Blocks {
		if b.Term.Then != nil && orig[b.Term.Then] {
			t.Error("clone terminator points into original function")
		}
	}
}

// TestCloneSharesNoBlock checks that a clone made after NewBlock calls,
// with or without blocks left in the source's slab, shares no block
// with its source: blocks added to one side and edited leave the other
// side's text as it was, whichever side grows first.
func TestCloneSharesNoBlock(t *testing.T) {
	grow := func(m *Module, name string) {
		f := m.FuncByName("main")
		for i := 0; i < 3; i++ {
			b := f.NewBlock(name)
			b.Instrs = append(b.Instrs, Instr{Op: OpMov, Dst: f.NewReg(), A: NoReg, B: NoReg, Imm: int64(i), BImm: true})
			b.Term = Terminator{Kind: TermRet, Cond: NoReg, Val: NoReg}
		}
	}
	for _, tc := range []struct {
		name        string
		reserve     int
		sourceFirst bool
	}{
		{"clone grows first", 0, false},
		{"clone grows first, slab left", 4, false},
		{"source grows first", 0, true},
		{"source grows first, slab left", 4, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildCountedLoopModule(t, 3)
			f := m.FuncByName("main")
			f.ReserveBlocks(tc.reserve)
			f.NewBlock("extra").Term = Terminator{Kind: TermRet, Cond: NoReg, Val: NoReg}
			c := m.Clone()
			first, second := c, m
			if tc.sourceFirst {
				first, second = m, c
			}
			grow(first, "first")
			want := first.String()
			grow(second, "second")
			if got := first.String(); got != want {
				t.Errorf("the other side's new blocks changed this one:\n%s\nwant:\n%s", got, want)
			}
			orig := make(map[*Block]bool)
			for _, b := range f.Blocks {
				orig[b] = true
			}
			for _, b := range c.FuncByName("main").Blocks {
				if orig[b] {
					t.Errorf("block %q is in both the source and the clone", b.Name)
				}
			}
		})
	}
}

func TestCloneCopiesProbes(t *testing.T) {
	m := NewModule("t")
	f := m.NewFunc("f", 0)
	b := NewBuilder(f)
	entry := b.B
	entry.Instrs = append(entry.Instrs, Instr{Op: OpProbe, Dst: NoReg, A: NoReg, B: NoReg,
		Probe: &ProbeInfo{Kind: ProbeIR, Inc: 42, IndVar: NoReg, Base: NoReg}})
	b.Ret(NoReg)
	c := m.Clone()
	cp := c.FuncByName("f").Blocks[0].Instrs[0].Probe
	if cp == f.Blocks[0].Instrs[0].Probe {
		t.Fatal("probe info aliased between clone and original")
	}
	cp.Inc = 7
	if f.Blocks[0].Instrs[0].Probe.Inc != 42 {
		t.Error("probe mutation leaked into original")
	}
}

// A clone's call records and probe descriptions are its own: editing a
// callee, an argument or a probe of the clone leaves the source as it
// was.
func TestCloneOwnsCallAndProbeRecords(t *testing.T) {
	m := MustParse(`
extern @lib cost 10
func @g(%a, %b) {
entry:
  ret %a
}
func @f(%x) {
entry:
  %y = call @g(%x, %x)
  %z = extcall @lib(%y)
  probe irloop 3 %x %y
  ret %z
}`)
	want := m.String()
	c := m.Clone()
	ins := c.FuncByName("f").Blocks[0].Instrs
	ins[0].Call.Callee = "lib"
	ins[0].Call.Args[1] = 0
	ins[1].Call.Callee = "g"
	ins[1].Call.Args[0] = 1
	ins[2].Probe.Inc = 99
	ins[2].Probe.Base = 0
	if got := m.String(); got != want {
		t.Errorf("source changed by edits of its clone:\n%s\nwant:\n%s", got, want)
	}
	if c.String() == want {
		t.Error("the clone's edits did not take")
	}
}

func TestNumInstrs(t *testing.T) {
	m := buildCountedLoopModule(t, 3)
	f := m.FuncByName("main")
	want := 0
	for _, b := range f.Blocks {
		want += len(b.Instrs) + 1
	}
	if got := f.NumInstrs(); got != want {
		t.Errorf("NumInstrs = %d, want %d", got, want)
	}
	if f.NumInstrs() < 7 {
		t.Errorf("NumInstrs = %d, suspiciously small for a loop", f.NumInstrs())
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Module
		want  string
	}{
		{
			name: "unterminated block",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				f.NewBlock("entry")
				return m
			},
			want: "lacks a terminator",
		},
		{
			name: "register out of range",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				b := f.NewBlock("entry")
				b.Instrs = append(b.Instrs, Instr{Op: OpMov, Dst: 5, BImm: true, A: NoReg, B: NoReg})
				b.Term = Terminator{Kind: TermRet, Val: NoReg, Cond: NoReg}
				return m
			},
			want: "out of range",
		},
		{
			name: "call to undefined function",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				b := NewBuilder(f)
				b.Call("nosuch")
				b.Ret(NoReg)
				return m
			},
			want: "undefined function",
		},
		{
			name: "call arity mismatch",
			build: func() *Module {
				m := NewModule("t")
				g := m.NewFunc("g", 2)
				gb := NewBuilder(g)
				gb.Ret(NoReg)
				f := m.NewFunc("f", 0)
				b := NewBuilder(f)
				x := b.Mov(1)
				b.Call("g", x)
				b.Ret(NoReg)
				return m
			},
			want: "want 2",
		},
		{
			name: "extcall to undeclared extern",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				b := NewBuilder(f)
				b.ExtCall("mystery")
				b.Ret(NoReg)
				return m
			},
			want: "undeclared extern",
		},
		{
			name: "branch without condition",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				e := f.NewBlock("entry")
				x := f.NewBlock("x")
				x.Term = Terminator{Kind: TermRet, Val: NoReg, Cond: NoReg}
				e.Term = Terminator{Kind: TermBr, Cond: NoReg, Then: x, Else: x, Val: NoReg}
				return m
			},
			want: "requires a condition",
		},
		{
			name: "duplicate function",
			build: func() *Module {
				m := NewModule("t")
				for i := 0; i < 2; i++ {
					f := m.NewFunc("f", 0)
					b := NewBuilder(f)
					b.Ret(NoReg)
				}
				return m
			},
			want: "duplicate function",
		},
		{
			name: "stale block index",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				b := NewBuilder(f)
				b.Ret(NoReg)
				f.Blocks[0].Index = 3
				return m
			},
			want: "stale index",
		},
		{
			name: "loop probe missing registers",
			build: func() *Module {
				m := NewModule("t")
				f := m.NewFunc("f", 0)
				e := f.NewBlock("entry")
				e.Instrs = append(e.Instrs, Instr{Op: OpProbe, Dst: NoReg, A: NoReg, B: NoReg,
					Probe: &ProbeInfo{Kind: ProbeIRLoop, Inc: 3, IndVar: NoReg, Base: NoReg}})
				e.Term = Terminator{Kind: TermRet, Val: NoReg, Cond: NoReg}
				return m
			},
			want: "loop probe requires",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.build().Verify()
			if err == nil {
				t.Fatalf("Verify passed, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Verify error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

func TestOpcodeStrings(t *testing.T) {
	for op := Opcode(0); op < Opcode(NumOpcodes); op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no name", op)
		}
	}
	if !OpAdd.IsBinary() || !OpMax.IsBinary() || !OpCmpGe.IsBinary() {
		t.Error("IsBinary misses arithmetic/compare opcodes")
	}
	if OpMov.IsBinary() || OpLoad.IsBinary() || OpProbe.IsBinary() {
		t.Error("IsBinary wrongly includes non-binary opcodes")
	}
}
