package ir

import "fmt"

// Builder provides a convenient API for emitting instructions into a
// function, one block at a time. All emit methods append to the current
// block; terminator methods seal it.
type Builder struct {
	F *Func
	B *Block
}

// NewBuilder returns a builder positioned at the function's entry
// block, creating one named "entry" if the function is empty.
func NewBuilder(f *Func) *Builder {
	b := &Builder{F: f}
	if len(f.Blocks) == 0 {
		b.B = f.NewBlock("entry")
	} else {
		b.B = f.Blocks[0]
	}
	return b
}

// Block creates a new block with the given name without switching to it.
func (bl *Builder) Block(name string) *Block { return bl.F.NewBlock(name) }

// SetBlock repositions the builder at block b.
func (bl *Builder) SetBlock(b *Block) { bl.B = b }

func (bl *Builder) emit(in Instr) Reg {
	if bl.B.Term.Kind != TermNone {
		panic(fmt.Sprintf("ir: emitting into terminated block %q in %q", bl.B.Name, bl.F.Name))
	}
	bl.B.Instrs = append(bl.B.Instrs, in)
	return in.Dst
}

// Mov emits Dst = imm and returns Dst.
func (bl *Builder) Mov(imm int64) Reg {
	return bl.emit(Instr{Op: OpMov, Dst: bl.F.NewReg(), Imm: imm, BImm: true})
}

// MovR emits Dst = a and returns Dst.
func (bl *Builder) MovR(a Reg) Reg {
	return bl.emit(Instr{Op: OpMov, Dst: bl.F.NewReg(), A: a})
}

// Assign emits dst = imm into an existing register.
func (bl *Builder) Assign(dst Reg, imm int64) {
	bl.emit(Instr{Op: OpMov, Dst: dst, Imm: imm, BImm: true})
}

// AssignR emits dst = a into an existing register.
func (bl *Builder) AssignR(dst, a Reg) {
	bl.emit(Instr{Op: OpMov, Dst: dst, A: a})
}

// Bin emits Dst = a op b and returns Dst.
func (bl *Builder) Bin(op Opcode, a, b Reg) Reg {
	if !op.IsBinary() {
		panic("ir: Bin requires a binary opcode, got " + op.String())
	}
	return bl.emit(Instr{Op: op, Dst: bl.F.NewReg(), A: a, B: b})
}

// BinI emits Dst = a op imm and returns Dst.
func (bl *Builder) BinI(op Opcode, a Reg, imm int64) Reg {
	if !op.IsBinary() {
		panic("ir: BinI requires a binary opcode, got " + op.String())
	}
	return bl.emit(Instr{Op: op, Dst: bl.F.NewReg(), A: a, Imm: imm, BImm: true})
}

// BinTo emits dst = a op b into an existing register.
func (bl *Builder) BinTo(dst Reg, op Opcode, a, b Reg) {
	bl.emit(Instr{Op: op, Dst: dst, A: a, B: b})
}

// BinToI emits dst = a op imm into an existing register.
func (bl *Builder) BinToI(dst Reg, op Opcode, a Reg, imm int64) {
	bl.emit(Instr{Op: op, Dst: dst, A: a, Imm: imm, BImm: true})
}

// Load emits Dst = Mem[base + off] and returns Dst. Pass NoReg as base
// for an absolute address.
func (bl *Builder) Load(base Reg, off int64) Reg {
	return bl.emit(Instr{Op: OpLoad, Dst: bl.F.NewReg(), A: base, Imm: off})
}

// Store emits Mem[base + off] = val. Pass NoReg as base for an absolute
// address.
func (bl *Builder) Store(base Reg, off int64, val Reg) {
	bl.emit(Instr{Op: OpStore, A: base, Imm: off, B: val})
}

// AtomicAdd emits Dst = Mem[base+off]; Mem[base+off] += val atomically.
func (bl *Builder) AtomicAdd(base Reg, off int64, val Reg) Reg {
	return bl.emit(Instr{Op: OpAtomicAdd, Dst: bl.F.NewReg(), A: base, Imm: off, B: val})
}

// Call emits Dst = callee(args...) and returns Dst.
func (bl *Builder) Call(callee string, args ...Reg) Reg {
	return bl.call(OpCall, callee, args)
}

// ExtCall emits Dst = extern callee(args...) and returns Dst.
func (bl *Builder) ExtCall(callee string, args ...Reg) Reg {
	return bl.call(OpExtCall, callee, args)
}

// call emits a call instruction of opcode op with its record added to
// the function's call table.
func (bl *Builder) call(op Opcode, callee string, args []Reg) Reg {
	bl.F.Calls = append(bl.F.Calls, Call{Callee: callee, Args: args})
	imm := int64(len(bl.F.Calls) - 1)
	return bl.emit(Instr{Op: op, Dst: bl.F.NewReg(), A: NoReg, B: NoReg, Imm: imm})
}

// Jmp terminates the current block with an unconditional jump.
func (bl *Builder) Jmp(t *Block) {
	bl.B.Term = Terminator{Kind: TermJmp, Then: t, Cond: NoReg, Val: NoReg}
}

// Br terminates the current block with a conditional branch.
func (bl *Builder) Br(cond Reg, then, els *Block) {
	bl.B.Term = Terminator{Kind: TermBr, Cond: cond, Then: then, Else: els, Val: NoReg}
}

// Ret terminates the current block returning val (NoReg for void).
func (bl *Builder) Ret(val Reg) {
	bl.B.Term = Terminator{Kind: TermRet, Val: val, Cond: NoReg}
}

// CountedLoop emits a canonical counted loop
//
//	for i := from; i < to; i += step { body(i) }
//
// calling body with the builder positioned in the loop body block and
// the induction register. After CountedLoop returns, the builder is
// positioned in the exit block. from/to are registers; step must be a
// positive immediate.
func (bl *Builder) CountedLoop(from, to Reg, step int64, body func(i Reg)) {
	if step <= 0 {
		panic("ir: CountedLoop requires positive step")
	}
	head := bl.Block("loop.head")
	bodyB := bl.Block("loop.body")
	exit := bl.Block("loop.exit")

	i := bl.MovR(from)
	bl.Jmp(head)

	bl.SetBlock(head)
	c := bl.Bin(OpCmpLt, i, to)
	bl.Br(c, bodyB, exit)

	bl.SetBlock(bodyB)
	body(i)
	bl.BinToI(i, OpAdd, i, step)
	bl.Jmp(head)

	bl.SetBlock(exit)
}

// ConstLoop is CountedLoop with immediate bounds [0, n).
func (bl *Builder) ConstLoop(n int64, body func(i Reg)) {
	from := bl.Mov(0)
	to := bl.Mov(n)
	bl.CountedLoop(from, to, 1, body)
}
