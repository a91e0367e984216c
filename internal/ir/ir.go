// Package ir defines the intermediate representation that the Compiler
// Interrupts pipeline analyzes, transforms and instruments.
//
// The IR is a small register machine, deliberately LLVM-flavored but
// non-SSA: each function owns a set of int64 virtual registers (function
// parameters occupy registers 0..NumParams-1), organized into basic
// blocks ending in explicit terminators. Memory is a flat, module-wide
// array of int64 words shared by all threads of a VM run.
//
// The package provides the core types, a Builder for programmatic
// construction, a textual parser and printer (see parse.go, print.go),
// and a structural verifier (verify.go).
package ir

import (
	"fmt"
	"slices"
	"strconv"
)

// Reg identifies a virtual register within a function. Parameters are
// registers 0..NumParams-1. NoReg marks an absent operand.
type Reg int32

// NoReg is the sentinel for "no register" (e.g. a void return value).
const NoReg Reg = -1

// Opcode enumerates IR instructions.
type Opcode uint8

// Instruction opcodes. Binary operations compute Dst = A op B, where the
// B operand is the immediate Imm when BImm is set.
const (
	OpNop Opcode = iota
	// OpMov copies A (or Imm when BImm) into Dst.
	OpMov
	OpAdd
	OpSub
	OpMul
	OpDiv // signed; division by zero yields 0 in the VM
	OpRem // signed; remainder by zero yields 0 in the VM
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	// Comparisons produce 0 or 1 in Dst. All are signed.
	OpCmpEq
	OpCmpNe
	OpCmpLt
	OpCmpLe
	OpCmpGt
	OpCmpGe
	// OpMin/OpMax are used by the loop transform (§3.4) to bound inner
	// trip counts: Dst = min/max(A, B|Imm).
	OpMin
	OpMax
	// OpLoad reads Dst = Mem[A + Imm]; with A == NoReg the address is
	// the absolute word offset Imm.
	OpLoad
	// OpStore writes Mem[A + Imm] = B; with A == NoReg the address is
	// absolute.
	OpStore
	// OpAtomicAdd performs Dst = Mem[A+Imm]; Mem[A+Imm] += B atomically
	// with respect to other VM threads.
	OpAtomicAdd
	// OpCall invokes Call.Callee (a function in the same module) with
	// Call.Args; the callee's return value lands in Dst (NoReg discards
	// it).
	OpCall
	// OpExtCall invokes an uninstrumented external function declared in
	// the module's extern table. The VM charges its declared cost; the
	// compiler cannot see inside it (it models it as ExternCostIR).
	OpExtCall
	// OpReadCycles reads the virtual cycle counter into Dst (the
	// llvm.readcyclecounter intrinsic of the paper).
	OpReadCycles
	// OpProbe is inserted by the instrumentation phase (§4); its
	// behaviour is described by the attached ProbeInfo.
	OpProbe
	numOpcodes
)

// NumOpcodes is the number of defined opcodes (for cost tables).
const NumOpcodes = int(numOpcodes)

var opNames = [...]string{
	OpNop: "nop", OpMov: "mov", OpAdd: "add", OpSub: "sub", OpMul: "mul",
	OpDiv: "div", OpRem: "rem", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpCmpEq: "eq", OpCmpNe: "ne",
	OpCmpLt: "lt", OpCmpLe: "le", OpCmpGt: "gt", OpCmpGe: "ge",
	OpMin: "min", OpMax: "max", OpLoad: "load", OpStore: "store",
	OpAtomicAdd: "aadd", OpCall: "call", OpExtCall: "extcall",
	OpReadCycles: "rdcyc", OpProbe: "probe",
}

// String returns the mnemonic for the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsBinary reports whether op is a two-operand arithmetic, logic,
// comparison, or min/max operation.
func (op Opcode) IsBinary() bool {
	return op >= OpAdd && op <= OpMax
}

// ProbeKind distinguishes the probe designs of §4 and §5.4.
type ProbeKind uint8

const (
	// ProbeIR is the pure-IR probe (design "CI", Table 3): add Inc to
	// the thread-local instruction counter and fire handlers when it
	// passes the next-interrupt threshold.
	ProbeIR ProbeKind = iota
	// ProbeIRLoop is the §3.4 loop-transform probe: the increment is
	// (IndVar - Base) * Inc, computed from the induction variable.
	ProbeIRLoop
	// ProbeCycles is the IR-gated cycle-counter probe ("CI-Cycles"):
	// advance the IR count by Inc; when it passes the gate, read the
	// cycle counter and fire if the cycle interval has elapsed.
	ProbeCycles
	// ProbeCyclesLoop combines ProbeIRLoop accounting with the
	// cycle-counter gate.
	ProbeCyclesLoop
	// ProbeEvent counts discrete events ("CnB": calls and back-edges);
	// handlers fire every threshold events.
	ProbeEvent
	// ProbeEventCycles reads the cycle counter on every event
	// ("CnB-Cycles").
	ProbeEventCycles
)

var probeKindNames = [...]string{
	ProbeIR: "ir", ProbeIRLoop: "irloop", ProbeCycles: "cycles",
	ProbeCyclesLoop: "cyclesloop", ProbeEvent: "event",
	ProbeEventCycles: "eventcycles",
}

// String returns the probe kind name used by the printer.
func (k ProbeKind) String() string {
	if int(k) < len(probeKindNames) {
		return probeKindNames[k]
	}
	return fmt.Sprintf("probekind(%d)", uint8(k))
}

// ProbeInfo describes an instrumentation probe attached to an OpProbe
// instruction.
type ProbeInfo struct {
	Kind ProbeKind
	// Inc is the statically computed IR-instruction increment (for
	// ProbeIR*), the per-iteration body cost (for Probe*Loop), or the
	// event weight (for ProbeEvent*).
	Inc int64
	// IndVar and Base are the loop-transform registers: the increment
	// contributed is (IndVar - Base) * Inc.
	IndVar Reg
	Base   Reg
}

// Call is the call record of an OpCall or OpExtCall instruction.
type Call struct {
	Callee string
	Args   []Reg
}

// Instr is a single IR instruction.
//
// Operand conventions:
//   - binary ops:    Dst = A op (BImm ? Imm : B)
//   - OpMov:         Dst = (BImm ? Imm : A)
//   - OpLoad:        Dst = Mem[A + Imm]        (A may be NoReg)
//   - OpStore:       Mem[A + Imm] = B          (A may be NoReg)
//   - OpAtomicAdd:   Dst = Mem[A+Imm]; Mem[A+Imm] += B
//   - OpCall/OpExtCall: Dst = Call.Callee(Call.Args...)
//   - OpProbe:       see Probe
//
// Only calls use Call and only probes use Probe, so those live behind
// pointers and an instruction is 40 bytes.
type Instr struct {
	Op    Opcode
	BImm  bool
	Dst   Reg
	A, B  Reg
	Imm   int64
	Call  *Call
	Probe *ProbeInfo
}

// TermKind enumerates block terminators.
type TermKind uint8

const (
	// TermNone marks an unterminated block (invalid in a verified
	// function).
	TermNone TermKind = iota
	// TermJmp is an unconditional jump to Then.
	TermJmp
	// TermBr branches to Then when Cond != 0, else to Else.
	TermBr
	// TermRet returns Val (NoReg for void) from the function.
	TermRet
)

// Terminator ends a basic block.
type Terminator struct {
	Kind       TermKind
	Cond       Reg
	Then, Else *Block
	Val        Reg
}

// Block is a basic block: a run of instructions ended by a terminator.
type Block struct {
	Name   string
	Instrs []Instr
	Term   Terminator
	// Index is the block's position in Func.Blocks; it is maintained by
	// Func.Reindex and used as a dense key by analyses.
	Index int
}

// Succs appends the block's successor blocks to dst and returns it.
func (b *Block) Succs(dst []*Block) []*Block {
	switch b.Term.Kind {
	case TermJmp:
		dst = append(dst, b.Term.Then)
	case TermBr:
		dst = append(dst, b.Term.Then, b.Term.Else)
	}
	return dst
}

// Func is an IR function.
type Func struct {
	Name      string
	NumParams int
	// NumRegs is the number of virtual registers allocated, including
	// parameters. Grows via NewReg.
	NumRegs int
	// Blocks holds the function body; Blocks[0] is the entry block.
	Blocks []*Block
	// NoInstrument corresponds to "#pragma ci_probe disable": the
	// instrumentation phase must not add probes to this function.
	NoInstrument bool
	// Mod is the owning module.
	Mod *Module
	// spare holds the blocks ReserveBlocks set aside and NewBlock has
	// not handed out yet. It belongs to this Func value alone: a copy
	// of the struct must not take it along.
	spare []Block
}

// Entry returns the function's entry block, or nil for an empty body.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewReg allocates a fresh virtual register.
func (f *Func) NewReg() Reg {
	r := Reg(f.NumRegs)
	f.NumRegs++
	return r
}

// NewBlock appends a new, empty, unterminated block and returns it. It
// is named name, or "bN" for N the block count when name is empty; a
// name some block already has gets the first free suffix ".1", ".2", ….
// The block comes out of the function's slab (see ReserveBlocks), or is
// allocated alone when the slab is empty.
func (f *Func) NewBlock(name string) *Block {
	if name == "" {
		name = "b" + strconv.Itoa(len(f.Blocks))
	}
	if f.blockByName(name) != nil {
		base := name + "."
		for i := 1; ; i++ {
			name = base + strconv.Itoa(i)
			if f.blockByName(name) == nil {
				break
			}
		}
	}
	if len(f.spare) == 0 {
		f.ReserveBlocks(1)
	}
	b := &f.spare[0]
	f.spare = f.spare[1:]
	*b = Block{Name: name, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	return b
}

// ReserveBlocks readies the function for n more NewBlock calls: their
// blocks come out of one array and Blocks has room for them, so a
// transform that adds n blocks allocates at most twice, not n times and
// more for Blocks. When
// the slab has fewer than n blocks left, a new array of exactly n
// replaces it, so a reservation that is used in full allocates no byte
// more than n separate blocks would.
func (f *Func) ReserveBlocks(n int) {
	if len(f.spare) < n {
		f.spare = make([]Block, n)
	}
	f.Blocks = slices.Grow(f.Blocks, n)
}

func (f *Func) blockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// BlockByName returns the block with the given name, or nil.
func (f *Func) BlockByName(name string) *Block { return f.blockByName(name) }

// Reindex renumbers Block.Index to match slice positions. Transforms
// that add, remove or reorder blocks must call it before analyses run.
func (f *Func) Reindex() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// NumInstrs returns the total instruction count across all blocks
// (terminators count as one instruction each, as in LLVM IR).
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + 1
	}
	return n
}

// Extern declares an external, uninstrumented function (a stand-in for
// a C library function or a system call). Its Cost is what the VM
// charges per call; the compiler never sees it and must model such
// calls heuristically (§4: 100 IR instructions).
type Extern struct {
	Name string
	// Cost is the VM cycle cost of one call.
	Cost int64
	// Blocking marks calls during which the thread is suspended (e.g.
	// a blocking system call); interval-accuracy statistics attribute
	// the whole cost to one uninstrumentable gap either way, but
	// blocking calls additionally defer pending hardware interrupts.
	Blocking bool
}

// Module is a compilation unit: functions plus extern declarations and
// a flat data-memory size.
type Module struct {
	Name  string
	Funcs []*Func
	// Externs maps extern name to its declaration.
	Externs map[string]*Extern
	// Imports names functions defined in other build units (§2.6
	// modular compilation): calls to them verify here and resolve at
	// link time (ir.Link).
	Imports map[string]bool
	// MemWords is the size, in int64 words, of the module's flat data
	// memory.
	MemWords int64
}

// NewModule creates an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, Externs: make(map[string]*Extern), Imports: make(map[string]bool)}
}

// DeclareImport registers a cross-module function import.
func (m *Module) DeclareImport(name string) { m.Imports[name] = true }

// NewFunc creates a function with the given name and parameter count
// and adds it to the module.
func (m *Module) NewFunc(name string, numParams int) *Func {
	f := &Func{Name: name, NumParams: numParams, NumRegs: numParams, Mod: m}
	m.Funcs = append(m.Funcs, f)
	return f
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// DeclareExtern registers an external function with the given VM cost.
func (m *Module) DeclareExtern(name string, cost int64) *Extern {
	e := &Extern{Name: name, Cost: cost}
	m.Externs[name] = e
	return e
}

// Clone returns a deep copy of the module. Instrumentation operates on
// clones so one parsed/built program can be compiled under many
// configurations. Block indices must be fresh (Func.Reindex): branch
// targets are found through them.
//
// The copy's functions, blocks, instructions, call records, call
// arguments and probe descriptions each come out of one array sized by
// a counting pass. Every slice handed out has its capacity cut at its
// length, so an append to one block or call copies out of the array and
// cannot reach its neighbour.
func (m *Module) Clone() *Module {
	nm := NewModule(m.Name)
	nm.MemWords = m.MemWords
	for name, e := range m.Externs {
		c := *e
		nm.Externs[name] = &c
	}
	for name := range m.Imports {
		nm.Imports[name] = true
	}
	var nblocks, ninstrs, ncalls, nargs, nprobes int
	for _, f := range m.Funcs {
		nblocks += len(f.Blocks)
		for _, b := range f.Blocks {
			ninstrs += len(b.Instrs)
			for i := range b.Instrs {
				if c := b.Instrs[i].Call; c != nil {
					ncalls++
					nargs += len(c.Args)
				}
				if b.Instrs[i].Probe != nil {
					nprobes++
				}
			}
		}
	}
	funcs := make([]Func, len(m.Funcs))
	nm.Funcs = make([]*Func, len(m.Funcs))
	blocks := make([]Block, nblocks)
	blockPtrs := make([]*Block, nblocks)
	instrs := make([]Instr, ninstrs)
	calls := make([]Call, ncalls)
	args := make([]Reg, nargs)
	probes := make([]ProbeInfo, nprobes)
	for fi, f := range m.Funcs {
		nf := &funcs[fi]
		*nf = *f
		nf.Mod, nf.spare = nm, nil
		nm.Funcs[fi] = nf
		n := len(f.Blocks)
		nf.Blocks = blockPtrs[:n:n]
		for i, b := range f.Blocks {
			nb := &blocks[i]
			nf.Blocks[i] = nb
			k := copy(instrs, b.Instrs)
			*nb = Block{Name: b.Name, Instrs: instrs[:k:k], Term: b.Term, Index: i}
			instrs = instrs[k:]
			for j := range nb.Instrs {
				in := &nb.Instrs[j]
				if in.Call != nil {
					c := &calls[0]
					calls = calls[1:]
					c.Callee = in.Call.Callee
					if len(in.Call.Args) > 0 {
						a := copy(args, in.Call.Args)
						c.Args, args = args[:a:a], args[a:]
					}
					in.Call = c
				}
				if in.Probe != nil {
					probes[0] = *in.Probe
					in.Probe, probes = &probes[0], probes[1:]
				}
			}
		}
		// All blocks exist now, so terminators can point at them.
		for _, nb := range nf.Blocks {
			if nb.Term.Then != nil {
				nb.Term.Then = nf.Blocks[nb.Term.Then.Index]
			}
			if nb.Term.Else != nil {
				nb.Term.Else = nf.Blocks[nb.Term.Else.Index]
			}
		}
		blocks, blockPtrs = blocks[n:], blockPtrs[n:]
	}
	return nm
}
