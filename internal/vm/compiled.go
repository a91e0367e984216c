// Compiled execution tier: pre-decodes ir.Module functions into
// closure-threaded code — a flat []op instruction stream per function,
// dispatched as `for pc >= 0 { pc = code[pc](fr) }` — with the common
// instruction pairs the corpus exhibits fused into superinstructions
// (compare+branch, load+arith, arith+store) and the untaken-probe
// check specialized down to a single counter compare
// (ciruntime.ProbeIRDue / ProbeCyclesDue).
//
// The tiers share semantics, not dispatch: a taken probe (probeTaken),
// hardware interrupts (checkHW), external calls (execExtCall), the
// cache-miss draw (memCost) and the frame pool are code both tiers
// call. Dispatch, the untaken probe check, fusion and superblocks are
// this tier's own, and so what the tier oracle (sanitize.DiffTiers)
// compares against the interpreter; faults in shared code are left to
// the goldens.
//
// The tier is cycle-exact with the interpreter: every Stats field
// (Cycles, Instrs, Probes, fires, cycle reads) matches bit for bit at
// every observation point. The rules that make that hold:
//
//   - Only "simple" ops (mov and the binary ALU group) are
//     batch-charged, at segment start; they cannot fault, observe, or
//     reach the CI runtime, so no observation point can see a partial
//     segment.
//   - Every op that can fault or observe (memory ops, call, extcall,
//     rdcyc, probe) charges in exact interpreter order, including the
//     one rand() draw per memory op that feeds the cache-miss model.
//   - Fused pairs preserve the interpreter's interleaving of charges,
//     fault checks and observer calls; fusion only removes dispatch.
//
// Hooks: a thread with a per-probe hook — OnProbe (forced-fire
// schedules) or an enabled obs scope — runs a second, hooked form of
// the module, whose probe units call the interpreter's own execProbe;
// every other unit is the plain form's. The OnStore/OnLoad/OnAtomic
// observers are nil-checked on memory ops in both forms.
//
// Both forms belong to a Code, the immutable compiled value of one
// (module, cost model): each is built at most once, on first use, and
// shared by every VM and goroutine that runs the Code.
package vm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// Tier selects a VM execution engine.
type Tier int

const (
	// TierCompiled is the closure-threaded compiled tier, the default.
	TierCompiled Tier = iota
	// TierInterpreter is the switch-dispatch interpreter: the reference
	// semantics of the tier oracle.
	TierInterpreter
)

// String names the tier.
func (t Tier) String() string {
	if t == TierCompiled {
		return "compiled"
	}
	return "interpreter"
}

// MiscompileForTest, when set before a Code first builds a form,
// makes fused compare+branch epilogues skip the terminator cycle
// charge — a deliberate cycle-only miscompile (memory and control flow
// stay correct). The tier-differential harness uses it to prove the
// stat-parity oracle catches pure cycle drift and to exercise the
// ddmin shrinker. Never set outside tests.
var MiscompileForTest bool

// op is one compiled instruction unit: execute against the frame and
// return the next pc, or -1 to stop (return or error — fr.err
// distinguishes).
type op func(fr *frame) int

// frame is an activation record of either tier (the interpreter uses
// only regs). Frames live in the thread's depth-indexed pool so
// steady-state execution is allocation-free.
type frame struct {
	t    *Thread
	regs []int64
	ret  int64
	err  error
}

// cfunc is one compiled function.
type cfunc struct {
	name      string
	numParams int
	numRegs   int
	// zeroRegs is the entry live-in set (see liveInRegs): the only
	// registers a call must zero in a recycled pooled frame.
	zeroRegs []int32
	code     []op
}

// compiledModule is one form of a module. Closures capture only
// immutable compile-time state (cost constants, IR metadata, callee
// pointers) and reach all mutable state through the frame's thread, so
// any thread of any VM over the form's Code can run them, concurrently.
type compiledModule struct {
	// funcs holds the compiled function of each function of the
	// module, at its index in Module.Funcs (nil for an empty body).
	funcs []*cfunc
	// hooked marks the hooked form, whose probes call execProbe.
	hooked bool
	// superblocks counts the loop closures compileFunc emitted, and
	// addrOps the address-mode µops in their bodies.
	superblocks, addrOps int
}

// Code is a module compiled against a cost model, the way the paper's
// pass builds a binary once and runs it many times: an immutable value
// that any number of VMs, on any goroutines, run at once. It owns the
// module's function table, each function's calls resolved to their
// callees once, so a thread looks nothing up by name to make a call.
// Its plain and hooked forms are each pre-decoded at most once, on
// first use, so creating a Code pre-decodes nothing until a
// compiled-tier run needs it.
// The module and the model are only read, by the Code and by every VM
// over it.
type Code struct {
	mod   *ir.Module
	model *CostModel
	// byName maps a function's name to its index in mod.Funcs.
	byName map[string]int
	// callees[i][k] is the index in mod.Funcs of the callee of
	// mod.Funcs[i].Calls[k], or -1 when the module defines no function
	// of that name (an extern's record, or a call that fails when it
	// runs).
	callees       [][]int32
	plain, hooked lazyForm
}

// lazyForm is one form of a Code, built on first use.
type lazyForm struct {
	once sync.Once
	cm   *compiledModule
}

// NewCode returns the Code of mod under model (nil for Default),
// building neither form yet. Every function's call table is resolved
// here, into one array for the module.
func NewCode(mod *ir.Module, model *CostModel) *Code {
	if model == nil {
		model = Default()
	}
	c := &Code{mod: mod, model: model, byName: make(map[string]int, len(mod.Funcs)),
		callees: make([][]int32, len(mod.Funcs))}
	ncalls := 0
	for i, f := range mod.Funcs {
		c.byName[f.Name] = i
		ncalls += len(f.Calls)
	}
	all := make([]int32, ncalls)
	for i, f := range mod.Funcs {
		n := len(f.Calls)
		c.callees[i], all = all[:n:n], all[n:]
		for k := range f.Calls {
			c.callees[i][k] = -1
			if fi, ok := c.byName[f.Calls[k].Callee]; ok {
				c.callees[i][k] = int32(fi)
			}
		}
	}
	return c
}

// form returns the plain compiled form, or the hooked form when hooked
// is set, building it on first use.
func (c *Code) form(hooked bool) *compiledModule {
	f := &c.plain
	if hooked {
		f = &c.hooked
	}
	f.once.Do(func() { f.cm = compileModule(c, hooked) })
	return f.cm
}

// unitKind classifies one compiled unit (possibly a fused pair).
type unitKind uint8

const (
	uSimple unitKind = iota // mov or binary ALU: batchable
	uLoad
	uStore
	uAtomic
	uCall
	uExtCall
	uReadCycles
	uProbe
	uLoadArith  // superinstruction: load feeding the next ALU op
	uArithStore // superinstruction: ALU op feeding the next store's value
	uBad        // unknown opcode: charges, then errors (interpreter parity)
)

// unit is one dispatch slot before emission: the primary instruction
// and, for fused kinds, the consumed second instruction.
type unit struct {
	kind unitKind
	a    *ir.Instr
	b    *ir.Instr
}

// selectUnits groups a block's instructions into compiled units,
// applying the superinstruction fusion rules greedily left to right,
// and returns the compare instruction to fuse into the branch epilogue
// (nil when the terminator is not fusable). Nops are dropped entirely
// (the interpreter never counts them) and do not break fusion.
func selectUnits(b *ir.Block) ([]unit, *ir.Instr) {
	var units []unit
	ins := b.Instrs
	for i := 0; i < len(ins); {
		if ins[i].Op == ir.OpNop {
			i++
			continue
		}
		in := &ins[i]
		j := i + 1
		for j < len(ins) && ins[j].Op == ir.OpNop {
			j++
		}
		var nx *ir.Instr
		if j < len(ins) {
			nx = &ins[j]
		}
		switch {
		case in.Op == ir.OpLoad && nx != nil && nx.Op.IsBinary() && in.Dst != ir.NoReg &&
			(nx.A == in.Dst || (!nx.BImm && nx.B == in.Dst)):
			units = append(units, unit{kind: uLoadArith, a: in, b: nx})
			i = j + 1
			continue
		case in.Op.IsBinary() && nx != nil && nx.Op == ir.OpStore && nx.B == in.Dst:
			units = append(units, unit{kind: uArithStore, a: in, b: nx})
			i = j + 1
			continue
		}
		switch {
		case in.Op == ir.OpMov || in.Op.IsBinary():
			units = append(units, unit{kind: uSimple, a: in})
		case in.Op == ir.OpLoad:
			units = append(units, unit{kind: uLoad, a: in})
		case in.Op == ir.OpStore:
			units = append(units, unit{kind: uStore, a: in})
		case in.Op == ir.OpAtomicAdd:
			units = append(units, unit{kind: uAtomic, a: in})
		case in.Op == ir.OpCall:
			units = append(units, unit{kind: uCall, a: in})
		case in.Op == ir.OpExtCall:
			units = append(units, unit{kind: uExtCall, a: in})
		case in.Op == ir.OpReadCycles:
			units = append(units, unit{kind: uReadCycles, a: in})
		case in.Op == ir.OpProbe:
			units = append(units, unit{kind: uProbe, a: in})
		default:
			units = append(units, unit{kind: uBad, a: in})
		}
		i = j
	}
	if b.Term.Kind == ir.TermBr && len(units) > 0 {
		last := units[len(units)-1]
		if last.kind == uSimple && last.a.Op >= ir.OpCmpEq && last.a.Op <= ir.OpCmpGe &&
			last.a.Dst == b.Term.Cond {
			return units[:len(units)-1], last.a
		}
	}
	return units, nil
}

// FusiblePairs counts, per superinstruction kind, how many pairs the
// compiled tier fuses across the module: compare+branch epilogues,
// load+arith, and arith+store. The fuzz corpus's generation-coverage
// assertion uses it to guarantee the differential oracle exercises
// every fused path rather than vacuously passing on unfused code.
func FusiblePairs(m *ir.Module) (cmpBr, loadArith, arithStore int) {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			units, cb := selectUnits(b)
			if cb != nil {
				cmpBr++
			}
			for _, u := range units {
				switch u.kind {
				case uLoadArith:
					loadArith++
				case uArithStore:
					arithStore++
				}
			}
		}
	}
	return cmpBr, loadArith, arithStore
}

// compileModule compiles every function of c's module against its cost
// model. Functions are compiled in two phases — shells first, then
// code — so OpCall closures can capture callee shells before their
// code exists (recursion, forward references).
func compileModule(c *Code, hooked bool) *compiledModule {
	mod := c.mod
	cm := &compiledModule{funcs: make([]*cfunc, len(mod.Funcs)), hooked: hooked}
	for i, f := range mod.Funcs {
		if len(f.Blocks) == 0 {
			continue // fall back to the interpreter's behavior
		}
		cm.funcs[i] = &cfunc{name: f.Name, numParams: f.NumParams, numRegs: f.NumRegs}
	}
	for i, f := range mod.Funcs {
		if cf := cm.funcs[i]; cf != nil {
			compileFunc(cf, f, c.callees[i], c.model, cm)
		}
	}
	return cm
}

// blockPlan is one block's compilation plan from the layout pass.
type blockPlan struct {
	units []unit
	cmpBr *ir.Instr // compare fused into the branch epilogue, or nil
	pc    int       // pc of the block's first unit (or its epilogue)
}

func compileFunc(cf *cfunc, f *ir.Func, callees []int32, model *CostModel, cm *compiledModule) {
	// Layout pass: select units per block and assign pcs. Every block
	// gets exactly len(units)+1 slots — the +1 is the terminator
	// epilogue (fused with the trailing compare when cmpBr is set).
	plans := make([]blockPlan, len(f.Blocks))
	pcOf := make(map[*ir.Block]int, len(f.Blocks))
	planOf := make(map[*ir.Block]*blockPlan, len(f.Blocks))
	pc := 0
	for i, b := range f.Blocks {
		units, cb := selectUnits(b)
		plans[i] = blockPlan{units: units, cmpBr: cb, pc: pc}
		pcOf[b] = pc
		planOf[b] = &plans[i]
		pc += len(units) + 1
	}

	// Superblock pass: each canonical head⇄body loop gets one extra pc
	// slot holding the batched loop closure (see superblock.go). Jumps
	// INTO the head land on the superblock (emitCtx.entry); the head's
	// plain pc stays addressable as the superblock's bail target.
	type sbCand struct {
		head, body *ir.Block
		cmp        *ir.Instr
		bp         *blockPlan
		pc         int
	}
	var cands []sbCand
	superPC := make(map[*ir.Block]int)
	// A superblock's register view is frameRegs words, so larger
	// functions run on the plain path only.
	for i, b := range f.Blocks {
		if body, bp := superblockBody(b, &plans[i], planOf); body != nil && f.NumRegs <= frameRegs {
			superPC[b] = pc
			cands = append(cands, sbCand{head: b, body: body, cmp: plans[i].cmpBr, bp: bp, pc: pc})
			pc++
		}
	}
	code := make([]op, pc)

	// Emission pass.
	ec := &emitCtx{f: f, callees: callees, model: model, cm: cm, pcOf: pcOf, superPC: superPC}
	for i, b := range f.Blocks {
		p := plans[i]
		emitBlock(ec, f, b, p, code)
	}
	for _, c := range cands {
		code[c.pc] = emitSuperblock(ec, c.head, c.body, c.cmp, c.bp)
	}
	cm.superblocks += len(cands)
	cf.code = code
	cf.zeroRegs = liveInRegs(f)
}

type emitCtx struct {
	f *ir.Func
	// callees is f's call table resolved (Code.callees).
	callees []int32
	model   *CostModel
	cm      *compiledModule
	pcOf    map[*ir.Block]int
	superPC map[*ir.Block]int
}

// entry resolves a jump target: superblocked heads are entered through
// their loop closure, everything else at its first plain slot.
func (ec *emitCtx) entry(b *ir.Block) int {
	if pc, ok := ec.superPC[b]; ok {
		return pc
	}
	return ec.pcOf[b]
}

// emitBlock emits the block's units and epilogue into code. Maximal
// runs of uSimple units are batch-charged at the run's first slot
// (cycles and instruction counts folded into one pair of adds); all
// other units charge themselves in interpreter order. f is ec.f, passed
// apart so that a hooked probe's capture of it does not make ec's maps
// escape to the heap.
func emitBlock(ec *emitCtx, f *ir.Func, b *ir.Block, p blockPlan, code []op) {
	units := p.units
	pc := p.pc
	for i := 0; i < len(units); {
		if units[i].kind != uSimple {
			code[pc] = emitUnit(ec, f, b, units[i], pc+1)
			pc++
			i++
			continue
		}
		// Segment of simple ops: charge the whole run up front.
		j := i
		var segCycles int64
		for j < len(units) && units[j].kind == uSimple {
			segCycles += ec.model.OpCost[units[j].a.Op]
			j++
		}
		segInstrs := int64(j - i)
		first := compileCompute(units[i].a, pc+1)
		code[pc] = chargedOp(segCycles, segInstrs, first)
		pc++
		for k := i + 1; k < j; k++ {
			code[pc] = compileCompute(units[k].a, pc+1)
			pc++
		}
		i = j
	}
	code[pc] = emitEpilogue(ec, b, p.cmpBr)
}

// chargedOp prefixes inner with a batch charge for a whole simple-op
// segment.
func chargedOp(cycles, instrs int64, inner op) op {
	return func(fr *frame) int {
		t := fr.t
		t.Stats.Cycles += cycles
		t.Stats.Instrs += instrs
		return inner(fr)
	}
}

// compileCompute emits the compute-only closure for a mov or binary
// ALU instruction — no charging (the segment head batch-charged it).
// Each opcode × operand shape gets its own specialized closure so the
// hot path runs no switch and no ir.Instr loads.
func compileCompute(in *ir.Instr, next int) op {
	dst, a := int(in.Dst), int(in.A)
	imm := in.Imm
	if in.Op == ir.OpMov {
		if in.BImm {
			return func(fr *frame) int { fr.regs[dst] = imm; return next }
		}
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a]; return next }
	}
	if in.BImm {
		switch in.Op {
		case ir.OpAdd:
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] + imm; return next }
		case ir.OpSub:
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] - imm; return next }
		case ir.OpMul:
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] * imm; return next }
		case ir.OpDiv:
			return func(fr *frame) int {
				var out int64
				if imm != 0 {
					out = fr.regs[a] / imm
				}
				fr.regs[dst] = out
				return next
			}
		case ir.OpRem:
			return func(fr *frame) int {
				var out int64
				if imm != 0 {
					out = fr.regs[a] % imm
				}
				fr.regs[dst] = out
				return next
			}
		case ir.OpAnd:
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] & imm; return next }
		case ir.OpOr:
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] | imm; return next }
		case ir.OpXor:
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] ^ imm; return next }
		case ir.OpShl:
			sh := uint64(imm) & 63
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] << sh; return next }
		case ir.OpShr:
			sh := uint64(imm) & 63
			return func(fr *frame) int { fr.regs[dst] = fr.regs[a] >> sh; return next }
		case ir.OpCmpEq:
			return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] == imm); return next }
		case ir.OpCmpNe:
			return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] != imm); return next }
		case ir.OpCmpLt:
			return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] < imm); return next }
		case ir.OpCmpLe:
			return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] <= imm); return next }
		case ir.OpCmpGt:
			return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] > imm); return next }
		case ir.OpCmpGe:
			return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] >= imm); return next }
		case ir.OpMin:
			return func(fr *frame) int { fr.regs[dst] = min(fr.regs[a], imm); return next }
		case ir.OpMax:
			return func(fr *frame) int { fr.regs[dst] = max(fr.regs[a], imm); return next }
		}
	}
	bb := int(in.B)
	switch in.Op {
	case ir.OpAdd:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] + fr.regs[bb]; return next }
	case ir.OpSub:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] - fr.regs[bb]; return next }
	case ir.OpMul:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] * fr.regs[bb]; return next }
	case ir.OpDiv:
		return func(fr *frame) int {
			var out int64
			if bv := fr.regs[bb]; bv != 0 {
				out = fr.regs[a] / bv
			}
			fr.regs[dst] = out
			return next
		}
	case ir.OpRem:
		return func(fr *frame) int {
			var out int64
			if bv := fr.regs[bb]; bv != 0 {
				out = fr.regs[a] % bv
			}
			fr.regs[dst] = out
			return next
		}
	case ir.OpAnd:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] & fr.regs[bb]; return next }
	case ir.OpOr:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] | fr.regs[bb]; return next }
	case ir.OpXor:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] ^ fr.regs[bb]; return next }
	case ir.OpShl:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] << (uint64(fr.regs[bb]) & 63); return next }
	case ir.OpShr:
		return func(fr *frame) int { fr.regs[dst] = fr.regs[a] >> (uint64(fr.regs[bb]) & 63); return next }
	case ir.OpCmpEq:
		return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] == fr.regs[bb]); return next }
	case ir.OpCmpNe:
		return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] != fr.regs[bb]); return next }
	case ir.OpCmpLt:
		return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] < fr.regs[bb]); return next }
	case ir.OpCmpLe:
		return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] <= fr.regs[bb]); return next }
	case ir.OpCmpGt:
		return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] > fr.regs[bb]); return next }
	case ir.OpCmpGe:
		return func(fr *frame) int { fr.regs[dst] = b2i(fr.regs[a] >= fr.regs[bb]); return next }
	case ir.OpMin:
		return func(fr *frame) int { fr.regs[dst] = min(fr.regs[a], fr.regs[bb]); return next }
	case ir.OpMax:
		return func(fr *frame) int { fr.regs[dst] = max(fr.regs[a], fr.regs[bb]); return next }
	}
	// Unreachable for verified modules; keep a defensive closure.
	opc := in.Op
	return func(fr *frame) int {
		fr.err = fmt.Errorf("vm: unhandled opcode %v", opc)
		return -1
	}
}

// emitUnit emits one non-simple unit.
func emitUnit(ec *emitCtx, f *ir.Func, b *ir.Block, u unit, next int) op {
	in := u.a
	m := ec.model
	fname, bname := ec.f.Name, b.Name
	switch u.kind {
	case uLoad:
		loadCost := m.OpCost[ir.OpLoad]
		dst, aReg, off := int(in.Dst), in.A, in.Imm
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += t.memCost(loadCost)
			addr := off
			if aReg != ir.NoReg {
				addr += fr.regs[aReg]
			}
			if uint64(addr) >= uint64(len(t.VM.mem)) {
				if err := t.VM.grow(addr); err != nil {
					fr.err = err
					return -1
				}
			}
			v := t.VM.mem[addr]
			fr.regs[dst] = v
			if t.OnLoad != nil {
				t.OnLoad(fname, bname, addr, v)
			}
			return next
		}
	case uStore:
		storeCost := m.OpCost[ir.OpStore]
		vReg, aReg, off := int(in.B), in.A, in.Imm
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += t.memCost(storeCost)
			addr := off
			if aReg != ir.NoReg {
				addr += fr.regs[aReg]
			}
			if uint64(addr) >= uint64(len(t.VM.mem)) {
				if err := t.VM.grow(addr); err != nil {
					fr.err = err
					return -1
				}
			}
			v := fr.regs[vReg]
			t.VM.mem[addr] = v
			if t.OnStore != nil {
				t.OnStore(fname, bname, addr, v)
			}
			return next
		}
	case uAtomic:
		aaddCost := m.OpCost[ir.OpAtomicAdd]
		dst, vReg, aReg, off := in.Dst, int(in.B), in.A, in.Imm
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += t.memCost(aaddCost)
			addr := off
			if aReg != ir.NoReg {
				addr += fr.regs[aReg]
			}
			if uint64(addr) >= uint64(len(t.VM.mem)) {
				if err := t.VM.grow(addr); err != nil {
					fr.err = err
					return -1
				}
			}
			add := fr.regs[vReg]
			old := atomic.AddInt64(&t.VM.mem[addr], add) - add
			if dst != ir.NoReg {
				fr.regs[dst] = old
			}
			if t.OnAtomic != nil {
				t.OnAtomic(fname, bname, addr, old, add)
			} else if t.OnStore != nil {
				t.OnStore(fname, bname, addr, old+add)
			}
			return next
		}
	case uLoadArith:
		loadCost := m.OpCost[ir.OpLoad]
		arithCost := m.OpCost[u.b.Op]
		dst, aReg, off := int(in.Dst), in.A, in.Imm
		arith := compileCompute(u.b, next)
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += t.memCost(loadCost)
			addr := off
			if aReg != ir.NoReg {
				addr += fr.regs[aReg]
			}
			if uint64(addr) >= uint64(len(t.VM.mem)) {
				if err := t.VM.grow(addr); err != nil {
					fr.err = err
					return -1
				}
			}
			v := t.VM.mem[addr]
			fr.regs[dst] = v
			if t.OnLoad != nil {
				t.OnLoad(fname, bname, addr, v)
			}
			t.Stats.Instrs++
			t.Stats.Cycles += arithCost
			return arith(fr)
		}
	case uArithStore:
		arithCost := m.OpCost[in.Op]
		storeCost := m.OpCost[ir.OpStore]
		st := u.b
		vReg, aReg, off := int(st.B), st.A, st.Imm
		arith := compileCompute(in, next)
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += arithCost
			arith(fr)
			t.Stats.Instrs++
			t.Stats.Cycles += t.memCost(storeCost)
			addr := off
			if aReg != ir.NoReg {
				addr += fr.regs[aReg]
			}
			if uint64(addr) >= uint64(len(t.VM.mem)) {
				if err := t.VM.grow(addr); err != nil {
					fr.err = err
					return -1
				}
			}
			v := fr.regs[vReg]
			t.VM.mem[addr] = v
			if t.OnStore != nil {
				t.OnStore(fname, bname, addr, v)
			}
			return next
		}
	case uCall:
		callCost := m.OpCost[ir.OpCall]
		var callee *cfunc
		if fi := ec.callees[in.Imm]; fi >= 0 {
			callee = ec.cm.funcs[fi]
		}
		c := f.CallOf(in)
		calleeName, argRegs, dst := c.Callee, c.Args, in.Dst
		if callee == nil {
			return func(fr *frame) int {
				t := fr.t
				t.Stats.Instrs++
				t.Stats.Cycles += callCost
				fr.err = fmt.Errorf("vm: call to unknown function %q", calleeName)
				return -1
			}
		}
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += callCost
			nfr, err := t.pushFrame(callee.name, callee.numRegs)
			if err != nil {
				fr.err = err
				return -1
			}
			for _, r := range callee.zeroRegs {
				nfr.regs[r] = 0
			}
			for k, r := range argRegs {
				nfr.regs[k] = fr.regs[r]
			}
			code := callee.code
			pc := 0
			for pc >= 0 {
				pc = code[pc](nfr)
			}
			t.depth--
			if nfr.err != nil {
				fr.err = nfr.err
				return -1
			}
			if dst != ir.NoReg {
				fr.regs[dst] = nfr.ret
			}
			return next
		}
	case uExtCall:
		c, dst := f.CallOf(in), in.Dst
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			if err := t.execExtCall(c, dst, fr.regs); err != nil {
				fr.err = err
				return -1
			}
			return next
		}
	case uReadCycles:
		cost := m.OpCost[ir.OpReadCycles]
		dst := int(in.Dst)
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += cost
			fr.regs[dst] = t.Stats.Cycles
			return next
		}
	case uProbe:
		p := in.Probe()
		if ec.cm.hooked {
			return hookedProbe(f, b, p, next)
		}
		return emitProbe(ec, &p, next)
	default: // uBad
		cost := m.OpCost[in.Op]
		opc := in.Op
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += cost
			fr.err = fmt.Errorf("vm: unhandled opcode %v", opc)
			return -1
		}
	}
}

// emitProbe specializes the probe's untaken check into the dispatch
// loop: for the IR designs it is Probes++, the ProbeBase charge, and
// ciruntime's single counter compare. The taken half is the
// interpreter's own probeTaken, reached through taken. It is the plain
// form's probe, so it has no hook arm, and each kind's closure keeps
// its heap size class (TestPlainProbeClosureSize).
func emitProbe(ec *emitCtx, p *ir.ProbeInfo, next int) op {
	probeBase := ec.model.ProbeBase
	switch p.Kind {
	case ir.ProbeIR:
		inc := p.Inc
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Probes++
			t.Stats.Cycles += probeBase
			if !t.RT.ProbeIRDue(inc, t.Stats.Cycles) {
				return next
			}
			return taken(fr, ir.ProbeIR, 0, next)
		}
	case ir.ProbeIRLoop:
		pinc, indVar, base := p.Inc, p.IndVar, p.Base
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Probes++
			t.Stats.Cycles += probeBase
			iters := fr.regs[indVar] - fr.regs[base]
			if iters < 0 {
				iters = 0
			}
			if !t.RT.ProbeIRDue(iters*pinc, t.Stats.Cycles) {
				return next
			}
			return taken(fr, ir.ProbeIRLoop, 0, next)
		}
	case ir.ProbeCycles:
		inc := p.Inc
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Probes++
			t.Stats.Cycles += probeBase
			if !t.RT.ProbeCyclesDue(inc, t.Stats.Cycles) {
				return next
			}
			return taken(fr, ir.ProbeCycles, 0, next)
		}
	case ir.ProbeCyclesLoop:
		pinc, indVar, base := p.Inc, p.IndVar, p.Base
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Probes++
			t.Stats.Cycles += probeBase
			iters := fr.regs[indVar] - fr.regs[base]
			if iters < 0 {
				iters = 0
			}
			if !t.RT.ProbeCyclesDue(iters*pinc, t.Stats.Cycles) {
				return next
			}
			return taken(fr, ir.ProbeCyclesLoop, 0, next)
		}
	case ir.ProbeEvent:
		// No cheap gate: every event reaches the runtime, as in the CnB
		// design.
		inc := p.Inc
		return func(fr *frame) int {
			fr.t.Stats.Probes++
			fr.t.Stats.Cycles += probeBase
			return taken(fr, ir.ProbeEvent, inc, next)
		}
	default: // ir.ProbeEventCycles
		return func(fr *frame) int {
			fr.t.Stats.Probes++
			return taken(fr, ir.ProbeEventCycles, 0, next)
		}
	}
}

// taken runs the shared taken half of a probe for a compiled closure,
// returning next, or -1 with fr.err set.
func taken(fr *frame, kind ir.ProbeKind, inc int64, next int) int {
	if _, err := fr.t.probeTaken(kind, inc); err != nil {
		fr.err = err
		return -1
	}
	return next
}

// hookedProbe is the hooked form's probe unit: the interpreter's
// execProbe, which runs the hooks at the IR site f/b.
func hookedProbe(f *ir.Func, b *ir.Block, p ir.ProbeInfo, next int) op {
	return func(fr *frame) int {
		if err := fr.t.execProbe(f, b, p, fr.regs); err != nil {
			fr.err = err
			return -1
		}
		return next
	}
}

// emitEpilogue emits the block-end slot: terminator charge, step
// budget, hardware interrupts, then control transfer — fused with the
// trailing compare when cmpBr is set, so tight loop back edges execute
// one closure per iteration tail.
func emitEpilogue(ec *emitCtx, b *ir.Block, cmpBr *ir.Instr) op {
	m := ec.model
	termCost := m.TermCost
	fname := ec.f.Name
	if cmpBr != nil {
		cmpCost := m.OpCost[cmpBr.Op]
		cond := int(cmpBr.Dst)
		thenPC, elsePC := ec.entry(b.Term.Then), ec.entry(b.Term.Else)
		cmp := compileCompute(cmpBr, 0)
		broken := MiscompileForTest
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Instrs++
			t.Stats.Cycles += cmpCost
			cmp(fr)
			if !broken {
				t.Stats.Cycles += termCost
			}
			t.Stats.Instrs++
			if t.limit > 0 && t.Stats.Instrs > t.limit {
				fr.err = fmt.Errorf("vm: %w: instruction limit %d in %q", ErrStepBudget, t.limit, fname)
				return -1
			}
			if t.VM.HW != nil {
				if err := t.checkHW(); err != nil {
					fr.err = err
					return -1
				}
			}
			if fr.regs[cond] != 0 {
				return thenPC
			}
			return elsePC
		}
	}
	switch b.Term.Kind {
	case ir.TermJmp:
		thenPC := ec.entry(b.Term.Then)
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Cycles += termCost
			t.Stats.Instrs++
			if t.limit > 0 && t.Stats.Instrs > t.limit {
				fr.err = fmt.Errorf("vm: %w: instruction limit %d in %q", ErrStepBudget, t.limit, fname)
				return -1
			}
			if t.VM.HW != nil {
				if err := t.checkHW(); err != nil {
					fr.err = err
					return -1
				}
			}
			return thenPC
		}
	case ir.TermBr:
		cond := int(b.Term.Cond)
		thenPC, elsePC := ec.entry(b.Term.Then), ec.entry(b.Term.Else)
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Cycles += termCost
			t.Stats.Instrs++
			if t.limit > 0 && t.Stats.Instrs > t.limit {
				fr.err = fmt.Errorf("vm: %w: instruction limit %d in %q", ErrStepBudget, t.limit, fname)
				return -1
			}
			if t.VM.HW != nil {
				if err := t.checkHW(); err != nil {
					fr.err = err
					return -1
				}
			}
			if fr.regs[cond] != 0 {
				return thenPC
			}
			return elsePC
		}
	case ir.TermRet:
		val := b.Term.Val
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Cycles += termCost
			t.Stats.Instrs++
			if t.limit > 0 && t.Stats.Instrs > t.limit {
				fr.err = fmt.Errorf("vm: %w: instruction limit %d in %q", ErrStepBudget, t.limit, fname)
				return -1
			}
			if t.VM.HW != nil {
				if err := t.checkHW(); err != nil {
					fr.err = err
					return -1
				}
			}
			if val != ir.NoReg {
				fr.ret = fr.regs[val]
			} else {
				fr.ret = 0
			}
			return -1
		}
	default:
		bname := b.Name
		return func(fr *frame) int {
			t := fr.t
			t.Stats.Cycles += termCost
			t.Stats.Instrs++
			if t.limit > 0 && t.Stats.Instrs > t.limit {
				fr.err = fmt.Errorf("vm: %w: instruction limit %d in %q", ErrStepBudget, t.limit, fname)
				return -1
			}
			if t.VM.HW != nil {
				if err := t.checkHW(); err != nil {
					fr.err = err
					return -1
				}
			}
			fr.err = fmt.Errorf("vm: unterminated block %q in %q", bname, fname)
			return -1
		}
	}
}

// frameRegs is the least capacity of a pooled frame's register file,
// so a superblock can index a fixed-size view without bounds checks.
const frameRegs = 256

// pushFrame takes the frame for the next call depth from the thread's
// pool, which both tiers share, with a register file of numRegs words
// (capacity at least frameRegs).
// The registers of a recycled frame hold its previous occupant's
// values: the caller writes the arguments and zeroes every other
// register the callee can read before writing — all of them on the
// interpreter, the entry live-in set (liveInRegs) on the compiled tier.
// The caller decrements t.depth when the callee returns.
func (t *Thread) pushFrame(name string, numRegs int) (*frame, error) {
	t.depth++
	if t.depth > maxDepth {
		t.depth--
		return nil, fmt.Errorf("vm: %w: depth exceeds %d in %q", ErrCallDepth, maxDepth, name)
	}
	if len(t.frames) < t.depth {
		t.frames = append(t.frames, &frame{t: t})
	}
	fr := t.frames[t.depth-1]
	if cap(fr.regs) < numRegs {
		fr.regs = make([]int64, numRegs, max(numRegs, frameRegs))
	} else {
		fr.regs = fr.regs[:numRegs]
	}
	fr.ret = 0
	fr.err = nil
	return fr, nil
}

// callCompiled runs cf on the compiled tier: pooled frame, argument
// copy, then the closure-threaded dispatch loop.
func (t *Thread) callCompiled(cf *cfunc, args []int64) (int64, error) {
	fr, err := t.pushFrame(cf.name, cf.numRegs)
	if err != nil {
		return 0, err
	}
	for _, r := range cf.zeroRegs {
		fr.regs[r] = 0
	}
	copy(fr.regs, args)
	code := cf.code
	pc := 0
	for pc >= 0 {
		pc = code[pc](fr)
	}
	t.depth--
	if fr.err != nil {
		return 0, fr.err
	}
	return fr.ret, nil
}
