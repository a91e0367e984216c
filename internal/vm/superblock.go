// Loop superblocks for the compiled tier.
//
// The instrumentation pass leaves the hottest code in the module in one
// canonical shape: a two-block self-loop whose head is a lone fused
// compare+branch and whose body is straight-line ALU and memory code
// ending in a jump back to the head (the chunked inner loops of every
// design, plus every uninstrumented counted loop the builder emits).
// Closure-threaded dispatch pays an indirect call and two Stats
// read-modify-writes per unit even on that shape, which caps the tier
// near interpreter speed. A superblock collapses the whole loop into
// ONE closure that keeps cycle, instruction, and rng accumulators in
// locals and dispatches the body through a flat µop array.
//
// Exactness is preserved, not approximated:
//
//   - Static charges (ALU costs, terminator costs, the head compare)
//     are batched per iteration. The per-memory-op rand() draw cannot
//     be batched away — but its value depends only on the draw COUNT,
//     never on what was charged between draws, so drawing it inline in
//     body order reproduces the interpreter's sequence bit for bit.
//   - Batching is invisible because every point at which the thread's
//     state can be observed mid-iteration — a memory fault or an
//     OnLoad/OnStore/OnAtomic callback — carries compile-time
//     correction constants (cycCorr/insCorr): the statics batched ahead
//     of that point are subtracted before the flush, so Stats match the
//     interpreter's op-by-op totals exactly, even for observers that
//     read Stats from inside the callback.
//   - The step budget is honored by bailing to the plain closure path
//     while the state is still clean (before the head executes)
//     whenever the next iteration could cross the limit; the plain
//     epilogue then trips at the exact instruction the interpreter
//     would. Armed hardware interrupts bail the same way at entry,
//     since checkHW must see flushed cycles at every block end.
//   - MiscompileForTest applies to the superblock's head exactly as it
//     does to the plain fused compare+branch epilogue, so the
//     tier-differential harness's planted cycle drift survives the fast
//     path.
//
// Two layout choices keep each µop cheap:
//
//   - Address-mode µops. An add reg-reg whose sum is the base of the
//     next load or store fuses with it into one µop that still writes
//     the sum register. The add is charged with the body statics, so
//     the fused µop keeps the memory op's own correction constants.
//   - A register file without bounds checks. Register operands are
//     uint8 and index a *[256]int64 view of the frame, which pushFrame
//     guarantees by giving every pooled frame at least frameRegs words;
//     functions with more registers run on the plain path.
//
// Every memory µop shares one copy of the draw, charge, grow and
// observer-flush code.
//
// Loops containing probes, calls, extcalls, or rdcyc never become
// superblocks (those units observe or advance state the batching would
// have to unwind); they run on the plain closure path unchanged.
package vm

import (
	"sync/atomic"

	"repro/internal/ir"
)

// Superblock µop kinds. RR = register-register, RI = register-immediate.
const (
	sbMovI uint8 = iota
	sbMovR
	sbAddRR
	sbSubRR
	sbMulRR
	sbDivRR
	sbRemRR
	sbAndRR
	sbOrRR
	sbXorRR
	sbShlRR
	sbShrRR
	sbEqRR
	sbNeRR
	sbLtRR
	sbLeRR
	sbGtRR
	sbGeRR
	sbMinRR
	sbMaxRR
	sbAddRI
	sbSubRI
	sbMulRI
	sbDivRI // imm != 0 guaranteed at build time (imm == 0 folds to sbMovI 0)
	sbRemRI // imm != 0 guaranteed at build time
	sbAndRI
	sbOrRI
	sbXorRI
	sbShlRI // imm pre-masked to &63
	sbShrRI // imm pre-masked to &63
	sbEqRI
	sbNeRI
	sbLtRI
	sbLeRI
	sbGtRI
	sbGeRI
	sbMinRI
	sbMaxRI
	// Memory µops, in this order: the fused add+access kinds come last.
	sbLoad
	sbStore
	sbAtomic
	sbAddLoad  // base = a + b; dst = Mem[base + imm]
	sbAddStore // base = a + b; Mem[base + imm] = v
)

// sop is one superblock µop, 32 bytes so that indexing the µop array
// is a shift. ALU µops read a (and b) into dst. Memory µops address
// Mem[base + imm] (Mem[imm] without hasBase), loads and atomics write
// dst (an atomic only with hasDst), stores and atomics read v; their
// static base cost is looked up by kind, and cycCorr/insCorr are the
// statics batched ahead of this op's fault/observer point that a
// mid-iteration flush must subtract.
type sop struct {
	kind             uint8
	dst, a, b        uint8
	base, v          uint8
	hasBase, hasDst  bool
	imm              int64
	cycCorr, insCorr int64
}

// sbALU translates a mov or binary-ALU instruction into its µop,
// normalizing immediates the same way compileCompute does (shift masks,
// divide-by-zero-immediate folding to zero).
func sbALU(in *ir.Instr) sop {
	u := sop{dst: uint8(in.Dst), a: uint8(in.A), b: uint8(in.B), imm: in.Imm}
	if in.Op == ir.OpMov {
		if in.BImm {
			u.kind = sbMovI
		} else {
			u.kind = sbMovR
		}
		return u
	}
	if in.BImm {
		switch in.Op {
		case ir.OpAdd:
			u.kind = sbAddRI
		case ir.OpSub:
			u.kind = sbSubRI
		case ir.OpMul:
			u.kind = sbMulRI
		case ir.OpDiv:
			if in.Imm == 0 {
				return sop{kind: sbMovI, dst: uint8(in.Dst), imm: 0}
			}
			u.kind = sbDivRI
		case ir.OpRem:
			if in.Imm == 0 {
				return sop{kind: sbMovI, dst: uint8(in.Dst), imm: 0}
			}
			u.kind = sbRemRI
		case ir.OpAnd:
			u.kind = sbAndRI
		case ir.OpOr:
			u.kind = sbOrRI
		case ir.OpXor:
			u.kind = sbXorRI
		case ir.OpShl:
			u.kind, u.imm = sbShlRI, int64(uint64(in.Imm)&63)
		case ir.OpShr:
			u.kind, u.imm = sbShrRI, int64(uint64(in.Imm)&63)
		case ir.OpCmpEq:
			u.kind = sbEqRI
		case ir.OpCmpNe:
			u.kind = sbNeRI
		case ir.OpCmpLt:
			u.kind = sbLtRI
		case ir.OpCmpLe:
			u.kind = sbLeRI
		case ir.OpCmpGt:
			u.kind = sbGtRI
		case ir.OpCmpGe:
			u.kind = sbGeRI
		case ir.OpMin:
			u.kind = sbMinRI
		case ir.OpMax:
			u.kind = sbMaxRI
		}
		return u
	}
	switch in.Op {
	case ir.OpAdd:
		u.kind = sbAddRR
	case ir.OpSub:
		u.kind = sbSubRR
	case ir.OpMul:
		u.kind = sbMulRR
	case ir.OpDiv:
		u.kind = sbDivRR
	case ir.OpRem:
		u.kind = sbRemRR
	case ir.OpAnd:
		u.kind = sbAndRR
	case ir.OpOr:
		u.kind = sbOrRR
	case ir.OpXor:
		u.kind = sbXorRR
	case ir.OpShl:
		u.kind = sbShlRR
	case ir.OpShr:
		u.kind = sbShrRR
	case ir.OpCmpEq:
		u.kind = sbEqRR
	case ir.OpCmpNe:
		u.kind = sbNeRR
	case ir.OpCmpLt:
		u.kind = sbLtRR
	case ir.OpCmpLe:
		u.kind = sbLeRR
	case ir.OpCmpGt:
		u.kind = sbGtRR
	case ir.OpCmpGe:
		u.kind = sbGeRR
	case ir.OpMin:
		u.kind = sbMinRR
	case ir.OpMax:
		u.kind = sbMaxRR
	}
	return u
}

// superblockBody reports whether head can anchor a superblock given its
// plan (a lone fused compare+branch) and, if so, returns the body block.
// The body must be the branch's then-target, jump straight back to the
// head, and contain only batchable unit kinds.
func superblockBody(head *ir.Block, p *blockPlan, planOf map[*ir.Block]*blockPlan) (*ir.Block, *blockPlan) {
	if p.cmpBr == nil || len(p.units) != 0 {
		return nil, nil
	}
	body := head.Term.Then
	if body == nil || body == head {
		return nil, nil
	}
	bp := planOf[body]
	if bp == nil || body.Term.Kind != ir.TermJmp || body.Term.Then != head {
		return nil, nil
	}
	for _, u := range bp.units {
		switch u.kind {
		case uSimple, uLoad, uStore, uAtomic, uLoadArith, uArithStore:
		default:
			return nil, nil
		}
	}
	return body, bp
}

// Superblocks compiles the module against the default cost model and
// returns how many loop superblocks the compiled tier emitted and how
// many address-mode µops (an add fused into the load or store it
// addresses) their bodies hold. The counts come from the emitter
// itself, so a change that stops emission shows up here. The fuzz
// corpus's generation-coverage assertion uses them the same way it
// uses FusiblePairs: to guarantee the differential oracle exercises
// the batched loop path rather than vacuously passing on code that
// never enters it.
func Superblocks(m *ir.Module) (loops, addrOps int) {
	cm := NewCode(m, nil).form(false)
	return cm.superblocks, cm.addrOps
}

// emitSuperblock compiles one head⇄body loop into a single closure.
// See the package comment at the top of this file for the exactness
// argument; the layout of the charging code mirrors emitUnit and the
// fused emitEpilogue arm op for op.
func emitSuperblock(ec *emitCtx, head, body *ir.Block, cmp *ir.Instr, bp *blockPlan) op {
	m := ec.model
	broken := MiscompileForTest
	headStatic := m.OpCost[cmp.Op]
	if !broken {
		headStatic += m.TermCost
	}

	// Pass 1: per-iteration body totals (units plus the jump back).
	var bodyStatic, bodyIns int64
	for _, u := range bp.units {
		switch u.kind {
		case uSimple:
			bodyStatic += m.OpCost[u.a.Op]
			bodyIns++
		case uLoad, uStore, uAtomic:
			bodyIns++
		case uLoadArith:
			bodyStatic += m.OpCost[u.b.Op]
			bodyIns += 2
		case uArithStore:
			bodyStatic += m.OpCost[u.a.Op]
			bodyIns += 2
		}
	}
	bodyStatic += m.TermCost
	bodyIns++

	// Pass 2: µops, with each memory op's correction constants computed
	// against the interpreter's charge order (earned = charged by the
	// time that op's fault check / observer callback runs).
	var uops []sop
	var es, ei int64 // statics and instrs earned so far within the body
	memUop := func(kind uint8, dst, base, val ir.Reg, off int64) {
		u := sop{
			kind: kind, dst: uint8(dst), base: uint8(base), v: uint8(val),
			hasBase: base != ir.NoReg, hasDst: dst != ir.NoReg,
			imm:     off,
			cycCorr: bodyStatic - es,
			insCorr: bodyIns - (ei + 1),
		}
		// An add that computes this access's base fuses into it; the
		// add is already earned here, so the constants stay the access's.
		if n := len(uops) - 1; n >= 0 && kind != sbAtomic && u.hasBase &&
			uops[n].kind == sbAddRR && uops[n].dst == u.base {
			u.kind += sbAddLoad - sbLoad
			u.a, u.b = uops[n].a, uops[n].b
			uops[n] = u
			ec.cm.addrOps++
			return
		}
		uops = append(uops, u)
	}
	for _, u := range bp.units {
		switch u.kind {
		case uSimple:
			uops = append(uops, sbALU(u.a))
			es += m.OpCost[u.a.Op]
			ei++
		case uLoad:
			memUop(sbLoad, u.a.Dst, u.a.A, ir.NoReg, u.a.Imm)
			ei++
		case uStore:
			memUop(sbStore, ir.NoReg, u.a.A, u.a.B, u.a.Imm)
			ei++
		case uAtomic:
			memUop(sbAtomic, u.a.Dst, u.a.A, u.a.B, u.a.Imm)
			ei++
		case uLoadArith:
			// Load charges and observes first; the fused ALU op's charge
			// lands after the callback, so it is unearned at that point.
			memUop(sbLoad, u.a.Dst, u.a.A, ir.NoReg, u.a.Imm)
			uops = append(uops, sbALU(u.b))
			es += m.OpCost[u.b.Op]
			ei += 2
		case uArithStore:
			// The ALU op charges and computes before the store's fault
			// check, so both of the pair's instruction charges are earned
			// at the store's observation point.
			uops = append(uops, sbALU(u.a))
			es += m.OpCost[u.a.Op]
			ei++
			memUop(sbStore, ir.NoReg, u.b.A, u.b.B, u.b.Imm)
			ei++
		}
	}

	cu := sbALU(cmp)
	cond := cu.dst
	plainPC := ec.pcOf[head]
	elsePC := ec.entry(head.Term.Else)
	fname, bname := ec.f.Name, body.Name
	missLo := m.MissP2
	missHi := m.MissP2 + m.MissP1
	missC1, missC2 := m.MissCost1, m.MissCost2
	load, store := m.OpCost[ir.OpLoad], m.OpCost[ir.OpStore]
	memBase := [...]int64{load, store, m.OpCost[ir.OpAtomicAdd], load, store} // by kind - sbLoad
	iterIns := 2 + bodyIns

	return func(fr *frame) int {
		t := fr.t
		if t.VM.HW != nil {
			// checkHW needs flushed cycles at every block end; run armed
			// threads on the plain path.
			return plainPC
		}
		limited := t.limit > 0
		var rem int64
		if limited {
			rem = t.limit - t.Stats.Instrs
		}
		regs := (*[frameRegs]int64)(fr.regs[:frameRegs])
		rng := t.rng
		var cyc, ins int64
		for {
			if limited && ins+iterIns > rem {
				// The next iteration could cross the budget: flush and let
				// the plain epilogues trip at the exact instruction.
				break
			}
			cyc += headStatic
			ins += 2
			var cv int64
			switch cu.kind {
			case sbEqRR:
				cv = b2i(regs[cu.a] == regs[cu.b])
			case sbNeRR:
				cv = b2i(regs[cu.a] != regs[cu.b])
			case sbLtRR:
				cv = b2i(regs[cu.a] < regs[cu.b])
			case sbLeRR:
				cv = b2i(regs[cu.a] <= regs[cu.b])
			case sbGtRR:
				cv = b2i(regs[cu.a] > regs[cu.b])
			case sbGeRR:
				cv = b2i(regs[cu.a] >= regs[cu.b])
			case sbEqRI:
				cv = b2i(regs[cu.a] == cu.imm)
			case sbNeRI:
				cv = b2i(regs[cu.a] != cu.imm)
			case sbLtRI:
				cv = b2i(regs[cu.a] < cu.imm)
			case sbLeRI:
				cv = b2i(regs[cu.a] <= cu.imm)
			case sbGtRI:
				cv = b2i(regs[cu.a] > cu.imm)
			case sbGeRI:
				cv = b2i(regs[cu.a] >= cu.imm)
			}
			regs[cond] = cv
			if cv == 0 {
				t.Stats.Cycles += cyc
				t.Stats.Instrs += ins
				t.rng = rng
				return elsePC
			}
			cyc += bodyStatic
			ins += bodyIns
			for ui := range uops {
				u := &uops[ui]
				switch u.kind {
				case sbMovI:
					regs[u.dst] = u.imm
				case sbMovR:
					regs[u.dst] = regs[u.a]
				case sbAddRR:
					regs[u.dst] = regs[u.a] + regs[u.b]
				case sbSubRR:
					regs[u.dst] = regs[u.a] - regs[u.b]
				case sbMulRR:
					regs[u.dst] = regs[u.a] * regs[u.b]
				case sbDivRR:
					var out int64
					if bv := regs[u.b]; bv != 0 {
						out = regs[u.a] / bv
					}
					regs[u.dst] = out
				case sbRemRR:
					var out int64
					if bv := regs[u.b]; bv != 0 {
						out = regs[u.a] % bv
					}
					regs[u.dst] = out
				case sbAndRR:
					regs[u.dst] = regs[u.a] & regs[u.b]
				case sbOrRR:
					regs[u.dst] = regs[u.a] | regs[u.b]
				case sbXorRR:
					regs[u.dst] = regs[u.a] ^ regs[u.b]
				case sbShlRR:
					regs[u.dst] = regs[u.a] << (uint64(regs[u.b]) & 63)
				case sbShrRR:
					regs[u.dst] = regs[u.a] >> (uint64(regs[u.b]) & 63)
				case sbEqRR:
					regs[u.dst] = b2i(regs[u.a] == regs[u.b])
				case sbNeRR:
					regs[u.dst] = b2i(regs[u.a] != regs[u.b])
				case sbLtRR:
					regs[u.dst] = b2i(regs[u.a] < regs[u.b])
				case sbLeRR:
					regs[u.dst] = b2i(regs[u.a] <= regs[u.b])
				case sbGtRR:
					regs[u.dst] = b2i(regs[u.a] > regs[u.b])
				case sbGeRR:
					regs[u.dst] = b2i(regs[u.a] >= regs[u.b])
				case sbMinRR:
					regs[u.dst] = min(regs[u.a], regs[u.b])
				case sbMaxRR:
					regs[u.dst] = max(regs[u.a], regs[u.b])
				case sbAddRI:
					regs[u.dst] = regs[u.a] + u.imm
				case sbSubRI:
					regs[u.dst] = regs[u.a] - u.imm
				case sbMulRI:
					regs[u.dst] = regs[u.a] * u.imm
				case sbDivRI:
					regs[u.dst] = regs[u.a] / u.imm
				case sbRemRI:
					regs[u.dst] = regs[u.a] % u.imm
				case sbAndRI:
					regs[u.dst] = regs[u.a] & u.imm
				case sbOrRI:
					regs[u.dst] = regs[u.a] | u.imm
				case sbXorRI:
					regs[u.dst] = regs[u.a] ^ u.imm
				case sbShlRI:
					regs[u.dst] = regs[u.a] << uint64(u.imm)
				case sbShrRI:
					regs[u.dst] = regs[u.a] >> uint64(u.imm)
				case sbEqRI:
					regs[u.dst] = b2i(regs[u.a] == u.imm)
				case sbNeRI:
					regs[u.dst] = b2i(regs[u.a] != u.imm)
				case sbLtRI:
					regs[u.dst] = b2i(regs[u.a] < u.imm)
				case sbLeRI:
					regs[u.dst] = b2i(regs[u.a] <= u.imm)
				case sbGtRI:
					regs[u.dst] = b2i(regs[u.a] > u.imm)
				case sbGeRI:
					regs[u.dst] = b2i(regs[u.a] >= u.imm)
				case sbMinRI:
					regs[u.dst] = min(regs[u.a], u.imm)
				case sbMaxRI:
					regs[u.dst] = max(regs[u.a], u.imm)
				case sbLoad, sbStore, sbAtomic, sbAddLoad, sbAddStore:
					rng += 0x9e3779b97f4a7c15
					z := rng
					z ^= z >> 30
					z *= 0xbf58476d1ce4e5b9
					z ^= z >> 27
					z *= 0x94d049bb133111eb
					z ^= z >> 31
					c := memBase[u.kind-sbLoad]
					if r := int64(z & 1023); r < missLo {
						c += missC2
					} else if r < missHi {
						c += missC1
					}
					if t.memMul != 1 {
						c = int64(float64(c) * t.memMul)
					}
					cyc += c
					var addr int64
					if u.kind >= sbAddLoad {
						addr = regs[u.a] + regs[u.b]
						regs[u.base] = addr
					} else if u.hasBase {
						addr = regs[u.base]
					}
					addr += u.imm
					// Memory is read per access, not once per loop: a
					// grow replaces the slice, and a loop-carried copy
					// cost the loop about 10% on vm_compiled. A grow
					// makes addr addressable, so the loop runs at most
					// once; its exit proves the accesses below in bounds.
					mem := t.VM.mem
					for uint64(addr) >= uint64(len(mem)) {
						if err := t.VM.grow(addr); err != nil {
							t.Stats.Cycles += cyc - u.cycCorr
							t.Stats.Instrs += ins - u.insCorr
							t.rng = rng
							fr.err = err
							return -1
						}
						mem = t.VM.mem
					}
					// v is the word loaded, stored, or read by the atomic.
					var v, add int64
					var observed bool
					switch u.kind {
					case sbLoad, sbAddLoad:
						v = mem[addr]
						regs[u.dst] = v
						observed = t.OnLoad != nil
					case sbStore, sbAddStore:
						v = regs[u.v]
						mem[addr] = v
						observed = t.OnStore != nil
					default:
						add = regs[u.v]
						v = atomic.AddInt64(&mem[addr], add) - add
						if u.hasDst {
							regs[u.dst] = v
						}
						observed = t.OnAtomic != nil || t.OnStore != nil
					}
					if observed {
						t.Stats.Cycles += cyc - u.cycCorr
						t.Stats.Instrs += ins - u.insCorr
						cyc, ins = u.cycCorr, u.insCorr
						t.rng = rng
						switch {
						case u.kind == sbLoad || u.kind == sbAddLoad:
							t.OnLoad(fname, bname, addr, v)
						case u.kind != sbAtomic:
							t.OnStore(fname, bname, addr, v)
						case t.OnAtomic != nil:
							t.OnAtomic(fname, bname, addr, v, add)
						default:
							t.OnStore(fname, bname, addr, v+add)
						}
						rng = t.rng
						if limited {
							rem = t.limit - t.Stats.Instrs
						}
					}
				}
			}
		}
		t.Stats.Cycles += cyc
		t.Stats.Instrs += ins
		t.rng = rng
		return plainPC
	}
}
