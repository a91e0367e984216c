// Entry-liveness analysis for the compiled tier's frame pooling.
//
// Both tiers take register files from one pool of frames (pushFrame),
// so a recycled frame starts with whatever its previous occupant left
// behind, while the semantics give every call an all-zero file. The
// interpreter clears the whole file per call: it pays no measurable
// price for that next to its dispatch. The compiled tier, whose
// dispatch is cheaper, zeroes less: compileFunc computes the
// function's live-in register set (registers some path can read
// before writing) with a standard backward dataflow over the CFG, and
// a compiled call zeroes only those. Registers outside the set are
// written before every possible read, so the garbage they hold is
// unobservable and parity with the all-zero file is exact. The IR has
// no indirect register addressing, which is what makes the use/def
// sets syntactically complete.
package vm

import "repro/internal/ir"

// regSet is a dense bitset over a function's virtual registers.
type regSet []uint64

func (s regSet) add(r ir.Reg) {
	if r != ir.NoReg {
		s[uint32(r)>>6] |= 1 << (uint32(r) & 63)
	}
}

func (s regSet) has(r ir.Reg) bool {
	return r != ir.NoReg && s[uint32(r)>>6]&(1<<(uint32(r)&63)) != 0
}

// orInto folds o into s, reporting whether s changed.
func (s regSet) orInto(o regSet) bool {
	changed := false
	for i, w := range o {
		if s[i]|w != s[i] {
			s[i] |= w
			changed = true
		}
	}
	return changed
}

// instrRegs reports the registers in, an instruction of f, reads (use)
// and writes (def), in the exact order the interpreter and the compiled
// closures touch them. Loop-probe closures read their induction and
// base registers; unknown opcodes halt with an error before touching
// any register, so they contribute nothing.
func instrRegs(f *ir.Func, in *ir.Instr, use, def func(ir.Reg)) {
	switch {
	case in.Op == ir.OpNop:
	case in.Op == ir.OpProbe:
		if p := in.Probe(); p.Loop() {
			use(p.IndVar)
			use(p.Base)
		}
	case in.Op == ir.OpMov:
		if !in.BImm {
			use(in.A)
		}
		def(in.Dst)
	case in.Op.IsBinary():
		use(in.A)
		if !in.BImm {
			use(in.B)
		}
		def(in.Dst)
	case in.Op == ir.OpLoad:
		use(in.A) // NoReg (absolute address) is ignored by the sets
		def(in.Dst)
	case in.Op == ir.OpStore:
		use(in.A)
		use(in.B)
	case in.Op == ir.OpAtomicAdd:
		use(in.A)
		use(in.B)
		def(in.Dst)
	case in.Op == ir.OpCall, in.Op == ir.OpExtCall:
		for _, r := range f.CallOf(in).Args {
			use(r)
		}
		def(in.Dst)
	case in.Op == ir.OpReadCycles:
		def(in.Dst)
	}
}

// liveInRegs computes the live-in set of f's entry block: every
// register some path from entry can read before writing. Classic
// backward may-analysis — per-block gen (read before written) and
// kill (written) sets, then liveIn = gen ∪ (liveOut \ kill) iterated
// to fixpoint — returned as a sorted index list for the compiled
// tier's calls. All the sets share one slab, so the analysis allocates
// per function, not per block and iteration.
func liveInRegs(f *ir.Func) []int32 {
	n := len(f.Blocks)
	words := (f.NumRegs + 63) / 64
	slab := make(regSet, (3*n+1)*words)
	sets := make([]regSet, 3*n+1)
	for i := range sets {
		sets[i] = slab[i*words : (i+1)*words : (i+1)*words]
	}
	gen, kill, liveIn, liveOut := sets[:n], sets[n:2*n], sets[2*n:3*n], sets[3*n]
	for i, b := range f.Blocks {
		g, k := gen[i], kill[i]
		for j := range b.Instrs {
			instrRegs(f, &b.Instrs[j],
				func(r ir.Reg) {
					if !k.has(r) {
						g.add(r)
					}
				},
				k.add)
		}
		switch b.Term.Kind {
		case ir.TermBr:
			if !k.has(b.Term.Cond) {
				g.add(b.Term.Cond)
			}
		case ir.TermRet:
			if !k.has(b.Term.Val) {
				g.add(b.Term.Val)
			}
		}
		copy(liveIn[i], g)
	}
	// Local block index: the analysis runs on a module other VMs may be
	// executing concurrently, so it must not touch shared Block.Index.
	idx := make(map[*ir.Block]int, n)
	for i, b := range f.Blocks {
		idx[b] = i
	}
	var succs []*ir.Block
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			clear(liveOut)
			succs = f.Blocks[i].Succs(succs[:0])
			for _, s := range succs {
				liveOut.orInto(liveIn[idx[s]])
			}
			// liveIn[i] |= liveOut \ kill[i]
			in := liveIn[i]
			k := kill[i]
			for w := range liveOut {
				add := liveOut[w] &^ k[w]
				if in[w]|add != in[w] {
					in[w] |= add
					changed = true
				}
			}
		}
	}
	var out []int32
	entry := liveIn[0]
	for r := 0; r < f.NumRegs; r++ {
		if entry.has(ir.Reg(r)) {
			out = append(out, int32(r))
		}
	}
	return out
}
