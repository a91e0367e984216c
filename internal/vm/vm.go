package vm

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ci/ciruntime"
	"repro/internal/ir"
	"repro/internal/obs"
)

// HWConfig enables hardware (performance-counter) interrupts: every
// IntervalCycles of a thread's virtual time, the machine charges the
// model's HWInterruptCost and invokes Handler. This is the baseline CIs
// are compared against in Figure 12. With User set the same machinery
// models user-level interrupts (uintr): delivery skips the kernel, the
// per-delivery cost drops to the model's UIntrCost (split at
// UIntrLatency), and deliveries count as UIntrs instead of
// HWInterrupts.
type HWConfig struct {
	IntervalCycles int64
	// Handler runs in interrupt context; it may call Thread.Charge to
	// bill its own work.
	Handler func(t *Thread)
	// User marks the interrupt source as a hardware user-level
	// interrupt: the costs switch to UIntrCost/UIntrLatency and
	// Stats.UIntrs counts the deliveries.
	User bool
}

// costs resolves the per-delivery total and pre-handler split for this
// config from the model.
func (hw *HWConfig) costs(m *CostModel) (total, pre int64) {
	total, pre = m.HWInterruptCost, m.HWTrapCost
	if hw.User {
		total, pre = m.UIntrCost, m.UIntrLatency
	}
	if pre <= 0 || pre > total {
		pre = total
	}
	return total, pre
}

// VM is a virtual machine instance: a Code (a module under a cost
// model), flat shared memory, a thread count (used by the contention
// model) and run settings. The threads of one VM run one at a time;
// VMs over one Code run independently and share its compiled forms.
//
// The memory is the module's MemWords words (at least one), all zero
// at start; an address outside [0, MemWords) faults. Only the prefix a
// run touches is allocated: New allocates a few words, and a load or
// store past the prefix doubles it (capped at MemWords) before it
// completes. Memory returns the whole logical memory.
type VM struct {
	Threads int
	// HW, when non-nil, enables hardware interrupts on all threads.
	HW *HWConfig
	// LimitInstrs aborts a run after this many executed IR instructions
	// per thread (0 = no limit); a guard against accidental infinite
	// loops in tests. Exceeding it returns an error wrapping
	// ErrStepBudget.
	LimitInstrs int64
	// MaxHandlerCycles bounds the cycles an interrupt handler may bill
	// (via Thread.Charge) per delivery; 0 disables the guard. Exceeding
	// it returns an error wrapping ErrHandlerOverrun.
	MaxHandlerCycles int64
	// Obs, when enabled, receives probe-site profiles, handler spans,
	// external-call spans and hardware-interrupt instants from every
	// thread. Nil (the default) is the disabled scope and keeps the
	// probe-fire path allocation-free.
	Obs *obs.Scope
	// Tier selects the execution engine: TierCompiled (the zero value)
	// pre-decodes the module into closure-threaded code; TierInterpreter
	// is the reference semantics the tier oracle compares it against.
	// The tiers are cycle-exact — Stats match bit for bit — and both run
	// every hook (see compiled.go).
	Tier Tier

	// code is the module under its cost model, shared with every VM
	// over it.
	code *Code
	// mem is the allocated prefix of the logical memory; every word
	// at or past len(mem) and below memWords is zero.
	mem      []int64
	memWords int64
}

// memPrefix is how many words New allocates.
const memPrefix = 256

// New creates a VM for the module with the given cost model (nil for
// Default) and thread count (minimum 1), over a Code of its own: a
// caller that runs one module many times shares one Code instead
// (NewCode, Code.NewVM).
func New(mod *ir.Module, model *CostModel, threads int) *VM {
	return NewCode(mod, model).NewVM(threads)
}

// NewVM creates a VM over c with the given thread count (minimum 1)
// and its own memory.
func (c *Code) NewVM(threads int) *VM {
	words := max(c.mod.MemWords, 1)
	return &VM{Threads: max(threads, 1), code: c,
		mem: make([]int64, min(words, memPrefix)), memWords: words}
}

// Memory returns a copy of the logical memory: MemWords words, with
// every word no run has written still zero.
func (vm *VM) Memory() []int64 {
	out := make([]int64, vm.memWords)
	copy(out, vm.mem)
	return out
}

// grow is the slow path of every memory access whose address is past
// the allocated prefix: it doubles the prefix until it covers addr,
// capped at memWords, or returns the fault for an address outside the
// logical memory. Callers that cache vm.mem re-read it after a grow.
func (vm *VM) grow(addr int64) error {
	if uint64(addr) >= uint64(vm.memWords) {
		return fmt.Errorf("vm: %w: address %d (mem size %d)", ErrMemFault, addr, vm.memWords)
	}
	n := int64(len(vm.mem))
	for n <= addr {
		n *= 2
	}
	mem := make([]int64, min(n, vm.memWords))
	copy(mem, vm.mem)
	vm.mem = mem
	return nil
}

// Stats aggregates one thread's execution counters.
type Stats struct {
	// Cycles is the thread's virtual time.
	Cycles int64
	// Instrs counts executed IR instructions (probes excluded).
	Instrs int64
	// Probes / ProbesTaken count probe executions and probes that fired
	// at least one handler.
	Probes      int64
	ProbesTaken int64
	// HandlerCalls counts handler invocations (CI or hardware).
	HandlerCalls int64
	// CycleReads counts cycle-counter reads performed by probes.
	CycleReads int64
	// ExtCalls counts external (uninstrumented) calls.
	ExtCalls int64
	// HWInterrupts counts hardware interrupts delivered.
	HWInterrupts int64
	// UIntrs counts user-level interrupts delivered (HWConfig.User).
	UIntrs int64
}

// Thread executes IR on the VM. Each thread has its own virtual clock,
// register frames, CI runtime and RNG; memory is shared.
type Thread struct {
	VM    *VM
	ID    int
	RT    *ciruntime.Runtime
	Stats Stats
	// OnStore, when non-nil, observes every committed memory write
	// (stores and atomic adds) with the enclosing function and block
	// names, the word address and the value written. It is the
	// observable-effect tap the differential oracle compares baseline
	// and instrumented runs on; probes never trigger it. Observers must
	// not mutate VM state.
	OnStore func(fn, block string, addr, val int64)
	// OnLoad is the load-side twin of OnStore: it observes every
	// committed memory read with the value that was read. The
	// interleaving verifier (internal/interleave) needs both sides of
	// the access trace to find handler/main races; the differential
	// oracle keeps using OnStore alone. Nil (the default) keeps the
	// load path allocation-free. Note that the implicit read half of an
	// atomic add reports through OnAtomic/OnStore, not here.
	OnLoad func(fn, block string, addr, val int64)
	// OnAtomic, when non-nil, refines OnStore for atomic adds: it
	// receives the value before the add and the addend separately, and
	// the atomic is then NOT reported to OnStore. Observers that only
	// care about the committed value (the differential oracle) leave it
	// nil and keep seeing atomics through OnStore; the race detector
	// sets it to tell commutative read-modify-writes apart from plain
	// stores without shadow-memory reconstruction.
	OnAtomic func(fn, block string, addr, old, add int64)
	// OnProbe, when non-nil, is consulted at every probe executed in
	// main (non-handler) context, before the cadence logic runs. The
	// return value is the number of forced handler sweeps to deliver at
	// this probe site via the CI runtime's FireAll — the interleaving
	// explorer's schedule driver. Return 0 for "no forced fire here".
	// Probes reached from handler IR (via CallHandler) never consult it,
	// so site ordinals are stable under schedule perturbation.
	OnProbe func() int

	model      *CostModel
	memMul     float64
	rng        uint64
	nextHW     int64
	hwOverhead int64
	obs        *obs.Scope
	inExt      bool
	inHandler  bool
	depth      int
	limit      int64
	// frames is the register-frame pool of both tiers, indexed by call
	// depth − 1. Pointers are stable (each frame is allocated once, the
	// first time its depth is reached), so frames in flight across a
	// nested call stay valid while deeper calls extend the pool.
	frames []*frame
}

// NewThread creates thread id with a fresh CI runtime whose clock is
// the thread's virtual cycle counter.
func (vm *VM) NewThread(id int) *Thread {
	t := &Thread{
		VM:     vm,
		ID:     id,
		RT:     ciruntime.New(),
		model:  vm.code.model,
		memMul: vm.code.model.MemContention(vm.Threads),
		rng:    uint64(id)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3,
		limit:  vm.LimitInstrs,
		obs:    vm.Obs,
	}
	if vm.HW != nil {
		t.nextHW = vm.HW.IntervalCycles
	}
	return t
}

// Now returns the thread's virtual time in cycles.
func (t *Thread) Now() int64 { return t.Stats.Cycles }

// RearmHW pushes the next hardware-interrupt deadline one full
// interval into the future. In watchdog (hybrid CI+HW) mode the CI
// handler calls this on every fire, so the hardware timer only
// triggers when compiler interrupts have gone quiet — e.g. during long
// uninstrumented gaps.
func (t *Thread) RearmHW() {
	if hw := t.VM.HW; hw != nil {
		t.nextHW = t.Stats.Cycles - t.hwOverhead + hw.IntervalCycles
	}
}

// Charge bills extra cycles to the thread (used by interrupt handlers
// to account for their own work).
func (t *Thread) Charge(cycles int64) { t.Stats.Cycles += cycles }

// Run executes the named function with the given arguments and returns
// its result.
func (t *Thread) Run(fn string, args ...int64) (int64, error) {
	if t.inHandler {
		return 0, fmt.Errorf("vm: %w: Run(%q) from interrupt context", ErrHandlerReentrancy, fn)
	}
	fi, err := t.lookup(fn, args)
	if err != nil {
		return 0, err
	}
	return t.exec(fi, args)
}

// lookup returns the index of function fn in the module, checking that
// it takes len(args) arguments.
func (t *Thread) lookup(fn string, args []int64) (int, error) {
	fi, ok := t.VM.code.byName[fn]
	if !ok {
		return 0, fmt.Errorf("vm: no function %q", fn)
	}
	if f := t.VM.code.mod.Funcs[fi]; len(args) != f.NumParams {
		return 0, fmt.Errorf("vm: %q takes %d args, got %d", fn, f.NumParams, len(args))
	}
	return fi, nil
}

// exec runs function fi of the module on the VM's tier, the one place
// that chooses an executor: on the compiled tier, a thread with OnProbe
// or an enabled obs scope runs the module's hooked form, every other
// thread the plain form.
func (t *Thread) exec(fi int, args []int64) (int64, error) {
	if t.VM.Tier == TierCompiled {
		if cf := t.VM.code.form(t.OnProbe != nil || t.obs != nil).funcs[fi]; cf != nil {
			return t.callCompiled(cf, args)
		}
	}
	f := t.VM.code.mod.Funcs[fi]
	fr, err := t.pushFrame(f.Name, f.NumRegs)
	if err != nil {
		return 0, err
	}
	clear(fr.regs)
	copy(fr.regs, args)
	rv, err := t.call(fi, fr.regs)
	t.depth--
	return rv, err
}

func (t *Thread) rand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// memCost models a load/store: base plus stochastic cache misses, all
// scaled by the contention factor (more threads sharing the memory
// system slow every memory operation, including miss handling).
func (t *Thread) memCost(base int64) int64 {
	c := base
	r := int64(t.rand() & 1023)
	m := t.model
	if r < m.MissP2 {
		c += m.MissCost2
	} else if r < m.MissP2+m.MissP1 {
		c += m.MissCost1
	}
	if t.memMul == 1 {
		// Exact: int64(float64(c)*1.0) == c for any cost in range, so
		// single-threaded runs skip the float round trip entirely.
		return c
	}
	return int64(float64(c) * t.memMul)
}

// memAddr resolves a memory operand to a word address inside the
// allocated prefix, growing the prefix when the address is past it.
func (t *Thread) memAddr(regs []int64, base ir.Reg, off int64) (int64, error) {
	addr := off
	if base != ir.NoReg {
		addr += regs[base]
	}
	if uint64(addr) >= uint64(len(t.VM.mem)) {
		if err := t.VM.grow(addr); err != nil {
			return 0, err
		}
	}
	return addr, nil
}

// checkHW delivers due hardware interrupts. Scheduling is against
// "work cycles" (total minus interrupt overhead): a performance-counter
// interrupt counts user work, not the trap/kernel/signal cost of
// delivering the previous interrupt.
func (t *Thread) checkHW() error {
	hw := t.VM.HW
	if hw == nil {
		return nil
	}
	for t.Stats.Cycles-t.hwOverhead >= t.nextHW {
		total, pre := hw.costs(t.model)
		post := total - pre
		t.Stats.Cycles += pre
		t.hwOverhead += pre
		if hw.User {
			t.Stats.UIntrs++
		} else {
			t.Stats.HWInterrupts++
		}
		t.Stats.HandlerCalls++
		if t.obs != nil {
			name := "hw-interrupt"
			if hw.User {
				name = "uintr"
			}
			t.obs.Instant("vm", name, int32(t.ID), t.Stats.Cycles,
				obs.I("cost", total))
		}
		// Default periodic schedule first, so a handler calling RearmHW
		// (watchdog mode) can override it.
		t.nextHW += hw.IntervalCycles
		if hw.Handler != nil {
			before := t.Stats.Cycles
			prev := t.inHandler
			t.inHandler = true
			hw.Handler(t)
			t.inHandler = prev
			if err := t.checkOverrun(t.Stats.Cycles-before, 1, "hardware"); err != nil {
				return err
			}
		}
		t.Stats.Cycles += post
		t.hwOverhead += post
		if t.inExt {
			// During a blocking call, coalesce to a single delivery.
			if t.nextHW <= t.Stats.Cycles-t.hwOverhead {
				t.nextHW = t.Stats.Cycles - t.hwOverhead + hw.IntervalCycles
			}
			return nil
		}
	}
	return nil
}

// checkOverrun enforces MaxHandlerCycles: charged is what handlers
// billed during one delivery window that invoked fired handlers.
func (t *Thread) checkOverrun(charged int64, fired int, kind string) error {
	max := t.VM.MaxHandlerCycles
	if max <= 0 || charged <= max*int64(fired) {
		return nil
	}
	return fmt.Errorf("vm: %w: %s handler billed %d cycles (budget %d x %d fires)",
		ErrHandlerOverrun, kind, charged, max, fired)
}

const maxDepth = 4096

// call interprets function fi of the module in regs, the register file
// of the frame its caller pushed with the arguments in place and every
// other register zero. The caller pops the frame.
func (t *Thread) call(fi int, regs []int64) (int64, error) {
	m := t.model
	f, callees := t.VM.code.mod.Funcs[fi], t.VM.code.callees[fi]
	b := f.Blocks[0]
	for {
		// Walking a slice rather than an index keeps the instruction's
		// address in one register: when instructions were 40 bytes the
		// indexed form rebuilt it from base and index per field, and
		// vm_interp ran about a tenth slower. At 24 bytes an index
		// still scales by a size that is not a power of two.
		for ins := b.Instrs; len(ins) > 0; ins = ins[1:] {
			in := &ins[0]
			switch in.Op {
			case ir.OpProbe:
				if err := t.execProbe(f, b, in.Probe(), regs); err != nil {
					return 0, err
				}
				continue
			case ir.OpNop:
				continue
			}
			t.Stats.Instrs++
			switch in.Op {
			case ir.OpMov:
				t.Stats.Cycles += m.OpCost[ir.OpMov]
				if in.BImm {
					regs[in.Dst] = in.Imm
				} else {
					regs[in.Dst] = regs[in.A]
				}
			case ir.OpLoad:
				t.Stats.Cycles += t.memCost(m.OpCost[ir.OpLoad])
				addr, err := t.memAddr(regs, in.A, in.Imm)
				if err != nil {
					return 0, err
				}
				regs[in.Dst] = t.VM.mem[addr]
				if t.OnLoad != nil {
					t.OnLoad(f.Name, b.Name, addr, regs[in.Dst])
				}
			case ir.OpStore:
				t.Stats.Cycles += t.memCost(m.OpCost[ir.OpStore])
				addr, err := t.memAddr(regs, in.A, in.Imm)
				if err != nil {
					return 0, err
				}
				t.VM.mem[addr] = regs[in.B]
				if t.OnStore != nil {
					t.OnStore(f.Name, b.Name, addr, regs[in.B])
				}
			case ir.OpAtomicAdd:
				t.Stats.Cycles += t.memCost(m.OpCost[ir.OpAtomicAdd])
				addr, err := t.memAddr(regs, in.A, in.Imm)
				if err != nil {
					return 0, err
				}
				old := atomic.AddInt64(&t.VM.mem[addr], regs[in.B]) - regs[in.B]
				if in.Dst != ir.NoReg {
					regs[in.Dst] = old
				}
				if t.OnAtomic != nil {
					t.OnAtomic(f.Name, b.Name, addr, old, regs[in.B])
				} else if t.OnStore != nil {
					t.OnStore(f.Name, b.Name, addr, old+regs[in.B])
				}
			case ir.OpCall:
				t.Stats.Cycles += m.OpCost[ir.OpCall]
				c := f.CallOf(in)
				ci := callees[in.Imm]
				if ci < 0 {
					return 0, fmt.Errorf("vm: call to unknown function %q", c.Callee)
				}
				callee := t.VM.code.mod.Funcs[ci]
				cfr, err := t.pushFrame(callee.Name, callee.NumRegs)
				if err != nil {
					return 0, err
				}
				for k, r := range c.Args {
					cfr.regs[k] = regs[r]
				}
				clear(cfr.regs[len(c.Args):])
				rv, err := t.call(int(ci), cfr.regs)
				t.depth--
				if err != nil {
					return 0, err
				}
				if in.Dst != ir.NoReg {
					regs[in.Dst] = rv
				}
			case ir.OpExtCall:
				if err := t.execExtCall(f.CallOf(in), in.Dst, regs); err != nil {
					return 0, err
				}
			case ir.OpReadCycles:
				t.Stats.Cycles += m.OpCost[ir.OpReadCycles]
				regs[in.Dst] = t.Stats.Cycles
			default:
				t.Stats.Cycles += m.OpCost[in.Op]
				var bv int64
				if in.BImm {
					bv = in.Imm
				} else {
					bv = regs[in.B]
				}
				av := regs[in.A]
				var out int64
				switch in.Op {
				case ir.OpAdd:
					out = av + bv
				case ir.OpSub:
					out = av - bv
				case ir.OpMul:
					out = av * bv
				case ir.OpDiv:
					if bv != 0 {
						out = av / bv
					}
				case ir.OpRem:
					if bv != 0 {
						out = av % bv
					}
				case ir.OpAnd:
					out = av & bv
				case ir.OpOr:
					out = av | bv
				case ir.OpXor:
					out = av ^ bv
				case ir.OpShl:
					out = av << (uint64(bv) & 63)
				case ir.OpShr:
					out = av >> (uint64(bv) & 63)
				case ir.OpCmpEq:
					out = b2i(av == bv)
				case ir.OpCmpNe:
					out = b2i(av != bv)
				case ir.OpCmpLt:
					out = b2i(av < bv)
				case ir.OpCmpLe:
					out = b2i(av <= bv)
				case ir.OpCmpGt:
					out = b2i(av > bv)
				case ir.OpCmpGe:
					out = b2i(av >= bv)
				case ir.OpMin:
					out = min(av, bv)
				case ir.OpMax:
					out = max(av, bv)
				default:
					return 0, fmt.Errorf("vm: unhandled opcode %v", in.Op)
				}
				regs[in.Dst] = out
			}
		}
		// Block finished: terminator, limits, hardware interrupts.
		t.Stats.Cycles += m.TermCost
		t.Stats.Instrs++
		if t.limit > 0 && t.Stats.Instrs > t.limit {
			return 0, fmt.Errorf("vm: %w: instruction limit %d in %q", ErrStepBudget, t.limit, f.Name)
		}
		if t.VM.HW != nil {
			if err := t.checkHW(); err != nil {
				return 0, err
			}
		}
		switch b.Term.Kind {
		case ir.TermJmp:
			b = b.Term.Then
		case ir.TermBr:
			if regs[b.Term.Cond] != 0 {
				b = b.Term.Then
			} else {
				b = b.Term.Else
			}
		case ir.TermRet:
			if b.Term.Val == ir.NoReg {
				return 0, nil
			}
			return regs[b.Term.Val], nil
		default:
			return 0, fmt.Errorf("vm: unterminated block %q in %q", b.Name, f.Name)
		}
	}
}

// execExtCall executes one external (uninstrumented) call, of record c
// with its result register dst — shared verbatim by both execution
// tiers so the libci intrinsics, blocking coalescing, and mid-call
// hardware-interrupt delivery stay tier-independent. The caller has
// already counted the instruction.
func (t *Thread) execExtCall(c *ir.Call, dst ir.Reg, regs []int64) error {
	// libci intrinsics (Table 2): programs call
	// ci_disable/ci_enable as externs; the VM routes them
	// to the thread's CI runtime. ciid comes from the
	// first argument (0 = all handlers, per §2.2).
	if c.Callee == "ci_disable" || c.Callee == "ci_enable" {
		t.Stats.Cycles += 4
		ciid := 0
		if len(c.Args) > 0 {
			ciid = int(regs[c.Args[0]])
		}
		if c.Callee == "ci_disable" {
			t.RT.Disable(ciid)
		} else {
			t.RT.Enable(ciid)
		}
		if dst != ir.NoReg {
			regs[dst] = 0
		}
		return nil
	}
	ext := t.VM.code.mod.Externs[c.Callee]
	if ext == nil {
		return fmt.Errorf("vm: extcall to unknown extern %q", c.Callee)
	}
	t.Stats.ExtCalls++
	extStart := t.Stats.Cycles
	if ext.Blocking {
		// Blocking system call: interrupts are deferred and
		// coalesce to a single delivery at completion.
		t.inExt = true
		t.Stats.Cycles += ext.Cost
		err := t.checkHW()
		t.inExt = false
		if err != nil {
			return err
		}
	} else if t.VM.HW != nil {
		// Uninstrumented library code still takes hardware
		// interrupts mid-call: deliver them at their
		// deadlines inside the call.
		remaining := ext.Cost
		for remaining > 0 {
			until := t.nextHW - (t.Stats.Cycles - t.hwOverhead)
			if until > remaining {
				t.Stats.Cycles += remaining
				break
			}
			if until < 0 {
				until = 0
			}
			t.Stats.Cycles += until
			remaining -= until
			if err := t.checkHW(); err != nil {
				return err
			}
		}
	} else {
		t.Stats.Cycles += ext.Cost
	}
	if t.obs != nil {
		t.obs.Span("vm", "extcall", int32(t.ID), extStart, t.Stats.Cycles,
			obs.S("callee", ext.Name))
	}
	if dst != ir.NoReg {
		regs[dst] = 0
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// execProbe runs one probe instruction on the interpreter and in the
// compiled tier's hooked form: the untaken check, then the shared taken
// half (probeTaken) only when the check says a fire is due. Around
// those it runs the per-probe hooks: the OnProbe forced fires and the
// observability profile. f and
// b identify the probe's IR site for the profile; every obs call is
// guarded on t.obs so the disabled path stays allocation-free.
func (t *Thread) execProbe(f *ir.Func, b *ir.Block, p ir.ProbeInfo, regs []int64) error {
	m := t.model
	t.Stats.Probes++
	var forced int
	if t.OnProbe != nil && !t.inHandler {
		forced = t.OnProbe()
	}
	probeStart := t.Stats.Cycles
	inc := p.Inc
	if p.Loop() {
		inc = max(regs[p.IndVar]-regs[p.Base], 0) * p.Inc
	}
	due := true
	switch p.Kind {
	case ir.ProbeIR, ir.ProbeIRLoop:
		t.Stats.Cycles += m.ProbeBase
		due = t.RT.ProbeIRDue(inc, t.Stats.Cycles)
	case ir.ProbeCycles, ir.ProbeCyclesLoop:
		t.Stats.Cycles += m.ProbeBase
		due = t.RT.ProbeCyclesDue(inc, t.Stats.Cycles)
	case ir.ProbeEvent:
		t.Stats.Cycles += m.ProbeBase
	}
	var fired int
	if due {
		var err error
		if fired, err = t.probeTaken(p.Kind, inc); err != nil {
			return err
		}
	}
	if forced > 0 {
		n, err := t.forceFire(forced)
		if err != nil {
			return err
		}
		if n > 0 && fired == 0 {
			t.Stats.ProbesTaken++
		}
		fired += n
	}
	if t.obs != nil {
		t.obs.SiteHit(f.Name, b.Name, fired > 0)
		if fired > 0 {
			t.obs.Span("vm", "probe-fire", int32(t.ID), probeStart, t.Stats.Cycles,
				obs.S("fn", f.Name), obs.S("block", b.Name), obs.I("fired", int64(fired)))
			t.obs.Observe("vm/handler_window_cycles", t.Stats.Cycles-probeStart)
		}
	}
	return nil
}

// probeTaken is the taken half of a probe of the given kind, shared by
// both tiers. The caller has counted the probe and charged ProbeBase
// (ProbeEventCycles charges it here, after the cycle read), and for
// the IR and cycles kinds its untaken check has said a fire is due;
// inc is the event weight of a ProbeEvent and unused otherwise. The
// runtime's sweep runs in interrupt context, so re-entering Run from a
// handler is caught, and what the handlers bill via Charge is checked
// against the overrun budget before the cycle reads, the taken probe
// and the handler invokes are billed.
func (t *Thread) probeTaken(kind ir.ProbeKind, inc int64) (int, error) {
	m := t.model
	before := t.Stats.Cycles
	var fired, reads int
	prev := t.inHandler
	t.inHandler = true
	switch kind {
	case ir.ProbeIR, ir.ProbeIRLoop:
		fired = t.RT.FireDueIR(before)
	case ir.ProbeCycles, ir.ProbeCyclesLoop:
		reads, fired = t.RT.FireDueCycles(before)
	case ir.ProbeEvent:
		fired = t.RT.ProbeEvent(inc, before)
	case ir.ProbeEventCycles:
		reads, fired = t.RT.ProbeEventCycles(before)
	}
	t.inHandler = prev
	if err := t.checkOverrun(t.Stats.Cycles-before, max(fired, 1), "CI"); err != nil {
		return 0, err
	}
	if kind == ir.ProbeEventCycles {
		t.Stats.Cycles += m.ProbeBase
	}
	t.Stats.CycleReads += int64(reads)
	t.Stats.Cycles += int64(reads) * m.CycleRead
	if fired > 0 {
		t.Stats.ProbesTaken++
		t.Stats.HandlerCalls += int64(fired)
		t.Stats.Cycles += m.ProbeTakenExtra + int64(fired)*m.HandlerInvoke
	}
	return fired, nil
}

// forceFire delivers n unconditional handler sweeps at the current
// probe site on behalf of OnProbe — the interleaving explorer's
// schedule driver. Each sweep fires every currently-enabled handler
// through the runtime's FireAll, under the same interrupt-context and
// overrun guards as cadence fires (kind "forced" in the overrun
// error). Sweeps that find every handler disabled deliver nothing;
// the caller learns the delivered count from its own fire observers.
func (t *Thread) forceFire(n int) (int, error) {
	m := t.model
	total := 0
	for k := 0; k < n; k++ {
		before := t.Stats.Cycles
		prev := t.inHandler
		t.inHandler = true
		fired := t.RT.FireAll(t.Stats.Cycles)
		t.inHandler = prev
		if err := t.checkOverrun(t.Stats.Cycles-before, max(fired, 1), "forced"); err != nil {
			return total, err
		}
		if fired > 0 {
			t.Stats.HandlerCalls += int64(fired)
			t.Stats.Cycles += m.ProbeTakenExtra + int64(fired)*m.HandlerInvoke
			total += fired
		}
	}
	return total, nil
}

// CallHandler executes the named IR function in interrupt context, on
// behalf of a registered handler closure. Run refuses to re-enter the
// interpreter from a handler (ErrHandlerReentrancy) because it would
// start a fresh top-level frame on the same virtual clock; CallHandler
// is the sanctioned path for handlers whose body is itself IR in the
// module — it keeps the thread marked as in interrupt context, so
// probes executed by the handler's own code never consult OnProbe and
// a nested Run attempt still trips the reentrancy guard.
func (t *Thread) CallHandler(fn string, args ...int64) (int64, error) {
	fi, err := t.lookup(fn, args)
	if err != nil {
		return 0, err
	}
	prev := t.inHandler
	t.inHandler = true
	rv, err := t.exec(fi, args)
	t.inHandler = prev
	return rv, err
}
