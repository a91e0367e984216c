package sanitize

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// ErrInconclusive marks a differential run that hit a watchdog budget
// before either side could finish: not a divergence, but not a pass.
// Its text is the bare verdict, which the wrapping error follows with
// the run that ran out and the budget.
var ErrInconclusive = errors.New("inconclusive")

// Divergence is a first-class semantic difference between baseline and
// instrumented execution.
type Divergence struct {
	// Stage is where the divergence was observed ("exec" for the
	// differential oracle).
	Stage string
	// Design names the instrumentation design under test.
	Design string
	// Func and Block locate the instrumented-side instruction that
	// produced the first diverging observable event (block names are
	// not comparable across the transform, so only the instrumented
	// side is reported).
	Func, Block string
	// Step is the ordinal of the first diverging observable event
	// (store number), or -1 when the divergence is in the return value
	// or final memory.
	Step int
	// Detail describes the difference.
	Detail string
}

func (d *Divergence) Error() string {
	loc := ""
	if d.Func != "" {
		loc = fmt.Sprintf(" at @%s/%s", d.Func, d.Block)
	}
	return fmt.Sprintf("sanitize: divergence [%s/%s]%s step %d: %s",
		d.Stage, d.Design, loc, d.Step, d.Detail)
}

// entryFunc is the function the differential oracle runs.
const entryFunc = "main"

// ExecOptions configures the differential oracle.
type ExecOptions struct {
	// Args are the entry arguments (default: one argument, 4095).
	Args []int64
	// LimitInstrs is the per-run step budget (default 50M). Exhausting
	// it yields ErrInconclusive, not a divergence.
	LimitInstrs int64
	// IntervalCycles registers a no-op CI handler with this interval so
	// probes actually deliver (default 5000).
	IntervalCycles int64
}

func (o ExecOptions) withDefaults() ExecOptions {
	if o.Args == nil {
		o.Args = []int64{4095}
	}
	if o.LimitInstrs <= 0 {
		o.LimitInstrs = 50_000_000
	}
	if o.IntervalCycles <= 0 {
		o.IntervalCycles = 5000
	}
	return o
}

// storeEv is one observable memory write.
type storeEv struct{ addr, val int64 }

// Trace is the observable behaviour of one run: the ordered store
// sequence, the return value and the final memory image. Handler
// effects are excluded by construction — the oracle's handler is a
// no-op and probes never write program memory.
type Trace struct {
	Stores []storeEv
	Ret    int64
	Mem    []int64
}

// Execute runs m, which it only reads, and records its trace.
func Execute(m *ir.Module, opts ExecOptions) (*Trace, error) {
	tr := &Trace{}
	th, _, rv, err := execute(m, vm.TierInterpreter, opts, "baseline", func(th *vm.Thread) {
		th.OnStore = func(fn, block string, addr, val int64) {
			tr.Stores = append(tr.Stores, storeEv{addr, val})
		}
	})
	if err != nil {
		return nil, err
	}
	tr.Ret = rv
	tr.Mem = th.VM.Memory()
	return tr, nil
}

// execute is the oracle's one run setup: m's entry function, on one
// thread of a fresh VM over m (which the VM only reads, so m needs no
// private copy) on tier under the options' step budget, with a no-op CI
// handler registered so probes deliver (hid is its id). The entry gets
// the options' arguments unless it takes none. hook installs the run's observers on the thread before it
// starts. A step-budget error comes back as ErrInconclusive; both it
// and any other failure name who ran.
func execute(m *ir.Module, tier vm.Tier, opts ExecOptions, who string, hook func(*vm.Thread)) (th *vm.Thread, hid int, rv int64, err error) {
	opts = opts.withDefaults()
	machine := vm.New(m, nil, 1)
	machine.Tier = tier
	machine.LimitInstrs = opts.LimitInstrs
	th = machine.NewThread(0)
	hid = th.RT.RegisterCI(opts.IntervalCycles, func(uint64) {})
	hook(th)
	args := opts.Args
	if f := m.FuncByName(entryFunc); f != nil && f.NumParams == 0 {
		args = nil
	}
	rv, err = th.Run(entryFunc, args...)
	switch {
	case errors.Is(err, vm.ErrStepBudget):
		err = fmt.Errorf("%w: %s hit the step budget of %d instructions", ErrInconclusive, who, opts.LimitInstrs)
	case err != nil:
		err = fmt.Errorf("sanitize: %s run failed: %w", who, err)
	}
	return th, hid, rv, err
}

// DiffTrace runs the instrumented module, which it only reads, against a
// recorded baseline trace and returns a *Divergence at the first
// observable difference, ErrInconclusive on budget exhaustion, or nil.
func DiffTrace(base *Trace, instrumented *ir.Module, design string, opts ExecOptions) error {
	var div *Divergence
	step := 0
	th, _, rv, err := execute(instrumented, vm.TierInterpreter, opts, "instrumented "+design, func(th *vm.Thread) {
		th.OnStore = func(fn, block string, addr, val int64) {
			if div == nil {
				switch {
				case step >= len(base.Stores):
					div = &Divergence{Stage: "exec", Design: design, Func: fn, Block: block, Step: step,
						Detail: fmt.Sprintf("extra store mem[%d]=%d (baseline made %d stores)", addr, val, len(base.Stores))}
				case base.Stores[step] != (storeEv{addr, val}):
					want := base.Stores[step]
					div = &Divergence{Stage: "exec", Design: design, Func: fn, Block: block, Step: step,
						Detail: fmt.Sprintf("store mem[%d]=%d, baseline stored mem[%d]=%d", addr, val, want.addr, want.val)}
				}
			}
			step++
		}
	})
	if err != nil {
		return err
	}
	if div != nil {
		return div
	}
	if step != len(base.Stores) {
		return &Divergence{Stage: "exec", Design: design, Step: step,
			Detail: fmt.Sprintf("made %d stores, baseline made %d", step, len(base.Stores))}
	}
	if rv != base.Ret {
		return &Divergence{Stage: "exec", Design: design, Step: -1,
			Detail: fmt.Sprintf("returned %d, baseline returned %d", rv, base.Ret)}
	}
	mem := th.VM.Memory()
	if i := memDiff(mem, base.Mem); i >= 0 {
		return &Divergence{Stage: "exec", Design: design, Step: -1,
			Detail: fmt.Sprintf("final mem[%d] = %d, baseline %d", i, wordAt(mem, i), wordAt(base.Mem, i))}
	}
	return nil
}

// memDiff returns the first address at which two final memories differ,
// each read as zero past its end, or -1 when they agree.
func memDiff(a, b []int64) int {
	for i := range max(len(a), len(b)) {
		if wordAt(a, i) != wordAt(b, i) {
			return i
		}
	}
	return -1
}

// wordAt reads mem[i], zero past the end.
func wordAt(mem []int64, i int) int64 {
	if i < len(mem) {
		return mem[i]
	}
	return 0
}

// DiffExec is the one-shot differential oracle: identical observable
// behaviour (store sequence, return value, final memory — modulo
// handler effects) between a baseline and an instrumented module.
func DiffExec(baseline, instrumented *ir.Module, design string, opts ExecOptions) error {
	base, err := Execute(baseline, opts)
	if err != nil {
		return err
	}
	return DiffTrace(base, instrumented, design, opts)
}
