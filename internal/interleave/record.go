package interleave

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/vm"
)

// AccessKind distinguishes the three memory operations the VM taps.
type AccessKind uint8

const (
	KindLoad AccessKind = iota
	KindStore
	KindAdd
)

func (k AccessKind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	default:
		return "aadd"
	}
}

// Access is one recorded memory operation, tagged with the epoch it
// executed in: epoch 0 is main code, epoch k > 0 is the k'th handler
// invocation of the run. Site is the main-context probe ordinal the
// handler fired at (0 for main-epoch accesses).
type Access struct {
	Epoch     int
	Site      int64
	Fn, Block string
	Kind      AccessKind
	Addr      int64
	// Val is the value read (loads), written (stores) or committed
	// (adds: old value + addend).
	Val int64
	// Add is the addend for KindAdd.
	Add int64
	// Protected marks a main-epoch access executed while no handler
	// could fire (inside a ci_disable region): ordered with respect to
	// every handler epoch by construction.
	Protected bool
}

// Run is one recorded execution of the module.
type Run struct {
	// Schedule is the forced-fire site list this run executed under
	// (nil for the cadence record run and the fire-free baseline).
	Schedule []int64
	// Ret is the entry function's return value.
	Ret int64
	// Err is the main run's error, nil on clean completion.
	Err error
	// HandlerErr is the first error a handler's IR body raised
	// (watchdog trips included); handler closures cannot propagate
	// errors through the CI runtime, so the recorder stashes them.
	HandlerErr error
	// Accesses is the tagged access trace (only when recording).
	Accesses []Access
	// Mem is the final memory image.
	Mem []int64
	// Fires counts handler invocations delivered.
	Fires int
	// Sites counts main-context probe sites executed.
	Sites int64
	// Feasible lists the sites at which a forced fire could have been
	// delivered (only in enumeration mode).
	Feasible []int64
}

// fault returns the run's first hard error: a handler-body error wins
// over the main error (the main error is usually its consequence).
func (r *Run) fault() error {
	if r.HandlerErr != nil {
		return fmt.Errorf("handler %w", r.HandlerErr)
	}
	return r.Err
}

// inconclusive reports whether the run died on the step budget — a
// harness artifact, never a finding (the sanitize oracle convention).
func (r *Run) inconclusive() bool {
	return errors.Is(r.Err, vm.ErrStepBudget) || errors.Is(r.HandlerErr, vm.ErrStepBudget)
}

// execMode selects what execute records and how handlers fire.
type execMode int

const (
	// execCadence fires the handler on its registered cadence and
	// records the access trace — the Record stage.
	execCadence execMode = iota
	// execEnumerate fires nothing and records only the feasible-site
	// list — the Explore stage's site census.
	execEnumerate
	// execSchedule fires the handler exactly at the scheduled sites
	// (forced fires) and records the access trace.
	execSchedule
)

// neverCycles is a cadence interval no run can reach.
const neverCycles = int64(1) << 60

// execute performs one run of the instrumented program under the given
// mode. schedule (execSchedule only) lists forced-fire sites in
// ascending order; a site listed twice fires the handler twice there.
// Each run has its own VM over the program's shared code, which only
// reads the module: executions are independent and safe to shard
// across engine workers, and the hooked form every run takes (OnProbe
// is always set) is built once per program.
func execute(prog *core.Program, opts Options, mode execMode, schedule []int64) *Run {
	mod := prog.Mod
	machine := prog.Code().NewVM(1)
	machine.LimitInstrs = opts.LimitInstrs
	machine.MaxHandlerCycles = opts.MaxHandlerCycles
	th := machine.NewThread(0)

	run := &Run{Schedule: schedule}
	interval := opts.IntervalCycles
	if mode != execCadence {
		interval = neverCycles
	}
	inj := faults.New(opts.FaultPlan, "interleave/handler")
	hFn := mod.FuncByName(handlerFunc)

	// epoch/curSite tag accesses: the handler closure opens an epoch
	// for the duration of its IR body. Handlers cannot nest (the CI
	// runtime holds the per-handler disable during fire), so a plain
	// save-less reset is sound.
	epoch := 0
	curSite := int64(0)
	th.RT.RegisterCI(interval, func(irDelta uint64) {
		run.Fires++
		epoch = run.Fires
		if d := inj.Stall() + inj.Overrun(); d > 0 {
			th.Charge(d)
		}
		var args []int64
		if hFn.NumParams >= 1 {
			args = make([]int64, hFn.NumParams)
			args[0] = int64(irDelta)
		}
		if _, err := th.CallHandler(handlerFunc, args...); err != nil && run.HandlerErr == nil {
			run.HandlerErr = err
		}
		epoch = 0
	})

	schedIdx := 0
	th.OnProbe = func() int {
		run.Sites++
		curSite = run.Sites
		switch mode {
		case execEnumerate:
			if th.RT.CanFire() {
				run.Feasible = append(run.Feasible, run.Sites)
			}
			return 0
		case execSchedule:
			n := 0
			for schedIdx < len(schedule) && schedule[schedIdx] == run.Sites {
				n++
				schedIdx++
			}
			return n
		}
		return 0
	}

	if mode != execEnumerate {
		th.OnLoad = func(fn, block string, addr, val int64) {
			run.Accesses = append(run.Accesses, Access{
				Epoch: epoch, Site: site(epoch, curSite), Fn: fn, Block: block,
				Kind: KindLoad, Addr: addr, Val: val,
				Protected: epoch == 0 && !th.RT.CanFire(),
			})
		}
		th.OnStore = func(fn, block string, addr, val int64) {
			run.Accesses = append(run.Accesses, Access{
				Epoch: epoch, Site: site(epoch, curSite), Fn: fn, Block: block,
				Kind: KindStore, Addr: addr, Val: val,
				Protected: epoch == 0 && !th.RT.CanFire(),
			})
		}
		th.OnAtomic = func(fn, block string, addr, old, add int64) {
			run.Accesses = append(run.Accesses, Access{
				Epoch: epoch, Site: site(epoch, curSite), Fn: fn, Block: block,
				Kind: KindAdd, Addr: addr, Val: old + add, Add: add,
				Protected: epoch == 0 && !th.RT.CanFire(),
			})
		}
	}

	args := opts.Args
	entry := mod.FuncByName(opts.Entry)
	switch {
	case entry.NumParams == 0:
		args = nil
	case len(args) != entry.NumParams:
		padded := make([]int64, entry.NumParams)
		copy(padded, args)
		args = padded
	}
	run.Ret, run.Err = th.Run(opts.Entry, args...)
	run.Mem = machine.Memory()
	return run
}

// site attributes an access to the probe site its epoch began at:
// handler accesses carry the fire site, main accesses carry 0 (main is
// one epoch spanning the whole run).
func site(epoch int, cur int64) int64 {
	if epoch > 0 {
		return cur
	}
	return 0
}
