package core

import (
	"cmp"
	"fmt"

	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vm"
)

// This file is the one run path: RunThread sets up and runs one thread
// of a VM, Calibrate tunes a run's IR/cycle ratio to its target
// interval, and Program.Run is a loop of RunThread's set-up over a
// program's threads. Every measured run of the experiments goes
// through RunThread or Calibrate, and every run of one program shares
// the program's vm.Code, so its module is pre-decoded once.

// Setup is one thread's run: everything RunThread sets up once before
// the thread starts. The zero value runs the thread of a one-thread VM
// with no handler and no step budget.
type Setup struct {
	// Threads is the VM's thread count, which its contention model
	// charges (at least 1). The cost model is the run's vm.Code's.
	Threads int
	// Limit bounds the thread's executed instructions (0 = none).
	Limit int64
	// Obs observes the run (nil = off); Tier picks its executor.
	Obs  *obs.Scope
	Tier vm.Tier
	// IRPerCycle turns the CI interval into an IR budget: 0 keeps the
	// §4 heuristic (ciruntime.DefaultIRPerCycle), a profiled ratio
	// (ThreadRun.IRPerCycle of the uninstrumented baseline) tunes it to
	// the program (§4 footnote 3).
	IRPerCycle float64
	// Interval registers Handler as a CI handler every Interval cycles
	// (0 = none), its interval steered by Quantum when that is non-nil.
	Interval int64
	Quantum  ciruntime.QuantumPolicy
	// Timer delivers Handler from the VM's timer every Timer cycles (0 =
	// none): a hardware interrupt, or with User a user-level interrupt.
	// With Interval also set, the timer is a watchdog beside the CI.
	Timer int64
	User  bool
	// Handler runs at every delivery, in interrupt context, with the
	// thread (to Charge its work) and the IR executed since its
	// source's previous delivery. Nil does no work.
	Handler func(t *vm.Thread, irDelta uint64)
	// Record keeps the inter-delivery gaps in cycles: the CI handler's,
	// or the timer's when there is no CI handler.
	Record bool
	// eventScale scales the CnB designs' event threshold (0 = 1); only
	// Calibrate tunes it.
	eventScale float64
}

// ThreadRun is one finished thread: its Stats and CI runtime, its
// return value, the CI handler's id (0 = none) and the recorded gaps.
type ThreadRun struct {
	*vm.Thread
	Ret  int64
	CI   int
	Gaps []int64
}

// IRPerCycle is the run's profiled IR/cycle ratio: an uninstrumented
// baseline's tunes the CI runtime to the program (§4 footnote 3).
func (r ThreadRun) IRPerCycle() float64 {
	return float64(r.Stats.Instrs) / float64(r.Stats.Cycles)
}

// RunThread runs fn(args) on thread 0 of an s.Threads-thread VM over
// code, set up per s. code is only read, so one Code (Program.Code)
// serves any number of runs, concurrent ones included.
func RunThread(code *vm.Code, s Setup, fn string, args ...int64) (ThreadRun, error) {
	return runOn(newVM(code, s), 0, s, fn, args...)
}

// newVM builds the VM of a run set up per s.
func newVM(code *vm.Code, s Setup) *vm.VM {
	machine := code.NewVM(s.Threads)
	machine.LimitInstrs = s.Limit
	machine.Obs = s.Obs
	machine.Tier = s.Tier
	return machine
}

// runOn sets up thread id of machine per s and runs fn(args) on it.
func runOn(machine *vm.VM, id int, s Setup, fn string, args ...int64) (ThreadRun, error) {
	h := s.Handler
	var timerGaps []int64
	if s.Timer > 0 {
		var lastFire, lastInstrs int64
		machine.HW = &vm.HWConfig{IntervalCycles: s.Timer, User: s.User, Handler: func(t *vm.Thread) {
			now := t.Now()
			gap := now - lastFire
			lastFire = now
			irDelta := uint64(t.Stats.Instrs - lastInstrs)
			lastInstrs = t.Stats.Instrs
			if s.Record {
				timerGaps = append(timerGaps, gap)
			}
			if h != nil {
				h(t, irDelta)
			}
		}}
	}
	th := machine.NewThread(id)
	r := ThreadRun{Thread: th}
	if s.IRPerCycle != 0 {
		th.RT.IRPerCycle = s.IRPerCycle
	}
	if scale := s.eventScale; scale != 0 {
		rt := th.RT
		rt.EventsPerInterval = func(ic int64) int64 {
			return max(int64(float64(ic)*rt.IRPerCycle/20*scale), 1)
		}
	}
	th.RT.RecordIntervals = s.Record
	if s.Interval > 0 {
		fire := func(uint64) {}
		if h != nil {
			fire = func(irDelta uint64) { h(th, irDelta) }
		}
		r.CI = th.RT.RegisterCI(s.Interval, fire)
		if s.Quantum != nil {
			th.RT.SetPolicy(r.CI, s.Quantum)
		}
	}
	var err error
	if r.Ret, err = th.Run(fn, args...); err != nil {
		return r, err
	}
	r.Gaps = timerGaps
	if r.CI != 0 {
		r.Gaps = th.RT.Intervals(r.CI)
	}
	return r, nil
}

// Calibrate runs p's fn(args) on the set-up s tuned to its target
// interval s.Interval, the paper's §5.4 methodology ("we tune the
// interrupt interval for each method to approximate a target interval
// in cycles"). The ratio starts at s.IRPerCycle, the uninstrumented
// baseline's profile (ThreadRun.IRPerCycle). Up to two unobserved
// passes then rescale it by their median gap over the target — the CnB
// designs rescale their event threshold instead — until the median
// lands within 5%. A pass that lands is the measured run unless s.Obs
// has to see it. Every pass and the measured run record their gaps.
func (p *Program) Calibrate(s Setup, fn string, args ...int64) (ThreadRun, error) {
	scope := s.Obs
	s.Obs, s.Record = nil, true
	s.IRPerCycle = cmp.Or(s.IRPerCycle, ciruntime.DefaultIRPerCycle)
	for range 2 {
		r, err := RunThread(p.Code(), s, fn, args...)
		if err != nil {
			return r, fmt.Errorf("core: calibration: %w", err)
		}
		med := s.Interval
		if len(r.Gaps) > 0 {
			med = stats.Median(r.Gaps)
		}
		f := float64(med) / float64(s.Interval)
		if med <= 0 || (f > 0.95 && f < 1.05) {
			if !scope.Enabled() {
				return r, nil
			}
			break
		}
		switch p.cfg.Design {
		case instrument.CnB, instrument.CnBCycles:
			s.eventScale = cmp.Or(s.eventScale, 1) / f
		default:
			s.IRPerCycle /= f
		}
	}
	s.Obs = scope
	return RunThread(p.Code(), s, fn, args...)
}

// IntervalErrors returns each gap's error against target, gap - target
// or with abs |gap - target|; {0} when there is no gap, so a summary of
// a run that never fired reads 0.
func IntervalErrors(gaps []int64, target int64, abs bool) []int64 {
	if len(gaps) == 0 {
		return []int64{0}
	}
	errs := make([]int64, len(gaps))
	for i, g := range gaps {
		if errs[i] = g - target; abs && errs[i] < 0 {
			errs[i] = -errs[i]
		}
	}
	return errs
}

// RunResult aggregates a run.
type RunResult struct {
	// Stats holds per-thread VM statistics.
	Stats []vm.Stats
	// Intervals holds recorded handler gaps (cycles) per thread, when
	// WithRecordIntervals was set.
	Intervals [][]int64
	// Returns holds each thread's return value.
	Returns []int64
}

// Run executes the program's function fn on every thread of one VM, in
// turn, each set up as RunThread sets up its thread; they share the
// VM's memory. The CI interval keeps the §4 heuristic IR/cycle ratio
// (Calibrate tunes it instead). The observability scope defaults to the
// one given at Compile time; a WithObs among opts overrides it for this
// run.
func (p *Program) Run(fn string, opts ...Option) (*RunResult, error) {
	st := resolve(opts)
	s := st.run
	s.Obs = cmp.Or(st.obs, p.obs)
	s.Threads = max(s.Threads, 1)
	args := st.args
	if args == nil {
		args = func(id int) []int64 { return []int64{int64(id)} }
	}
	f := p.Mod.FuncByName(fn)
	if f == nil {
		return nil, fmt.Errorf("core: no function %q", fn)
	}
	if f.NumParams == 0 {
		args = func(int) []int64 { return nil }
	}
	record, target := s.Record, s.Interval
	s.Record = record || s.Obs.Enabled()
	// Under the UserInterrupt design the run handler is delivered by
	// the VM's user-level interrupt timer: the code carries no probes,
	// so the cadence, gap recording and interval-error metrics all come
	// from the hardware delivery path.
	if p.cfg.Design == instrument.UserInterrupt {
		s.Interval, s.Timer, s.User = 0, target, true
	}
	machine := newVM(p.Code(), s)
	res := &RunResult{
		Stats:     make([]vm.Stats, s.Threads),
		Intervals: make([][]int64, s.Threads),
		Returns:   make([]int64, s.Threads),
	}
	// Sequential execution keeps interval recording and return values
	// simple and deterministic; the contention model already accounts
	// for the thread count. Threads are virtual-time independent.
	for id := range s.Threads {
		if st.quantum != nil && s.Interval > 0 {
			s.Quantum = st.quantum()
		}
		r, err := runOn(machine, id, s, fn, args(id)...)
		if err != nil {
			return nil, fmt.Errorf("core: thread %d: %w", id, err)
		}
		res.Returns[id], res.Stats[id] = r.Ret, r.Stats
		if record {
			res.Intervals[id] = r.Gaps
		}
		if scope := s.Obs; scope.Enabled() {
			// The first gap spans thread start (or registration) to the
			// first delivery, not a steady-state interval.
			for _, gap := range r.Gaps[min(len(r.Gaps), 1):] {
				scope.Observe("run/handler_gap_cycles", gap)
				scope.Observe("run/interval_error_cycles", gap-target)
			}
			scope.Span("core", "run/"+fn, int32(id), 0, r.Stats.Cycles,
				obs.I("instrs", r.Stats.Instrs),
				obs.I("probes", r.Stats.Probes),
				obs.I("handler_calls", r.Stats.HandlerCalls))
			scope.Advance(r.Stats.Cycles)
		}
	}
	return res, nil
}
