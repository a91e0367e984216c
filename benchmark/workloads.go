package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// size selects how much work one rep does. The scored run uses full;
// the dose–response self-check doubles it; mini feeds the per-layer
// probes of the layer groups a traced run's workload does not stress,
// and the harness tests.
type size int

const (
	mini size = iota
	full
	double
)

func (s size) String() string { return [...]string{"mini", "full", "double"}[s] }

func parseSize(s string) (size, error) {
	for _, sz := range []size{mini, full, double} {
		if sz.String() == s {
			return sz, nil
		}
	}
	return 0, fmt.Errorf("unknown size %q (want mini, full or double)", s)
}

// repStat is the untimed summary of one rep's outputs.
type repStat struct {
	// units is the amount of work the rep did, in the workload's unit.
	units int64
	// model hashes the rep's model statistics; every rep of a run must
	// produce the same value.
	model uint64
}

// modelStats is the second clock: deterministic model-cycle results.
type modelStats struct {
	cyclesPerUnit float64
	// tailCycles is a p99.9 in model cycles (2600 to the microsecond).
	tailCycles float64
}

// instance is one workload set up on inputs generated from a seed.
type instance interface {
	// digest hashes the generated inputs.
	digest() uint64
	// ops is the number of operations one rep attempts.
	ops() int
	// rep is the timed region: a fixed amount of work on the
	// pre-generated inputs, through the program's public functions
	// only, on the calling goroutine. It returns the outputs.
	rep(tr *tracer) any
	// stat summarizes a rep's outputs.
	stat(out any) repStat
	// verify checks a rep's outputs against references that do not
	// come from the code under test. It returns one line per failed
	// operation.
	verify(out any) (failures []string, model modelStats)
}

type workload struct {
	name  string
	unit  string
	group string // the layer group the workload stresses
	why   string
	setup func(seed uint64, sz size) (instance, error)
}

var allWorkloads = []workload{
	{"compile_corpus", "IR instr x config", "compiler",
		"text to program under 4 configs over Table-7, small and large fuzz programs: the compiler works, the VM is idle",
		func(seed uint64, sz size) (instance, error) { return setupCorpus(seed, sz) }},
	{"vm_interp", "executed IR instr", "vm",
		"pre-compiled Table-7 programs on the interpreter tier: vm dispatch and ciruntime work, the compiler is idle",
		func(seed uint64, sz size) (instance, error) { return setupVM(seed, sz, vm.TierInterpreter) }},
	{"vm_compiled", "executed IR instr", "vm",
		"the same programs on the compiled tier: a closure-threading or pre-decode change moves this and not vm_interp",
		func(seed uint64, sz size) (instance, error) { return setupVM(seed, sz, vm.TierCompiled) }},
	{"fleet_soak", "attempt", "fleet",
		"a 64-replica scale soak and an 8-replica zone-outage soak with retries, hedges and migration: no IR at all",
		func(seed uint64, sz size) (instance, error) { return setupFleet(seed, sz), nil }},
}

func workloadByName(name string) *workload {
	for i := range allWorkloads {
		if allWorkloads[i].name == name {
			return &allWorkloads[i]
		}
	}
	return nil
}

// ciInterval is the handler interval, in cycles, of every VM run the
// benchmark makes; probeIntervalIR is the compile-time probe interval.
const (
	ciInterval      = 5000
	probeIntervalIR = 250
)

// seededRNG returns the generator of one input stream of a run. The
// seed goes through the generator's mixer first: sim.RNG steps its state
// by a constant, so states derived linearly from neighbouring seeds
// would yield the same stream shifted by one draw.
func seededRNG(seed, stream uint64) *sim.RNG {
	return sim.NewRNG(sim.NewRNG(seed).Uint64() + stream)
}

// shuffle permutes xs by the seeded generator, so that input order
// derives from -seed.
func shuffle[T any](rng *sim.RNG, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(rng.Intn(int64(i + 1)))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// modelAcc folds the model results of program runs into the two model
// metrics of the IR workloads. Both are geometric means over programs,
// so that every program weighs the same: pooled over all executed
// instructions, the few longest-running programs of a corpus decide
// the result, and it moves by 30% and more from one seed to the next.
type modelAcc struct {
	logCPI, logGap float64
	runs, fired    int
}

// add folds in one run: its statistics and its recorded inter-fire
// gaps. The first gap spans registration to the first fire and is not
// a steady-state interval; it is dropped.
func (a *modelAcc) add(st vm.Stats, gaps []int64) {
	a.logCPI += math.Log(float64(st.Cycles) / float64(st.Instrs))
	a.runs++
	if len(gaps) > 1 {
		a.logGap += math.Log(float64(slices.Max(gaps[1:])))
		a.fired++
	}
}

// stats returns model cycles per executed instruction (probe and
// handler cost included) and the largest steady inter-fire gap, each
// as the geometric mean over the programs it is defined for.
func (a *modelAcc) stats() modelStats {
	return modelStats{
		cyclesPerUnit: math.Exp(a.logCPI / float64(max(a.runs, 1))),
		tailCycles:    math.Exp(a.logGap / float64(max(a.fired, 1))),
	}
}

// ---- compile_corpus ----

// compileConfig is one of the configurations every corpus program is
// compiled under.
type compileConfig struct {
	name string
	opts []core.Option
}

var compileConfigs = []compileConfig{
	{"CI", []core.Option{core.WithDesign(instrument.CI), core.WithProbeInterval(probeIntervalIR)}},
	{"CI-Cycles", []core.Option{core.WithDesign(instrument.CICycles), core.WithProbeInterval(probeIntervalIR)}},
	{"Naive", []core.Option{core.WithDesign(instrument.Naive), core.WithProbeInterval(probeIntervalIR)}},
	{"CI+opt", []core.Option{core.WithDesign(instrument.CI), core.WithProbeInterval(probeIntervalIR), core.WithOptimize(true)}},
}

// corpusProgram is one input of compile_corpus.
type corpusProgram struct {
	name   string
	text   string
	src    *ir.Module // as generated; the reference for verification
	instrs int
	arg    int64 // argument of main
}

// Generated programs whose uninstrumented run exceeds this many
// instructions are not admitted to the corpus: the verification pass
// executes every program six times and no operation may exhaust the
// oracle's step budget.
const corpusExecLimit = 1_000_000

type corpusInstance struct {
	progs []corpusProgram
	units int64
	hash  uint64
}

// compileOut is one compiled program, or the error that replaced it.
type compileOut struct {
	prog *core.Program
	err  error
}

func setupCorpus(seed uint64, sz size) (*corpusInstance, error) {
	table7, small, large := len(workloads.All), 220, 22
	if sz == mini {
		table7, small, large = 2, 40, 4
	}
	in := &corpusInstance{}
	add := func(name string, m *ir.Module, arg int64) {
		n := 0
		for _, f := range m.Funcs {
			n += f.NumInstrs()
		}
		in.progs = append(in.progs, corpusProgram{name: name, text: m.String(), src: m, instrs: n, arg: arg})
	}
	for i := 0; i < table7; i++ {
		w := workloads.All[i]
		add(w.Name, w.Build(1), 0)
	}
	// Fuzz seeds come from one seeded stream; a candidate that runs too
	// long is skipped and the next one drawn.
	rng := seededRNG(seed, 1)
	fill := func(kind string, n int, opts func(i int) fuzz.Options) error {
		for i, tries := 0, 0; i < n; tries++ {
			if tries > 20*n+100 {
				return fmt.Errorf("compile_corpus: cannot draw %d %s programs under the execution limit", n, kind)
			}
			fs := rng.Uint64()
			m := fuzz.Generate(fs, opts(i))
			machine := vm.New(m, nil, 1)
			machine.LimitInstrs = corpusExecLimit
			if _, err := machine.NewThread(0).Run("main", 4095); err != nil {
				if errors.Is(err, vm.ErrStepBudget) {
					continue
				}
				return fmt.Errorf("compile_corpus: fuzz seed %d: %w", fs, err)
			}
			add(fmt.Sprintf("%s-%d", kind, fs), m, 4095)
			i++
		}
		return nil
	}
	if err := fill("small", small, func(i int) fuzz.Options { return fuzz.Options{WithExterns: i%2 == 0} }); err != nil {
		return nil, err
	}
	if err := fill("large", large, func(int) fuzz.Options {
		return fuzz.Options{MaxDepth: 4, MaxStmts: 10, MaxFuncs: 8, WithExterns: true}
	}); err != nil {
		return nil, err
	}
	if sz == double {
		// The same programs twice: exactly twice the units.
		in.progs = append(in.progs, in.progs...)
	}
	shuffle(rng, in.progs)
	h := fnv.New64a()
	for _, p := range in.progs {
		h.Write([]byte(p.text))
		in.units += int64(p.instrs * len(compileConfigs))
	}
	in.hash = h.Sum64()
	return in, nil
}

func (in *corpusInstance) digest() uint64 { return in.hash }
func (in *corpusInstance) ops() int       { return len(in.progs) * len(compileConfigs) }

func (in *corpusInstance) rep(tr *tracer) any {
	out := make([]compileOut, 0, in.ops())
	for i := range in.progs {
		s := tr.begin("ir.Parse", i, -1, false)
		m, err := ir.Parse(in.progs[i].text)
		tr.end(s)
		for _, c := range compileConfigs {
			if err != nil {
				out = append(out, compileOut{err: err})
				continue
			}
			s := tr.begin("core.Compile/"+c.name, i, -1, false)
			p, cerr := core.Compile(m, c.opts...)
			tr.end(s)
			out = append(out, compileOut{p, cerr})
		}
	}
	return out
}

func (in *corpusInstance) stat(out any) repStat {
	h := fnv.New64a()
	for _, o := range out.([]compileOut) {
		if o.err != nil {
			fmt.Fprint(h, "error;")
			continue
		}
		n := 0
		for _, f := range o.prog.Mod.Funcs {
			n += f.NumInstrs()
		}
		fmt.Fprintf(h, "%d,%d;", o.prog.Instr.Probes, n)
	}
	return repStat{units: in.units, model: h.Sum64()}
}

// verify runs every compiled program against the program as generated,
// uninstrumented, on the interpreter: same stores, return value and
// final memory. The model statistics are those of the generated code:
// every CI-compiled program run once with a handler.
func (in *corpusInstance) verify(out any) ([]string, modelStats) {
	outs := out.([]compileOut)
	var failures []string
	var model modelAcc
	for i, p := range in.progs {
		eo := sanitize.ExecOptions{Args: []int64{p.arg}, LimitInstrs: 10 * corpusExecLimit, IntervalCycles: ciInterval}
		base, err := sanitize.Execute(p.src, eo)
		for c, cfg := range compileConfigs {
			o := outs[i*len(compileConfigs)+c]
			switch {
			case err == nil && o.err == nil:
				if err := o.prog.Mod.Verify(); err != nil {
					o.err = err
				} else {
					o.err = sanitize.DiffTrace(base, o.prog.Mod, cfg.name, eo)
				}
			case o.err == nil:
				o.err = err
			}
			if o.err != nil {
				failures = append(failures, fmt.Sprintf("%s/%s: %v", p.name, cfg.name, o.err))
			}
		}
		if ci := outs[i*len(compileConfigs)]; ci.err == nil {
			res, err := ci.prog.Run("main", core.WithArgv(p.arg), core.WithInterval(ciInterval),
				core.WithRecordIntervals(true), core.WithLimit(10*corpusExecLimit))
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s/CI: run: %v", p.name, err))
				continue
			}
			model.add(res.Stats[0], res.Intervals[0])
		}
	}
	return failures, model.stats()
}

// ---- vm_interp, vm_compiled ----

type vmProgram struct {
	name string
	prog *core.Program
}

type vmInstance struct {
	tier   vm.Tier
	passes int
	progs  []vmProgram
	opts   []core.Option
	hash   uint64
}

// runOut is one program run, or the error that replaced it.
type runOut struct {
	res *core.RunResult
	err error
}

func setupVM(seed uint64, sz size, tier vm.Tier) (*vmInstance, error) {
	in := &vmInstance{tier: tier, passes: 1}
	if tier == vm.TierCompiled {
		in.passes = 2
	}
	scale := 12
	switch sz {
	case mini:
		scale = 1
	case double:
		in.passes *= 2
	}
	h := fnv.New64a()
	for _, w := range workloads.All {
		p, err := core.Compile(w.Build(scale), core.WithDesign(instrument.CI), core.WithProbeInterval(probeIntervalIR))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		in.progs = append(in.progs, vmProgram{w.Name, p})
	}
	// The Table-7 programs are fixed; only their order derives from
	// the seed.
	shuffle(seededRNG(seed, 2), in.progs)
	for _, p := range in.progs {
		fmt.Fprintf(h, "%s/%d;", p.name, scale)
	}
	in.hash = h.Sum64()
	in.opts = runOptions(tier)
	return in, nil
}

// runOptions are the run options of both VM workloads.
func runOptions(tier vm.Tier) []core.Option {
	return []core.Option{core.WithThreads(1), core.WithInterval(ciInterval),
		core.WithRecordIntervals(true), core.WithTier(tier), core.WithLimit(4e9)}
}

func (in *vmInstance) digest() uint64 { return in.hash }
func (in *vmInstance) ops() int       { return in.passes * len(in.progs) }

func (in *vmInstance) rep(tr *tracer) any {
	out := make([]runOut, 0, in.ops())
	for pass := 0; pass < in.passes; pass++ {
		for i, p := range in.progs {
			// core.Program.Run is a thin wrapper: its span is the VM's.
			s := tr.begin("vm.Run/"+in.tier.String(), pass*len(in.progs)+i, -1, false)
			res, err := p.prog.Run("main", in.opts...)
			tr.end(s)
			out = append(out, runOut{res, err})
		}
	}
	return out
}

func (in *vmInstance) stat(out any) repStat {
	var st repStat
	h := fnv.New64a()
	for _, o := range out.([]runOut) {
		if o.err != nil {
			fmt.Fprint(h, "error;")
			continue
		}
		st.units += o.res.Stats[0].Instrs
		fmt.Fprintf(h, "%+v,%d,%d;", o.res.Stats[0], o.res.Returns[0], len(o.res.Intervals[0]))
	}
	st.model = h.Sum64()
	return st
}

// verify checks vm_interp against the uninstrumented source on the
// interpreter (same return value, and the handler ran), and
// vm_compiled against the instrumented program on the interpreter
// (same return value, statistics and interval list).
func (in *vmInstance) verify(out any) ([]string, modelStats) {
	outs := out.([]runOut)
	var failures []string
	var model modelAcc
	refOpts := runOptions(vm.TierInterpreter)
	for i, p := range in.progs {
		var check func(res *core.RunResult) error
		if in.tier == vm.TierInterpreter {
			machine := vm.New(p.prog.Source, nil, 1)
			machine.LimitInstrs = 4e9
			want, err := machine.NewThread(0).Run("main", 0)
			check = func(res *core.RunResult) error {
				switch {
				case err != nil:
					return fmt.Errorf("reference run: %w", err)
				case res.Returns[0] != want:
					return fmt.Errorf("returned %d, uninstrumented source returned %d", res.Returns[0], want)
				case res.Stats[0].HandlerCalls == 0:
					return errors.New("handler never ran")
				}
				return nil
			}
		} else {
			ref, err := p.prog.Run("main", refOpts...)
			check = func(res *core.RunResult) error {
				switch {
				case err != nil:
					return fmt.Errorf("reference run: %w", err)
				case res.Returns[0] != ref.Returns[0]:
					return fmt.Errorf("returned %d, interpreter returned %d", res.Returns[0], ref.Returns[0])
				case res.Stats[0] != ref.Stats[0]:
					return fmt.Errorf("stats %+v, interpreter %+v", res.Stats[0], ref.Stats[0])
				case !slices.Equal(res.Intervals[0], ref.Intervals[0]):
					return errors.New("interval list differs from the interpreter's")
				}
				return nil
			}
		}
		for pass := 0; pass < in.passes; pass++ {
			o := outs[pass*len(in.progs)+i]
			if o.err == nil {
				o.err = check(o.res)
			}
			if o.err != nil {
				failures = append(failures, fmt.Sprintf("%s pass %d: %v", p.name, pass, o.err))
				continue
			}
			model.add(o.res.Stats[0], o.res.Intervals[0])
		}
	}
	return failures, model.stats()
}

// ---- fleet_soak ----

type fleetInstance struct {
	cfgs [2]fleet.Config // the scale soak and the zone-outage soak
	hash uint64
}

// fleetOut is one soak's result and its conservation verdict.
type fleetOut struct {
	res *fleet.Result
	err error
}

func setupFleet(seed uint64, sz size) *fleetInstance {
	// Horizons in eighths of the full size.
	eighths := int64(8)
	switch sz {
	case mini:
		eighths = 1
	case double:
		eighths = 16
	}
	scale := experiments.FleetScaleConfig(seed, 1)
	scale.HorizonCycles = 19_500_000 * eighths / 8
	zone := experiments.FleetZoneConfig(fleet.Config{
		Seed: seed, HedgeDelayCycles: 1_300_000, MisbehavingTenant: 0,
		HorizonCycles: 130_000_000 * eighths / 8,
	}, true)
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v;%+v;%+v;%+v", scale, *scale.Faults, zone, *zone.Faults)
	return &fleetInstance{cfgs: [2]fleet.Config{scale, zone}, hash: h.Sum64()}
}

func (in *fleetInstance) digest() uint64 { return in.hash }
func (in *fleetInstance) ops() int       { return len(in.cfgs) }

func (in *fleetInstance) rep(tr *tracer) any {
	out := make([]fleetOut, 0, len(in.cfgs))
	for i, cfg := range in.cfgs {
		s := tr.begin("fleet.Run", i, -1, false)
		res := fleet.Run(cfg, nil)
		tr.end(s)
		s = tr.begin("fleet.Conservation", i, -1, false)
		err := res.Conservation()
		tr.end(s)
		out = append(out, fleetOut{res, err})
	}
	return out
}

func (in *fleetInstance) stat(out any) repStat {
	var st repStat
	for _, o := range out.([]fleetOut) {
		st.units += o.res.Attempts
		st.model = st.model*1099511628211 ^ o.res.Fingerprint()
	}
	return st
}

// verify checks the conservation oracle, the replicas' own invariants,
// that migration stranded nothing, and that a run on a pool of two
// workers reports exactly what the serial run did.
func (in *fleetInstance) verify(out any) ([]string, modelStats) {
	var failures []string
	var replicaCycles, served int64
	var tail float64
	for i, o := range out.([]fleetOut) {
		var stranded int64
		for _, st := range o.res.PerReplica {
			stranded += st.StrandedQueued
		}
		err := o.err
		switch {
		case err != nil:
		case len(o.res.InvariantErrs) > 0:
			err = fmt.Errorf("replica invariants: %v", o.res.InvariantErrs)
		case stranded != 0:
			err = fmt.Errorf("migration stranded %d queued attempts", stranded)
		default:
			if par := fleet.Run(in.cfgs[i], engine.NewPool(2)); par.Fingerprint() != o.res.Fingerprint() {
				err = fmt.Errorf("pool of 2 reports %x, serial %x", par.Fingerprint(), o.res.Fingerprint())
			}
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("soak %d: %v", i, err))
		}
		replicaCycles += int64(in.cfgs[i].Replicas) * in.cfgs[i].HorizonCycles
		served += o.res.Served
		tail = max(tail, o.res.P999Us*fleet.CyclesPerUs)
	}
	return failures, modelStats{cyclesPerUnit: float64(replicaCycles) / float64(max(served, 1)), tailCycles: tail}
}
