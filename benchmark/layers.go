package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cfg"
	"repro/internal/ci/analysis"
	"repro/internal/ci/ciruntime"
	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/ffwd"
	"repro/internal/fleet"
	"repro/internal/interleave"
	"repro/internal/ir"
	"repro/internal/mtcp"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/overload"
	"repro/internal/sanitize"
	"repro/internal/shenango"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vm"
)

// enginesBuilt counts the experiment engines (each holds a memo cache)
// the harness has constructed. Only layer probes construct one, through
// newEngine, and a scored run checks the count is still zero when its
// timed reps end: a timed region must pay for its work every rep.
var enginesBuilt int

func newEngine() *engine.Engine {
	enginesBuilt++
	return engine.Serial()
}

// tracedRun is the per-layer run of one workload: an untraced and a
// traced rep of the workload give its tracing overhead and the split of
// its rep wall over the layer groups; then every layer group is probed,
// on the workload's own inputs when the workload stresses that group
// and on mini inputs otherwise.
func tracedRun(w *workload, o options) (*result, error) {
	tr := newTracer()
	in, err := w.setup(o.seed, o.size)
	if err != nil {
		return nil, err
	}
	in.rep(nil) // warm-up
	p0 := hostProbe()
	_, plain := timeRep(in, nil)
	p1 := hostProbe()
	out, traced := timeRep(in, tr)
	plainWall, tracedWall := plain.wall/hostFactor(p0, p1), traced.wall/hostFactor(p1, hostProbe())
	fmt.Printf("%s traced: seed %d, size %s, input digest %016x; rep wall %.3f s untraced, %.3f s traced\n",
		w.name, o.seed, o.size, in.digest(), plainWall, tracedWall)

	vals := map[string]float64{
		"trace.overhead_pct": 100 * (tracedWall - plainWall) / plainWall,
		"trace.spans":        float64(len(tr.spans)),
	}
	for g, s := range groupShares(tr.spans, 0, time.Duration(traced.wall*1e9)) {
		vals["share."+g] = s
	}
	failures, _ := in.verify(out)
	for _, f := range failures {
		fmt.Println("  FAILED", f)
	}
	ops := in.ops()
	in, out = nil, nil

	// Every group is probed, at the run's size where the workload
	// stresses the group and on mini inputs elsewhere. The spans and the
	// ns-per-something metrics are as measured; host.factor says how slow
	// a host they were measured on.
	sizeOf := func(group string) size {
		if w.group == group {
			return o.size
		}
		return mini
	}
	hostSamples := []float64{p0, p1}
	corpus, err := setupCorpus(o.seed, sizeOf("compiler"))
	if err == nil {
		err = probeCompiler(tr, corpus, vals)
	}
	if err != nil {
		return nil, fmt.Errorf("compiler probe: %w", err)
	}
	hostSamples = append(hostSamples, hostProbe())
	progs, err := setupVM(o.seed, sizeOf("vm"), vm.TierInterpreter)
	if err == nil {
		err = probeVM(tr, progs, vals)
	}
	if err != nil {
		return nil, fmt.Errorf("vm probe: %w", err)
	}
	hostSamples = append(hostSamples, hostProbe())
	probeFleet(tr, setupFleet(o.seed, sizeOf("fleet")), o.seed, vals)
	hostSamples = append(hostSamples, hostProbe())
	if err := probeMisc(tr, o.seed, vals); err != nil {
		return nil, fmt.Errorf("misc probe: %w", err)
	}
	vals["host.factor"] = median(append(hostSamples, hostProbe())) / probeNominal

	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(tr.writeChrome(f), f.Close()); err != nil {
			return nil, err
		}
		fmt.Printf("  %d spans written to %s\n", len(tr.spans), o.traceOut)
	}
	return newResult(perLayer, vals, ops, len(failures))
}

// since is the time since t in nanoseconds, as a float.
func since(t time.Time) float64 { return float64(time.Since(t)) }

// mallocs runs f and returns how many heap objects it allocated.
func mallocs(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs)
}

// perCall times n calls of f and returns nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return since(t0) / float64(n)
}

// probeCompiler decomposes text-to-program over the corpus: the calls
// the workload makes (parse, compile under each config), then the
// layers hidden inside core.Compile, timed separately on the same
// input as detached children of the compile span.
func probeCompiler(tr *tracer, in *corpusInstance, vals map[string]float64) error {
	from := len(tr.spans)
	srcs := make([]*ir.Module, len(in.progs))
	var instrs, blocks, optInstrs, optRemoved float64
	var probes [2]float64 // CI, Naive
	var perr error
	parseAllocs := mallocs(func() {
		for i, p := range in.progs {
			s := tr.begin("ir.Parse", i, -1, false)
			srcs[i], perr = ir.Parse(p.text)
			tr.end(s)
			if perr != nil {
				return
			}
		}
	})
	if perr != nil {
		return perr
	}
	aopts := analysis.Options{ProbeInterval: probeIntervalIR}
	var analyzeAllocs float64
	for i, src := range srcs {
		instrs += float64(in.progs[i].instrs)
		s := tr.begin("ir.Print", i, -1, false)
		_ = src.String()
		tr.end(s)

		var ci, ciOpt int
		for _, cc := range compileConfigs {
			s := tr.begin("core.Compile/"+cc.name, i, -1, false)
			p, err := core.Compile(src, cc.opts...)
			tr.end(s)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", in.progs[i].name, cc.name, err)
			}
			switch cc.name {
			case "CI":
				ci, probes[0] = s, probes[0]+float64(p.Instr.Probes)
			case "Naive":
				probes[1] += float64(p.Instr.Probes)
			case "CI+opt":
				ciOpt = s
			}
		}

		s = tr.begin("ir.Verify", i, ci, true)
		err := src.Verify()
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("ir.Clone", i, ci, true)
		cl := src.Clone()
		tr.end(s)
		is := tr.begin("instrument.Instrument", i, ci, true)
		_, err = instrument.Instrument(cl, instrument.Options{Design: instrument.CI, Analysis: aopts})
		tr.end(is)
		if err != nil {
			return err
		}
		cl = src.Clone()
		var as int
		analyzeAllocs += mallocs(func() {
			as = tr.begin("analysis.Analyze", i, is, true)
			analysis.Analyze(cl, aopts)
			tr.end(as)
		})
		cl = src.Clone()
		s = tr.begin("cfg.Canonicalize", i, as, true)
		for _, f := range cl.Funcs {
			cfg.Canonicalize(f)
		}
		tr.end(s)
		s = tr.begin("cfg.DomLoops", i, as, true)
		for _, f := range cl.Funcs {
			f.Reindex()
			g := cfg.New(f)
			cfg.FindLoops(g, cfg.Dominators(g))
			blocks += float64(g.N)
		}
		tr.end(s)

		cl = src.Clone()
		s = tr.begin("opt.Module", i, ciOpt, true)
		opt.Module(cl)
		tr.end(s)
		after := 0
		for _, f := range cl.Funcs {
			after += f.NumInstrs()
		}
		optInstrs += float64(in.progs[i].instrs)
		optRemoved += float64(in.progs[i].instrs - after)
	}

	total := func(name string) float64 { return float64(tr.total(name, from)) }
	self := selfTimes(tr.spans)
	var compile, compileCI, compileCISelf, instrumentSelf float64
	for _, c := range compileConfigs {
		compile += total("core.Compile/" + c.name)
	}
	for i := from; i < len(tr.spans); i++ {
		switch tr.spans[i].Name {
		case "core.Compile/CI":
			compileCI += float64(tr.spans[i].dur())
			compileCISelf += float64(self[i])
		case "instrument.Instrument":
			instrumentSelf += float64(self[i])
		}
	}
	vals["ir.parse_ns_per_instr"] = total("ir.Parse") / instrs
	vals["ir.parse_allocs_per_instr"] = parseAllocs / instrs
	vals["ir.verify_ns_per_instr"] = total("ir.Verify") / instrs
	vals["ir.clone_ns_per_instr"] = total("ir.Clone") / instrs
	vals["ir.print_ns_per_instr"] = total("ir.Print") / instrs
	vals["cfg.canonicalize_ns_per_instr"] = total("cfg.Canonicalize") / instrs
	vals["cfg.dom_loops_ns_per_block"] = total("cfg.DomLoops") / blocks
	vals["opt.module_ns_per_instr"] = total("opt.Module") / optInstrs
	vals["opt.removed_instr_frac"] = optRemoved / optInstrs
	vals["analysis.analyze_ns_per_instr"] = total("analysis.Analyze") / instrs
	vals["analysis.allocs_per_instr"] = analyzeAllocs / instrs
	vals["instrument.self_ns_per_instr"] = instrumentSelf / instrs
	vals["instrument.static_probes_per_kinstr.ci"] = 1e3 * probes[0] / instrs
	vals["instrument.static_probes_per_kinstr.naive"] = 1e3 * probes[1] / instrs
	vals["core.compile_ns_per_instr"] = compile / (instrs * float64(len(compileConfigs)))
	vals["core.compile_self_frac"] = compileCISelf / compileCI
	vals["core.parse_share"] = total("ir.Parse") / (total("ir.Parse") + compile)
	return nil
}

// vmPass is one pass over the VM programs. Its wall time is divided by
// the host factor measured around the pass, because the passes are
// compared with each other.
type vmPass struct {
	wall, allocs                          float64
	cycles, instrs, probes, fires, failed int64
	gaps                                  []int64
}

// probeVM runs the pre-compiled programs on both tiers, uninstrumented
// and with an enabled obs scope, and times the ciruntime calls a VM
// run makes.
func probeVM(tr *tracer, in *vmInstance, vals map[string]float64) error {
	pass := func(name string, run func(p vmProgram) (*core.RunResult, error)) (vmPass, error) {
		var ps vmPass
		var err error
		probe := hostProbe()
		ps.allocs = mallocs(func() {
			for i, p := range in.progs {
				s := tr.begin(name, i, -1, false)
				t0 := time.Now()
				res, rerr := run(p)
				ps.wall += since(t0)
				tr.end(s)
				if rerr != nil {
					err = fmt.Errorf("%s: %s: %w", name, p.name, rerr)
					return
				}
				st := res.Stats[0]
				ps.cycles, ps.instrs = ps.cycles+st.Cycles, ps.instrs+st.Instrs
				ps.probes, ps.fires = ps.probes+st.Probes, ps.fires+st.HandlerCalls
				if gaps := res.Intervals[0]; len(gaps) > 1 {
					ps.gaps = append(ps.gaps, gaps[1:]...)
				}
			}
		}) / float64(len(in.progs))
		ps.wall /= hostFactor(probe, hostProbe())
		return ps, err
	}
	tier := func(t vm.Tier, extra ...core.Option) func(vmProgram) (*core.RunResult, error) {
		opts := append(runOptions(t), extra...)
		return func(p vmProgram) (*core.RunResult, error) { return p.prog.Run("main", opts...) }
	}
	interp, err := pass("vm.Run/interpreter", tier(vm.TierInterpreter))
	if err != nil {
		return err
	}
	compiled, err := pass("vm.Run/compiled", tier(vm.TierCompiled))
	if err != nil {
		return err
	}
	plain, err := pass("vm.Run/uninstrumented", func(p vmProgram) (*core.RunResult, error) {
		machine := vm.New(p.prog.Source, nil, 1)
		machine.LimitInstrs = 4e9
		th := machine.NewThread(0)
		_, err := th.Run("main", 0)
		return &core.RunResult{Stats: []vm.Stats{th.Stats}, Intervals: [][]int64{nil}}, err
	})
	if err != nil {
		return err
	}
	observed, err := pass("obs.Run/enabled", tier(vm.TierInterpreter, core.WithObs(obs.New(0))))
	if err != nil {
		return err
	}

	// A run cut off after one instruction costs what every run pays up
	// front; the compiled tier's extra is its pre-decode. The tiers
	// alternate so that a slow phase of the host hits both.
	s := tr.begin("vm.Run/cut-off", 0, -1, false)
	var upFront [2]float64
	const rounds = 4
	for r := 0; r < rounds; r++ {
		for _, p := range in.progs {
			for i, t := range []vm.Tier{vm.TierInterpreter, vm.TierCompiled} {
				t0 := time.Now()
				_, err := p.prog.Run("main", append(runOptions(t), core.WithLimit(1))...)
				upFront[i] += since(t0)
				if !errors.Is(err, vm.ErrStepBudget) {
					return fmt.Errorf("%s: cut-off run returned %v", p.name, err)
				}
			}
		}
	}
	tr.end(s)
	predecodeNs := (upFront[1] - upFront[0]) / float64(rounds*len(in.progs))

	s = tr.begin("ciruntime.micro", 0, -1, false)
	quiet, busy := ciruntime.New(), ciruntime.New()
	quiet.RegisterCI(1<<40, func(uint64) {})
	busy.RegisterCI(1, func(uint64) {})
	untakenNs := perCall(5_000_000, func(i int) { quiet.ProbeIR(10, int64(i)) })
	fireNs := perCall(2_000_000, func(i int) { busy.ProbeIR(10, int64(10*i)) })
	policy := func(p ciruntime.QuantumPolicy) float64 {
		p.Reset(ciInterval)
		cur := int64(ciInterval)
		return perCall(1_000_000, func(i int) { cur, _ = p.Observe(ciInterval+int64(i%7)*900, cur) })
	}
	vals["ciruntime.policy_observe_ns.aimd"] = policy(&ciruntime.AIMD{})
	vals["ciruntime.policy_observe_ns.feedback"] = policy(&ciruntime.FeedbackPID{})
	tr.end(s)

	errs := make([]int64, len(interp.gaps))
	for i, g := range interp.gaps {
		errs[i] = max(g-ciInterval, ciInterval-g)
	}
	vals["vm.interp_ns_per_instr"] = interp.wall / float64(interp.instrs)
	vals["vm.compiled_ns_per_instr"] = compiled.wall / float64(compiled.instrs)
	vals["vm.tier_speedup"] = interp.wall / compiled.wall
	vals["vm.compiled_predecode_us_per_run"] = predecodeNs / 1e3
	vals["vm.allocs_per_run.interp"] = interp.allocs
	vals["vm.allocs_per_run.compiled"] = compiled.allocs
	vals["vm.dyn_probes_per_kinstr"] = 1e3 * float64(interp.probes) / float64(interp.instrs)
	vals["vm.overhead_pct"] = 100 * float64(interp.cycles-plain.cycles) / float64(plain.cycles)
	vals["vm.interval_err_p99_pct"] = 0
	if len(errs) > 0 {
		vals["vm.interval_err_p99_pct"] = 100 * float64(stats.Percentile(errs, 99)) / ciInterval
	}
	vals["ciruntime.probe_untaken_ns"] = untakenNs
	vals["ciruntime.fire_ns"] = fireNs
	vals["ciruntime.fires_per_minstr"] = 1e6 * float64(interp.fires) / float64(interp.instrs)
	vals["ciruntime.est_share_of_vm"] = (float64(interp.probes)*untakenNs + float64(interp.fires)*fireNs) / interp.wall
	vals["obs.enabled_overhead_pct"] = 100 * (observed.wall - interp.wall) / interp.wall
	return nil
}

// probeFleet runs both soaks serially and the scale soak on a pool of
// two, and times the calls a replica step makes into the overload,
// faults and stats layers.
func probeFleet(tr *tracer, in *fleetInstance, seed uint64, vals map[string]float64) {
	var wall [2]float64
	var res [2]*fleet.Result
	names := [2]string{"fleet.Run/scale", "fleet.Run/zone"}
	allocs := mallocs(func() {
		for i, cfg := range in.cfgs {
			s := tr.begin(names[i], i, -1, false)
			t0 := time.Now()
			res[i] = fleet.Run(cfg, nil)
			wall[i] = since(t0)
			tr.end(s)
		}
	})
	// The one measurement that needs a second P.
	procs := runtime.GOMAXPROCS(2)
	s := tr.begin("fleet.Run/pool2", 0, -1, false)
	t0 := time.Now()
	fleet.Run(in.cfgs[0], engine.NewPool(2))
	pool2 := since(t0)
	tr.end(s)
	runtime.GOMAXPROCS(procs)

	var attempts, injected, served, migrated, epochs, polls float64
	for i, r := range res {
		attempts, injected = attempts+float64(r.Attempts), injected+float64(r.Injected)
		served, migrated = served+float64(r.Served), migrated+float64(r.Migrated)
		e := float64(in.cfgs[i].HorizonCycles / fleet.EpochCycles)
		epochs += e
		polls += e * float64(in.cfgs[i].Replicas) * fleet.EpochCycles / fleet.PollIntervalCycles
	}

	s = tr.begin("overload.micro", 0, -1, false)
	ctl := overload.New(&overload.Config{RatePerCycle: 1e-3, DeadlineCycles: fleet.DefaultDeadlineCycles})
	admitNs := perCall(2_000_000, func(i int) {
		now := int64(i) * 1000
		ctl.Admit(now, overload.Request{Arrival: now, EstDelayCycles: 5000})
	})
	pollNs := perCall(2_000_000, func(i int) { ctl.Poll(int64(i)*fleet.PollIntervalCycles, int64(i%64)*100) })
	tr.end(s)
	s = tr.begin("faults.micro", 0, -1, false)
	inj := faults.New(faults.Uniform(seed, 0.01), "benchmark")
	vals["faults.draw_ns"] = perCall(5_000_000, func(int) { inj.Drop() })
	tr.end(s)
	s = tr.begin("stats.micro", 0, -1, false)
	var hist stats.LogHist
	rng := sim.NewRNG(seed)
	samples := make([]int64, 200_000)
	for i := range samples {
		samples[i] = rng.Exp(50_000)
	}
	vals["stats.loghist_observe_ns"] = perCall(5_000_000, func(i int) { hist.Add(samples[i%len(samples)]) })
	vals["stats.summarize_ns_per_sample"] = perCall(10, func(int) { stats.Summarize(samples) }) / float64(len(samples))
	tr.end(s)

	vals["fleet.scale_ns_per_attempt"] = wall[0] / float64(res[0].Attempts)
	vals["fleet.zone_ns_per_attempt"] = wall[1] / float64(res[1].Attempts)
	vals["fleet.allocs_per_attempt"] = allocs / attempts
	vals["fleet.epochs"] = epochs
	vals["fleet.pool2_speedup"] = wall[0] / pool2
	vals["fleet.goodput_frac"] = served / injected
	vals["fleet.amplification"] = attempts / injected
	vals["fleet.migrated"] = migrated
	vals["overload.admit_ns"] = admitNs
	vals["overload.poll_ns"] = pollNs
	vals["overload.est_share_of_fleet"] = (attempts*admitNs + polls*pollNs) / (wall[0] + wall[1])
}

// probeMisc records the layers no end-to-end workload covers yet, so a
// later benchmark change can promote them.
func probeMisc(tr *tracer, seed uint64, vals map[string]float64) error {
	timed := func(name string, f func() error) (float64, error) {
		s := tr.begin(name, 0, -1, false)
		t0 := time.Now()
		err := f()
		d := since(t0)
		tr.end(s)
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return d, err
	}

	const events = 200_000
	var simNs float64
	vals["sim.allocs_per_event"] = mallocs(func() {
		simNs, _ = timed("sim.Run", func() error {
			e := sim.NewEngine()
			for i := 0; i < events; i++ {
				e.At(int64(i%977)*13, func() {})
			}
			if n := e.Run(1 << 40); n != events {
				return fmt.Errorf("ran %d of %d events", n, events)
			}
			return nil
		})
	}) / events
	vals["sim.event_ns"] = simNs / events

	var mres mtcp.Result
	ns, err := timed("mtcp.Run", func() (err error) {
		mres, err = mtcp.RunChecked(mtcp.Config{Mode: mtcp.CI, Conns: 64, Seed: seed})
		return err
	})
	if err != nil {
		return err
	}
	vals["mtcp.ns_per_req"], vals["mtcp.gbps"] = ns/float64(max(mres.Issued, 1)), mres.ThroughputGbps

	var sres shenango.Result
	scfg := shenango.Config{Kind: shenango.CIHosted, OfferedLoad: 1e6, Seed: seed}
	ns, err = timed("shenango.Run", func() (err error) {
		sres, err = shenango.RunChecked(scfg)
		return err
	})
	if err != nil {
		return err
	}
	reqs := sres.AchievedLoad * 130_000_000 / (fleet.CyclesPerUs * 1e6) // default duration
	vals["shenango.ns_per_req"], vals["shenango.p999_us"] = ns/max(reqs, 1), sres.P999Us

	ns, _ = timed("ffwd.Run", func() error {
		ffwd.Run(ffwd.Config{Design: ffwd.DelegationCI, Threads: 32, RecordLatencies: true, Seed: seed})
		return nil
	})
	vals["ffwd.run_us"] = ns / 1e3

	cache := engine.NewCache(0)
	build := func() (any, error) { return 1, nil }
	if _, err := cache.Get("k", build); err != nil {
		return err
	}
	vals["engine.cache_hit_ns"] = perCall(2_000_000, func(int) { cache.Get("k", build) })
	const cells = 100_000
	ns, _ = timed("engine.Map", func() error {
		engine.Map(engine.NewPool(2), cells, func(i int) (int, error) { return i, nil })
		return nil
	})
	vals["engine.map_ns_per_cell"] = ns / cells

	// Translation validation and the tier oracle over a small corpus.
	corpus, err := setupCorpus(seed, mini)
	if err != nil {
		return err
	}
	cfgCI := core.ConfigOf(compileConfigs[0].opts...)
	var plainNs, checkedNs, tiersNs, ran float64
	for _, p := range corpus.progs {
		eo := sanitize.ExecOptions{Args: []int64{p.arg}, LimitInstrs: 10 * corpusExecLimit, IntervalCycles: ciInterval}
		var prog *core.Program
		d, err := timed("core.Compile/CI", func() (err error) {
			prog, err = core.Compile(p.src, compileConfigs[0].opts...)
			return err
		})
		if err != nil {
			return err
		}
		plainNs += d
		d, err = timed("sanitize.CompileChecked", func() error {
			_, err := sanitize.CompileChecked(p.src, cfgCI, sanitize.Options{Exec: true, ExecOptions: eo})
			return err
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		checkedNs += d
		d, err = timed("sanitize.DiffTiers", func() error { return sanitize.DiffTiers(prog.Mod, eo) })
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		tiersNs += d
		res, err := prog.Run("main", core.WithArgv(p.arg), core.WithLimit(eo.LimitInstrs))
		if err != nil {
			return err
		}
		ran += 2 * float64(res.Stats[0].Instrs) // once per tier
	}
	vals["sanitize.checked_compile_ratio"] = checkedNs / plainNs
	vals["sanitize.difftiers_ns_per_instr"] = tiersNs / ran

	var rep *interleave.Report
	ns, err = timed("interleave.VerifyHandlers", func() (err error) {
		src := fuzz.Generate(seed, fuzz.Options{MaxDepth: 2, MaxStmts: 5, MaxFuncs: 2, WithHandler: true})
		rep, err = interleave.VerifyHandlers(src, newEngine(), interleave.Options{LimitInstrs: 10 * corpusExecLimit})
		return err
	})
	if err != nil {
		return err
	}
	vals["interleave.schedules_per_s"] = float64(rep.Schedules) / (ns / 1e9)

	ns, err = timed("experiments.PrintTable7", func() error { return experiments.PrintTable7(io.Discard, newEngine(), 1) })
	if err != nil {
		return err
	}
	vals["experiments.table7_s"] = ns / 1e9
	ns, err = timed("experiments.PrintFigure10", func() error { return experiments.PrintFigure10(io.Discard, newEngine(), 1) })
	if err != nil {
		return err
	}
	vals["experiments.fig10_s"] = ns / 1e9

	// The built commands, from the outside.
	ciexp, err := tool("ciexp")
	if err != nil {
		return err
	}
	cirun, err := tool("cirun")
	if err != nil {
		return err
	}
	var stdout []byte
	ns, err = timed("cmd.ciexp", func() (err error) {
		stdout, err = exec.Command(ciexp, "-quick", "-workers", "1", "all").Output()
		return err
	})
	if err != nil {
		return err
	}
	vals["cmd.ciexp_quick_all_s"] = ns / 1e9
	fmt.Printf("  ciexp -quick -workers 1 all: %d bytes of output, sha256 %x\n", len(stdout), sha256.Sum256(stdout))

	irFile := filepath.Join(filepath.Dir(cirun), "benchmark-start.ir")
	if err := os.WriteFile(irFile, []byte(corpus.progs[0].text), 0o644); err != nil {
		return err
	}
	defer os.Remove(irFile)
	var starts []float64
	for i := 0; i < 5; i++ {
		ns, err = timed("cmd.cirun", func() error {
			return exec.Command(cirun, "-design", "ci", "-interval", fmt.Sprint(ciInterval),
				"-args", fmt.Sprint(corpus.progs[0].arg), irFile).Run()
		})
		if err != nil {
			return err
		}
		starts = append(starts, ns/1e6)
	}
	vals["cmd.cirun_start_ms"] = median(starts)
	return nil
}

// tool builds a repository command beside the harness's own
// executable and returns its path. It must run from the repository
// root.
func tool(name string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	path := filepath.Join(filepath.Dir(self), "benchmark-"+name)
	if out, err := exec.Command("go", "build", "-o", path, "./cmd/"+name).CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/%s: %v: %s", name, err, out)
	}
	return path, nil
}
