// Command cirun is the one-program tool: it compiles a textual IR
// program with Compiler Interrupts and runs it on the VM — the
// repository's equivalent of building a C program with the CI pass and
// libci — or, in one of its other modes, shows or checks what the pass
// does to the program.
//
//	cirun [flags] program.ir
//
// At most one mode flag may be given; without one cirun runs the
// program:
//
//	(none)       compile with -design, run -entry with -args on -threads
//	             VM threads, a CI handler every -interval cycles, and
//	             print per-thread statistics and inter-fire intervals
//	-hot N       the same run under an enabled observability scope,
//	             then the N hottest probe sites: per IR function and
//	             block, how often its probe executed and fired
//	-print       print the instrumented IR
//	-costs       print the exported cost file (§2.6)
//	-dump        per function, the hierarchical container tree of §3.2
//	             with evaluated costs, the probe marks, the applied loop
//	             transforms and the probe-spacing verdict, then the
//	             exported cost table; it shows the CI analysis whatever
//	             the -design
//	-interleave  the handler interleaving verifier: force @handler at
//	             every feasible probe site (context bound -bound) and
//	             print the race-classification table; exits 1 on an
//	             unclassified race or a non-commutative schedule
//	-sanitize    compile under translation validation for every probe
//	             design — stage checks plus the differential execution
//	             oracle against the uninstrumented program, run with
//	             -args and -interval — and print one verdict per design;
//	             exits 1 on any finding
//
// A checked compile followed by a run is spelled
// `cirun -sanitize p.ir && cirun p.ir`.
//
// Runs execute on the VM's compiled tier, which matches the
// interpreter cycle for cycle. A run whose probes an enabled
// observability scope watches (-hot, -trace, -metrics) runs the
// compiled tier's hooked form, whose probes also record the profile.
//
// -quantum-policy picks the handler interval controller (fixed, aimd,
// feedback). -trace FILE writes a Chrome trace_event JSON of the run
// (probe fires, handler windows, hardware interrupts, external calls)
// and -metrics prints interval-error quantiles. -slo-p999us N turns the
// reported p99.9 inter-fire interval into a gate: cirun exits 1 when
// the polling cadence's tail exceeds N µs; -slo-maxus N gates the
// worst-case single gap the same way.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interleave"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sanitize"
	"repro/internal/stats"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errVerdict reports a check that ran and failed; its report is
// already printed, so cirun exits 1 without a message.
var errVerdict = errors.New("verdict failed")

// options is one invocation's command line.
type options struct {
	cf                  *cliflags.Flags
	interval, limit     int64
	entry, args         string
	threads, hot        int
	optimize            bool
	sloP999Us, sloMaxUs float64

	printIR, costs, dump, interleave, sanitize bool
}

// newFlags registers cirun's flags on fs and sets its usage text.
func newFlags(fs *flag.FlagSet) *options {
	o := &options{cf: cliflags.New(fs).AddDesign().AddCompile().AddQuantum().AddObs().AddProfile().AddBound()}
	fs.Int64Var(&o.interval, "interval", 5000, "CI interval in cycles (0 disables the handler)")
	fs.StringVar(&o.entry, "entry", "main", "entry function")
	fs.StringVar(&o.args, "args", "", "comma-separated int64 arguments for the entry function")
	fs.IntVar(&o.threads, "threads", 1, "VM threads")
	fs.Int64Var(&o.limit, "limit", 1_000_000_000, fmt.Sprintf(
		"per-thread instruction limit; under -sanitize, the oracle's step budget per run (capped at %dM)", oracleLimit/1_000_000))
	fs.BoolVar(&o.optimize, "O", false, "run the IR optimizer before instrumenting")
	fs.Float64Var(&o.sloP999Us, "slo-p999us", 500, "SLO: p99.9 inter-fire interval ceiling in µs (0 disables the guard)")
	fs.Float64Var(&o.sloMaxUs, "slo-maxus", 0, "SLO: worst-case inter-fire gap ceiling in µs (0 disables the guard)")
	fs.IntVar(&o.hot, "hot", 0, "run, then print the `N` hottest probe sites")
	fs.BoolVar(&o.printIR, "print", false, "print the instrumented IR instead of running")
	fs.BoolVar(&o.costs, "costs", false, "print the exported cost file (§2.6) instead of running")
	fs.BoolVar(&o.dump, "dump", false, "print the CI analysis (container trees, probe marks, spacing, costs) instead of running")
	fs.BoolVar(&o.interleave, "interleave", false, "run the handler interleaving verifier (probe-schedule exploration + race table) instead of the program")
	fs.BoolVar(&o.sanitize, "sanitize", false, "check the compile under translation validation for every design instead of running")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cirun [flags] program.ir")
		fs.PrintDefaults()
	}
	return o
}

// run is cirun with its arguments and output streams; it returns the
// exit status: 0 on success, 1 on a failed run or check, 2 on a usage
// error.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cirun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := newFlags(fs)
	if err := o.cf.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	modes := 0
	for _, on := range []bool{o.hot > 0, o.printIR, o.costs, o.dump, o.interleave, o.sanitize} {
		if on {
			modes++
		}
	}
	if fs.NArg() != 1 || modes > 1 {
		fs.Usage()
		return 2
	}
	stopProfile, err := o.cf.StartProfile()
	if err == nil {
		err = o.exec(fs.Arg(0), stdout, stderr)
		err = errors.Join(err, stopProfile())
	}
	switch {
	case err == nil:
		return 0
	case !errors.Is(err, errVerdict):
		fmt.Fprintln(stderr, "cirun:", err)
	}
	return 1
}

// exec reads and parses the program and runs the selected mode.
func (o *options) exec(path string, stdout, stderr io.Writer) error {
	args, err := parseArgs(o.args)
	if err != nil {
		return err
	}
	d, err := o.cf.ParseDesign()
	if err != nil {
		return err
	}
	quantum, err := o.cf.ParseQuantum()
	if err != nil {
		return err
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mod, err := ir.Parse(string(src))
	if err != nil {
		return err
	}
	switch {
	case o.sanitize:
		return o.sanitizeAll(mod, args, stdout)
	case o.interleave:
		rep, err := interleave.VerifyHandlers(mod, engine.Serial(), interleave.Options{
			Entry:           o.entry,
			Args:            args,
			Design:          d,
			ProbeIntervalIR: o.cf.ProbeInterval,
			IntervalCycles:  o.interval,
			ContextBound:    o.cf.Bound,
		})
		if err != nil {
			return fmt.Errorf("interleave: %w", err)
		}
		if err := rep.WriteTable(stdout); err != nil {
			return err
		}
		if rep.Err() != nil {
			return errVerdict
		}
		return nil
	case o.dump:
		return o.dumpAnalysis(mod, stdout)
	}

	scope := o.cf.Scope()
	if o.hot > 0 && scope == nil {
		scope = obs.New(0)
	}
	prog, err := core.Compile(mod,
		core.WithDesign(d),
		core.WithProbeInterval(o.cf.ProbeInterval),
		core.WithAllowableError(o.cf.AllowableError),
		core.WithOptimize(o.optimize),
		core.WithObs(scope))
	if err != nil {
		return err
	}
	switch {
	case o.printIR:
		_, err := io.WriteString(stdout, prog.Mod.String())
		return err
	case o.costs:
		data, err := prog.ExportCosts()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", data)
		return err
	}

	res, err := prog.Run(o.entry,
		core.WithThreads(o.threads),
		core.WithArgv(args...),
		core.WithInterval(o.interval),
		core.WithQuantumPolicy(quantum),
		core.WithRecordIntervals(o.interval > 0),
		core.WithLimit(o.limit))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "design %s, %d static probes\n", d, prog.Instr.Probes)
	sloViolated := false
	for id, s := range res.Stats {
		fmt.Fprintf(stdout, "thread %d: ret=%d cycles=%d instrs=%d probes=%d interrupts=%d\n",
			id, res.Returns[id], s.Cycles, s.Instrs, s.Probes, s.HandlerCalls)
		if ivs := res.Intervals[id]; len(ivs) > 1 {
			sum := stats.Summarize(ivs)
			fmt.Fprintf(stdout, "  interval cycles: %s\n", sum)
			// -slo-p999us guards the polling cadence itself: a handler
			// hosting a control loop is only as responsive as its p99.9
			// inter-fire gap, so a stretched tail is an SLO violation.
			if us := float64(sum.P999) / 2600.0; o.sloP999Us > 0 && us > o.sloP999Us {
				fmt.Fprintf(stderr, "cirun: thread %d: p99.9 inter-fire interval %.1fµs exceeds -slo-p999us %.1f\n",
					id, us, o.sloP999Us)
				sloViolated = true
			}
			// -slo-maxus gates the worst single gap: the quantile gate
			// tolerates a lone stall that a control loop hosted in the
			// handler cannot (one missed deadline is still missed).
			if us := float64(sum.Max) / 2600.0; o.sloMaxUs > 0 && us > o.sloMaxUs {
				fmt.Fprintf(stderr, "cirun: thread %d: worst inter-fire interval %.1fµs exceeds -slo-maxus %.1f\n",
					id, us, o.sloMaxUs)
				sloViolated = true
			}
		}
	}
	if o.hot > 0 {
		if err := scope.WriteHotSites(stdout, o.hot); err != nil {
			return err
		}
	}
	if err := o.cf.Finish(stdout, stderr); err != nil {
		return err
	}
	if sloViolated {
		return errVerdict
	}
	return nil
}

// sanitizeAll compiles mod under full translation validation for every
// probe design and prints one verdict per design. A stage-check failure
// or an oracle divergence is a FAIL; an oracle that ran out of its step
// budget before both runs finished is inconclusive, since the static
// checks passed but the runs were never compared. Either fails the
// check: only a design that passed both is ok. The oracle's budget is
// -limit per run, capped at the oracle's own default.
func (o *options) sanitizeAll(mod *ir.Module, args []int64, stdout io.Writer) error {
	var err error
	for _, d := range instrument.Designs {
		_, cerr := sanitize.CompileChecked(mod, core.Config{
			Design:           d,
			ProbeIntervalIR:  o.cf.ProbeInterval,
			AllowableErrorIR: o.cf.AllowableError,
		}, sanitize.Options{
			Exec: true,
			ExecOptions: sanitize.ExecOptions{
				Args:           args,
				IntervalCycles: o.interval,
				LimitInstrs:    min(o.limit, oracleLimit),
			},
		})
		switch {
		case cerr == nil:
			fmt.Fprintf(stdout, "%-14s ok (stage checks + differential oracle)\n", d)
			continue
		case errors.Is(cerr, sanitize.ErrInconclusive):
			fmt.Fprintf(stdout, "%-14s %v\n", d, cerr)
		default:
			fmt.Fprintf(stdout, "%-14s FAIL: %v\n", d, cerr)
		}
		err = errVerdict
	}
	return err
}

// oracleLimit is sanitize.ExecOptions' default step budget, the most
// -sanitize lets -limit (default 1e9) give the oracle.
const oracleLimit = 50_000_000

// dumpAnalysis instruments mod as a CI compile does, through the
// instrumenter, and prints the analysis that placed the probes.
func (o *options) dumpAnalysis(mod *ir.Module, stdout io.Writer) error {
	inst, err := instrument.Instrument(mod, instrument.Options{
		Design:   instrument.CI,
		Analysis: analysis.Options{ProbeInterval: o.cf.ProbeInterval, AllowableError: o.cf.AllowableError},
	})
	if err != nil {
		return err
	}
	res := inst.Analysis
	names := make([]string, 0, len(res.Funcs))
	for n := range res.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		fr := res.Funcs[name]
		fmt.Fprintf(stdout, "== @%s  cost=%s  instrumented=%v  transformed=%d cloned=%d\n",
			name, fr.Cost, fr.Instrumented, fr.LoopsTransformed, fr.LoopsCloned)
		if root := fr.Reduction.Root(); root != nil {
			fmt.Fprint(stdout, indent(root.Dump()))
		} else {
			fmt.Fprintf(stdout, "  (not fully reducible: %d regions; §3.6 post-processing applied)\n",
				len(fr.Reduction.Regions))
			for _, r := range fr.Reduction.Regions {
				fmt.Fprint(stdout, indent(r.C.Dump()))
			}
		}
		if len(fr.Marks) > 0 {
			fmt.Fprintf(stdout, "  probe marks (%d):\n", len(fr.Marks))
			for _, mk := range fr.Marks {
				kind := "ir"
				if mk.Loop {
					kind = "irloop"
				}
				fmt.Fprintf(stdout, "    %-14s @%s+%d inc=%d\n", kind, mk.Block.Name, mk.Index, mk.Inc)
			}
		}
		if fr.Instrumented {
			if err := analysis.CheckSpacing(fr.Fn, 100, o.cf.ProbeInterval); err != nil {
				fmt.Fprintf(stdout, "  spacing: VIOLATION: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "  spacing: ok (max gap %d IR)\n", o.cf.ProbeInterval)
			}
		}
		fmt.Fprintln(stdout)
	}
	data, err := analysis.ExportCosts(res.Costs)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "== exported cost table (§2.6)\n%s\n", data)
	return err
}

// indent prefixes every non-empty line of s with two spaces.
func indent(s string) string {
	var sb strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if line != "" {
			sb.WriteString("  " + line + "\n")
		}
	}
	return sb.String()
}

// parseArgs parses the comma-separated int64 list of -args.
func parseArgs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad argument %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}
