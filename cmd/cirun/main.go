// Command cirun compiles a textual IR program with Compiler Interrupts
// and runs it on the VM, reporting execution statistics — the
// repository's equivalent of building a C program with the CI pass and
// libci.
//
//	cirun [flags] program.ir
//
// Flags select the probe design, probe interval, CI interval, entry
// function and arguments. -quantum-policy picks the handler interval
// controller (fixed, aimd, feedback). Use -print to dump the instrumented IR
// instead of running, -trace FILE to write a Chrome trace_event JSON
// of the run (probe fires, handler windows, external calls), -metrics
// to print interval-error quantiles, and -timeline N for the legacy
// textual dump of the last N interrupt-timeline events. -slo-p999us N
// turns the reported p99.9 inter-fire interval into a gate: cirun
// exits non-zero when the polling cadence's tail exceeds N µs;
// -slo-maxus N gates the worst-case single gap the same way.
//
// -interleave switches to verify-then-exit mode: instead of running
// the program, the handler interleaving verifier explores forcing
// @handler at every feasible probe site (context bound -bound) and
// prints the race-classification table, exiting non-zero on an
// unclassified race or a non-commutative schedule.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/interleave"
	"repro/internal/ir"
	"repro/internal/sanitize"
	"repro/internal/stats"
	"repro/internal/vm"
)

func main() {
	cf := cliflags.New(flag.CommandLine).AddDesign().AddCompile().AddQuantum().AddSanitize().AddTier().AddObs().AddProfile().AddSLO().AddMaxGap().AddInterleave()
	interval := flag.Int64("interval", 5000, "CI interval in cycles (0 disables the handler)")
	entry := flag.String("entry", "main", "entry function")
	argsFlag := flag.String("args", "", "comma-separated int64 arguments for the entry function")
	threads := flag.Int("threads", 1, "VM threads")
	limit := flag.Int64("limit", 1_000_000_000, "per-thread instruction limit")
	optimize := flag.Bool("O", false, "run the IR optimizer before instrumenting")
	printIR := flag.Bool("print", false, "print the instrumented IR and exit")
	costs := flag.Bool("costs", false, "print the exported cost file (§2.6) and exit")
	timeline := flag.Int("timeline", 0, "record and print the last N interrupt-timeline events")
	cf.Parse(os.Args[1:])
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cirun [flags] program.ir")
		flag.PrintDefaults()
		os.Exit(2)
	}
	stopProfile := startProfile(cf)
	defer stopProfile()
	d, err := cf.ParseDesign()
	if err != nil {
		fail("%v", err)
	}
	tier, err := cf.ParseTier()
	if err != nil {
		fail("%v", err)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	mod, err := ir.Parse(string(src))
	if err != nil {
		fail("%v", err)
	}
	// Refuse to execute a malformed module: verify up front so a bad
	// input exits non-zero with the verifier's diagnosis rather than
	// surfacing later as a VM fault.
	if err := mod.Verify(); err != nil {
		fail("malformed module %s: %v", flag.Arg(0), err)
	}
	if cf.Interleave {
		// Verify-then-exit mode: explore handler placements instead of
		// running the program, mirroring `go vet` vs `go run`.
		args, err := cliflags.ParseArgs(*argsFlag)
		if err != nil {
			fail("%v", err)
		}
		rep, err := interleave.VerifyHandlers(mod, engine.Serial(), interleave.Options{
			Entry:           *entry,
			Args:            args,
			Design:          d,
			ProbeIntervalIR: cf.ProbeInterval,
			IntervalCycles:  *interval,
			ContextBound:    cf.Bound,
		})
		if err != nil {
			fail("interleave: %v", err)
		}
		if err := rep.WriteTable(os.Stdout); err != nil {
			fail("%v", err)
		}
		if rep.Err() != nil {
			stopProfile()
			os.Exit(1)
		}
		return
	}
	opts := []core.Option{
		core.WithDesign(d),
		core.WithProbeInterval(cf.ProbeInterval),
		core.WithAllowableError(cf.AllowableError),
		core.WithOptimize(*optimize),
		core.WithTier(tier),
		core.WithObs(cf.Scope()),
	}
	if cf.Sanitize {
		opts = append(opts, sanitize.Checked(sanitize.Options{Exec: true, AllowInconclusive: true}))
	}
	prog, err := core.Compile(mod, opts...)
	if err != nil {
		fail("%v", err)
	}
	if *printIR {
		fmt.Print(prog.Mod.String())
		return
	}
	if *costs {
		data, err := prog.ExportCosts()
		if err != nil {
			fail("%v", err)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}
	args, err := cliflags.ParseArgs(*argsFlag)
	if err != nil {
		fail("%v", err)
	}
	if *timeline > 0 {
		machine := vm.New(prog.Mod, nil, 1)
		machine.LimitInstrs = *limit
		machine.Tier = tier
		machine.Obs = cf.Scope()
		th := machine.NewThread(0)
		tr := vm.NewTrace(*timeline)
		th.AttachTrace(tr)
		if *interval > 0 {
			th.RT.RegisterCI(*interval, func(uint64) {})
		}
		rv, err := th.Run(*entry, args...)
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("design %s, ret=%d, %d cycles; interrupt timeline:\n%s", d, rv, th.Stats.Cycles, tr)
		finish(cf)
		return
	}
	quantum, err := cf.ParseQuantum()
	if err != nil {
		fail("%v", err)
	}
	res, err := prog.Run(*entry,
		core.WithThreads(*threads),
		core.WithArgv(args...),
		core.WithInterval(*interval),
		core.WithQuantumPolicy(quantum),
		core.WithRecordIntervals(*interval > 0),
		core.WithLimit(*limit))
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("design %s, %d static probes\n", d, prog.Instr.Probes)
	sloViolated := false
	for id, s := range res.Stats {
		fmt.Printf("thread %d: ret=%d cycles=%d instrs=%d probes=%d interrupts=%d\n",
			id, res.Returns[id], s.Cycles, s.Instrs, s.Probes, s.HandlerCalls)
		if ivs := res.Intervals[id]; len(ivs) > 1 {
			sum := stats.Summarize(ivs)
			fmt.Printf("  interval cycles: %s\n", sum)
			// -slo-p999us guards the polling cadence itself: a handler
			// hosting a control loop is only as responsive as its p99.9
			// inter-fire gap, so a stretched tail is an SLO violation.
			if us := float64(sum.P999) / 2600.0; cf.SLOP999Us > 0 && us > cf.SLOP999Us {
				fmt.Fprintf(os.Stderr, "cirun: thread %d: p99.9 inter-fire interval %.1fµs exceeds -slo-p999us %.1f\n",
					id, us, cf.SLOP999Us)
				sloViolated = true
			}
			// -slo-maxus gates the worst single gap: the quantile gate
			// tolerates a lone stall that a control loop hosted in the
			// handler cannot (one missed deadline is still missed).
			if us := float64(sum.Max) / 2600.0; cf.SLOMaxUs > 0 && us > cf.SLOMaxUs {
				fmt.Fprintf(os.Stderr, "cirun: thread %d: worst inter-fire interval %.1fµs exceeds -slo-maxus %.1f\n",
					id, us, cf.SLOMaxUs)
				sloViolated = true
			}
		}
	}
	finish(cf)
	if sloViolated {
		stopProfile()
		os.Exit(1)
	}
}

// startProfile starts the profiles asked for with -cpuprofile and
// -memprofile and returns the function that completes them, to be
// deferred and to be called ahead of an os.Exit that follows real work.
func startProfile(cf *cliflags.Flags) (stop func()) {
	stopProfile, err := cf.StartProfile()
	if err != nil {
		fail("%v", err)
	}
	return func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "cirun:", err)
		}
	}
}

func finish(cf *cliflags.Flags) {
	if err := cf.Finish(os.Stdout); err != nil {
		fail("%v", err)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cirun: "+format+"\n", args...)
	os.Exit(1)
}
