// Command cidump inspects the Compiler Interrupts analysis of a
// textual IR program: per function it prints the hierarchical container
// tree of §3.2 with evaluated costs, the probe marks the analysis
// decided on, the applied loop transforms, and the exported cost table.
// It is the debugging window into the analysis phase.
//
//	cidump [-probe-interval N] [-spacing] [-sanitize] [-hot] program.ir
//
// With -sanitize the program is instead compiled under the
// translation-validation sanitizer: every pipeline stage is verified
// and semantically checked, and the differential execution oracle
// compares the instrumented program against the uninstrumented
// baseline for each probe design. Exits non-zero on any finding.
//
// With -hot the program is compiled with the selected design, run once
// under an observability scope, and the "hottest probe sites" table is
// printed: per IR function/block, how often its probe executed and how
// often it fired the CI handler.
//
// With -interleave the handler interleaving verifier's race table is
// printed instead: every address shared between @handler and -entry,
// classified (atomic, observed, protected, same-value, annotated,
// RACY), plus any schedule whose outcome diverged from the fire-free
// baseline. Exits non-zero on an unclassified race or a
// non-commutative schedule. -bound sets the context bound.
//
// With -fleet (no program argument) the seeded fleet fault plan is
// printed instead: per replica (labelled with its failure-domain zone),
// the exact crash windows `ciexp fleet`'s crash cells will replay at
// -seed, drawn from the same per-replica injector streams, plus — when
// -zones > 1 — the zone-0 correlated outage schedule with its member
// replicas. -replicas sets how many streams to show, -zones the
// failure-domain count, -migrate whether the plan header notes
// drain/re-route, and -fleet-horizon the window in cycles.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/interleave"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/sanitize"
)

func main() {
	cf := cliflags.New(flag.CommandLine).AddDesign().AddCompile().AddSanitize().AddTier().AddInterleave().AddSeed().AddFleet().AddProfile()
	spacing := flag.Bool("spacing", false, "also run the probe-spacing checker on instrumented functions")
	hot := flag.Bool("hot", false, "compile, run once and print the hottest probe sites instead of the analysis dump")
	hotN := flag.Int("hot-n", 20, "number of probe sites to print with -hot (0 = all)")
	interval := flag.Int64("interval", 5000, "-hot: CI interval in cycles")
	entry := flag.String("entry", "main", "-hot: entry function")
	fleetPlan := flag.Bool("fleet", false, "print the seeded fleet crash-plan schedule instead of an analysis dump")
	fleetHorizon := flag.Int64("fleet-horizon", 26_000_000, "-fleet: schedule window in cycles")
	cf.Parse(os.Args[1:])
	stopProfile, err := cf.StartProfile()
	if err != nil {
		fail("%v", err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			fmt.Fprintln(os.Stderr, "cidump:", err)
		}
	}()
	if *fleetPlan {
		experiments.PrintFleetPlan(os.Stdout, cf.Seed, cf.Replicas, cf.Zones, *fleetHorizon, cf.Migrate)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cidump [flags] program.ir")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail("%v", err)
	}
	m, err := ir.Parse(string(src))
	if err != nil {
		fail("%v", err)
	}
	if cf.Sanitize {
		runSanitize(m, cf.ProbeInterval, cf.AllowableError)
		return
	}
	if cf.Interleave {
		runInterleave(cf, m, *entry, *interval)
		return
	}
	if *hot {
		runHot(cf, m, *entry, *interval, *hotN)
		return
	}
	// The probes go in as a CI compile puts them in, through the
	// instrumenter; the dump prints the analysis that placed them.
	inst, err := instrument.Instrument(m, instrument.Options{
		Design:   instrument.CI,
		Analysis: analysis.Options{ProbeInterval: cf.ProbeInterval, AllowableError: cf.AllowableError},
	})
	if err != nil {
		fail("%v", err)
	}
	res := inst.Analysis

	names := make([]string, 0, len(res.Funcs))
	for n := range res.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		fr := res.Funcs[name]
		fmt.Printf("== @%s  cost=%s  instrumented=%v  transformed=%d cloned=%d\n",
			name, fr.Cost, fr.Instrumented, fr.LoopsTransformed, fr.LoopsCloned)
		if root := fr.Reduction.Root(); root != nil {
			fmt.Print(indent(root.Dump()))
		} else {
			fmt.Printf("  (not fully reducible: %d regions; §3.6 post-processing applied)\n",
				len(fr.Reduction.Regions))
			for _, r := range fr.Reduction.Regions {
				fmt.Print(indent(r.C.Dump()))
			}
		}
		if len(fr.Marks) > 0 {
			fmt.Printf("  probe marks (%d):\n", len(fr.Marks))
			for _, mk := range fr.Marks {
				kind := "ir"
				if mk.Loop {
					kind = "irloop"
				}
				fmt.Printf("    %-14s @%s+%d inc=%d\n", kind, mk.Block.Name, mk.Index, mk.Inc)
			}
		}
		if *spacing && fr.Instrumented {
			if err := analysis.CheckSpacing(fr.Fn, 100, cf.ProbeInterval); err != nil {
				fmt.Printf("  spacing: VIOLATION: %v\n", err)
			} else {
				fmt.Printf("  spacing: ok (max gap %d IR)\n", cf.ProbeInterval)
			}
		}
		fmt.Println()
	}

	fmt.Println("== exported cost table (§2.6)")
	data, err := analysis.ExportCosts(res.Costs)
	if err != nil {
		fail("%v", err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

// runInterleave prints the handler interleaving verifier's race table
// for the module: every address shared between @handler and the entry,
// classified, plus the schedules whose outcome diverged from the
// fire-free baseline. Exits non-zero on an unclassified race or a
// non-commutative schedule.
func runInterleave(cf *cliflags.Flags, m *ir.Module, entry string, interval int64) {
	d, err := cf.ParseDesign()
	if err != nil {
		fail("%v", err)
	}
	rep, err := interleave.VerifyHandlers(m, engine.Serial(), interleave.Options{
		Entry:           entry,
		Design:          d,
		ProbeIntervalIR: cf.ProbeInterval,
		IntervalCycles:  interval,
		ContextBound:    cf.Bound,
	})
	if err != nil {
		fail("interleave: %v", err)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		fail("%v", err)
	}
	if rep.Err() != nil {
		os.Exit(1)
	}
}

// runSanitize compiles the module under full translation validation for
// every probe design and reports per-design verdicts. Any stage-check
// failure or oracle divergence exits non-zero; an exhausted oracle step
// budget is reported but tolerated (the static checks still ran).
func runSanitize(m *ir.Module, probeInterval, allowable int64) {
	failed := false
	for _, d := range instrument.Designs {
		_, err := sanitize.CompileChecked(m, core.Config{
			Design:           d,
			ProbeIntervalIR:  probeInterval,
			AllowableErrorIR: allowable,
		}, sanitize.Options{Exec: true, AllowInconclusive: true})
		switch {
		case err == nil:
			fmt.Printf("%-14s ok (stage checks + differential oracle)\n", d)
		default:
			failed = true
			fmt.Printf("%-14s FAIL: %v\n", d, err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runHot compiles with the selected design, runs the entry function
// once with an enabled observability scope, and prints the
// hottest-probe-sites attribution table.
func runHot(cf *cliflags.Flags, m *ir.Module, entry string, interval int64, n int) {
	d, err := cf.ParseDesign()
	if err != nil {
		fail("%v", err)
	}
	tier, err := cf.ParseTier()
	if err != nil {
		fail("%v", err)
	}
	scope := obs.New(0)
	prog, err := core.Compile(m,
		core.WithDesign(d),
		core.WithProbeInterval(cf.ProbeInterval),
		core.WithAllowableError(cf.AllowableError),
		core.WithTier(tier),
		core.WithObs(scope))
	if err != nil {
		fail("%v", err)
	}
	res, err := prog.Run(entry, core.WithInterval(interval))
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("design %s, %d static probes, %d cycles, %d handler calls\n",
		d, prog.Instr.Probes, res.Stats[0].Cycles, res.Stats[0].HandlerCalls)
	if err := scope.WriteHotSites(os.Stdout, n); err != nil {
		fail("%v", err)
	}
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			if i > start {
				out += "  " + s[start:i] + "\n"
			}
			start = i + 1
		}
	}
	return out
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cidump: "+format+"\n", args...)
	os.Exit(1)
}
