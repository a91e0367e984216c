// Command ciexp regenerates the paper's tables and figures from the
// command line:
//
//	ciexp fig4      mTCP throughput/latency vs concurrent connections
//	ciexp fig5      mTCP with per-request compute work
//	ciexp fig6      Shenango latency vs load + miner hash rate
//	ciexp fig7      delegation vs locks, throughput vs threads
//	ciexp fig8      client request latency distribution
//	ciexp fig9      CI-design overhead, 1 thread
//	ciexp fig10     interval accuracy, 1 thread
//	ciexp fig11     CI-design overhead, 32 threads
//	ciexp fig12     CI vs hardware interrupts across intervals
//	ciexp table7    per-benchmark runtimes (PT, CI, Naive × 1/32 threads)
//	ciexp hybrid    hybrid CI + hardware-watchdog extension (§5.4 future work)
//	ciexp allowable §3.3 allowable-error parameter study
//	ciexp probes    §5.4 dynamic probe executions, CI vs Naive
//	ciexp chaos     fault-injection sweep asserting the graceful-
//	                degradation invariants (exits non-zero on violation)
//	ciexp ramp      load ramp: shenango offered load vs capacity with the
//	                overload plane off and on, SLO-checked (exits
//	                non-zero on an SLO violation)
//	ciexp soak      scripted load ramp + chaos with the overload plane
//	                on; every phase judged against the SLO guard (exits
//	                non-zero on violation)
//	ciexp fleet     fleet crash-soak: N replicas behind the
//	                health-checked balancer swept across load factors
//	                with and without a mid-soak crash plan, judged
//	                against the resilience guards (goodput floor, retry
//	                amplification, tenant SLO isolation; exits non-zero
//	                on violation; -quick runs only the 1.2x soak pair),
//	                then the zone-outage headline: 1-of-4 zones
//	                crash-looping at 1.2x load with migration on, gated
//	                on zero stranded attempts, the extended conservation
//	                oracle, a 90% goodput floor vs the no-outage twin
//	                and retry amplification ≤ 1.15; -scale N > 1
//	                appends one 64-replica / 4-zone scale soak over N ×
//	                10 ms of virtual time (scale 42 ≈ 14M requests),
//	                gated on the conservation oracle and, at scale ≥ 42,
//	                on at least 10M injected requests
//	ciexp quantum   quantum adaptivity: handler-gap tail error vs
//	                interval-control policy (fixed, AIMD, feedback) at
//	                2x load with mixed request classes, across the CI,
//	                Naive, hardware-interrupt and user-interrupt
//	                designs; gated on the feedback controller beating
//	                the fixed quantum on p99.9 gap error inside the
//	                CI overhead budget (exits non-zero on violation;
//	                -quick uses a workload subset)
//	ciexp sanitize  translation-validation sweep: stage checks plus the
//	                differential execution oracle over a fuzz corpus and
//	                all workloads (exits non-zero on any divergence)
//	ciexp interleave
//	                handler interleaving sweep: probe-schedule
//	                exploration with race classification over the three
//	                app sharing-protocol models and a fuzz corpus with
//	                generated handlers (exits non-zero on an
//	                unclassified race or non-commutative schedule;
//	                -bound sets the context bound, -quick uses bound 1
//	                and a smaller corpus)
//	ciexp tracecheck FILE
//	                validate that FILE is a well-formed Chrome
//	                trace_event JSON document (used by verify.sh)
//	ciexp fleetplan print the seeded fault schedule `ciexp fleet`'s
//	                cells replay: per replica (labelled with its zone)
//	                the crash windows at -seed over the -soak-duration
//	                horizon, plus, with -zones > 1, the zone-0 outage
//	                schedule; -replicas sets how many streams to show
//	                and -migrate whether the header notes drain/re-route
//
// Several figure subcommands may be named in one run; they run in the
// order above, each once, and "all" names every one. An unknown name
// prints the usage and exits 2 before anything runs.
//
// Each figure subcommand is an entry of experiments.Figures and runs on
// the parallel experiment engine: -workers N shards its cells across N
// workers (0 = GOMAXPROCS; results are byte-identical at any worker
// count, and -workers 1 reproduces the serial pipeline exactly). Every
// VM run executes on the compiled tier, which matches the interpreter
// cycle for cycle; `ciexp sanitize` checks that over its fuzz corpus.
// Every compile the engine makes runs the translation-validation stage
// checks, and after the figures ciexp re-fingerprints every module the
// cells shared and exits 1 if one was written to.
//
// Observability: -trace FILE writes a Chrome trace_event JSON of the
// run (probe fires, VM stage transitions, engine cache hits/misses,
// mtcp/shenango/ffwd scheduling decisions — load it in chrome://tracing
// or Perfetto) and -metrics prints counter and histogram quantiles
// (p50/p90/p99 interval error per design, handler latency) after the
// figures.
//
// Flags: -scale N (workload size multiplier, default 1; for fleet, the
// scale soak's horizon),
// -quick (subset of workloads for fig12; single fault rate for chaos;
// smaller fuzz corpus for sanitize; two phases for soak), -seed N
// (chaos/soak fault-plan seed), -workers N, -trace FILE, -metrics,
// -slo-p999us/-max-reject (the overload SLO guard for ramp and soak),
// -soak-duration N (per-phase cycles; the fleet and fleetplan horizon),
// -quantum-policy fixed|aimd|feedback (the handler-interval policy for
// ramp and soak),
// -replicas/-tenants/-lb/-hedge-ms/-retry-budget/-zones/-migrate (the
// fleet sweep; -zones spreads replicas across failure domains and
// -migrate drains queued work off crashed or ejected replicas).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cliflags"
	"repro/internal/experiments"
)

// newFlags registers ciexp's flags on fs — the shared cliflags surface
// plus -quick and -all — and sets its usage text, whose subcommand list
// is experiments.Figures.
func newFlags(fs *flag.FlagSet) (cf *cliflags.Flags, quick, all *bool) {
	cf = cliflags.New(fs).AddScale().AddSeed().AddEngine().AddObs().AddProfile().AddSLO().AddBound().AddFleet().AddQuantum()
	quick = fs.Bool("quick", false, "use a workload subset where supported")
	all = fs.Bool("all", false, "fig9/fig11: include Naive-Cycles and CnB-Cycles")
	fs.Usage = func() {
		var names []string
		for _, fig := range experiments.Figures {
			names = append(names, fig.Name)
		}
		fmt.Fprintf(fs.Output(), "usage: ciexp [flags] %s|all ...\n", strings.Join(names, "|"))
		fmt.Fprintf(fs.Output(), "       ciexp tracecheck FILE\n")
		fmt.Fprintf(fs.Output(), "       ciexp [-seed N -replicas N -zones N -migrate -soak-duration N] fleetplan\n")
		fs.PrintDefaults()
	}
	return cf, quick, all
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is ciexp with its arguments and output streams; it returns the
// exit status: 0 on success, 1 on a failed figure or gate, 2 on a usage
// error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ciexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cf, quick, all := newFlags(fs)
	if err := cf.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case fs.NArg() < 1:
		fs.Usage()
		return 2
	case fs.Arg(0) == "tracecheck":
		if fs.NArg() != 2 {
			fs.Usage()
			return 2
		}
		if err := tracecheck(stdout, fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "ciexp: tracecheck:", err)
			return 1
		}
		fmt.Fprintf(stdout, "tracecheck: %s OK\n", fs.Arg(1))
		return 0
	case fs.Arg(0) == "fleetplan":
		if fs.NArg() != 1 {
			fs.Usage()
			return 2
		}
		experiments.PrintFleetPlan(stdout, cf.Seed, cf.Replicas, cf.Zones, cf.SoakDuration, cf.Migrate)
		return 0
	}

	figs, err := selectFigures(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "ciexp:", err)
		fs.Usage()
		return 2
	}
	stopProfile, err := cf.StartProfile()
	if err != nil {
		fmt.Fprintln(stderr, "ciexp:", err)
		return 1
	}

	in := experiments.Inputs{Eng: cf.Engine(), Flags: cf, Quick: *quick, All: *all}
	var errs []error
	for _, fig := range figs {
		errs = append(errs, fig.Run(stdout, in))
	}
	// The figures share cached modules read-only; a write to one fails
	// the run.
	errs = append(errs, experiments.VerifyCache(in.Eng), cf.Finish(stdout, stderr), stopProfile())
	// Every named figure runs even after one fails, and each failure
	// (a figure's error names its figure) gets its own stderr line;
	// the exit status is 1 if any did.
	code := 0
	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(stderr, "ciexp:", err)
			code = 1
		}
	}
	return code
}

// selectFigures resolves subcommand names to the figures they name, in
// experiments.Figures order and each once; "all" names every figure. An
// unknown name is an error.
func selectFigures(names []string) ([]experiments.Figure, error) {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var figs []experiments.Figure
	for _, fig := range experiments.Figures {
		if want[fig.Name] || want["all"] {
			figs = append(figs, fig)
		}
		delete(want, fig.Name)
	}
	delete(want, "all")
	for _, n := range names {
		if want[n] {
			return nil, fmt.Errorf("unknown subcommand %q", n)
		}
	}
	return figs, nil
}

// tracecheck validates a Chrome trace_event JSON file without external
// tooling (jq-free, for verify.sh): the document must parse as JSON,
// carry a traceEvents array, and every event must have a name and a
// one-character phase.
func tracecheck(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !json.Valid(data) {
		return fmt.Errorf("%s: not valid JSON", path)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("%s: missing traceEvents array", path)
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || len(ev.Ph) != 1 {
			return fmt.Errorf("%s: event %d malformed (name=%q ph=%q)", path, i, ev.Name, ev.Ph)
		}
	}
	fmt.Fprintf(w, "tracecheck: %d events\n", len(doc.TraceEvents))
	return nil
}
