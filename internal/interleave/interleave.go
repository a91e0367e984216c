// Package interleave is the handler interleaving verifier: a
// concurrency-safety check for the shared state that compiler-interrupt
// handlers and main code both touch. The paper's premise (§2) is that
// handlers run *inline* on the shared thread at probe sites, so the
// hazard is not data tearing — every VM memory access is word-atomic —
// but interleaving: a handler fired between two main accesses observes
// or mutates state mid-invariant, and whether that is safe depends on
// where the probe landed.
//
// The verifier works in three stages:
//
//  1. Record — run the module with the VM's OnLoad/OnStore/OnAtomic
//     taps, tagging every access with an epoch (main, or the k'th
//     handler invocation).
//  2. Detect — classify every address shared between handler and main
//     epochs: benign patterns (read-only sharing, atomic counters,
//     same-value stores, ci_disable-protected regions, handler-read
//     observation) versus unclassified races.
//  3. Explore — re-run the module forcing the handler to fire at every
//     feasible probe site, then at pairs of sites (iterative context
//     bounding), and compare each run against the fire-free baseline:
//     equal return value, equal main-epoch store stream, equal atomic
//     deltas and equal final memory outside handler-owned words prove
//     the handler commutes with main at every placement.
//
// A minimal racy module is pinned under testdata/repro/, and the
// verifier must keep failing it.
//
// VerifyHandlers is the CompileChecked-style entry; cmd/cirun
// (-interleave race table) wires it to the CLI. A Spec declares one
// module with its options and the class each shared word must get:
// each app model returns one, and cmd/ciexp's interleave subcommand
// fails a module whose classes differ from its declaration.
package interleave

import (
	"errors"
	"fmt"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/sanitize"
)

// ErrNoHandler is returned when the module has no handler function to
// verify against.
var ErrNoHandler = errors.New("interleave: module has no handler function")

// ErrRace is wrapped by Report.Err when the verifier finds an
// unclassified race or a non-commutative interleaving.
var ErrRace = errors.New("interleave: handler/main interleaving hazard")

// handlerFunc names the handler body in the module. It may take 0
// arguments or receive the IR delta as its first argument.
const handlerFunc = "handler"

// scheduleSeed drives the deterministic sampling of multi-fire
// schedules past MaxSchedules.
const scheduleSeed = 1

// maxPairSites caps the feasible sites that enter multi-fire schedule
// enumeration; bound-1 schedules always cover every feasible site.
// Truncation is reported (Report.PairTruncated), never silent.
const maxPairSites = 24

// Options configures VerifyHandlers. The zero value verifies @handler
// against @main under the CI design with sensible exploration caps.
type Options struct {
	// Entry names the main function in the module (default "main").
	Entry string
	// Args are the entry arguments when it takes parameters (default
	// {4095}, matching the sanitize oracle).
	Args []int64
	// Design / ProbeIntervalIR configure instrumentation (defaults CI,
	// 200 IR — denser than the production default so exploration sees
	// fine-grained placements).
	Design          instrument.Design
	ProbeIntervalIR int64
	// IntervalCycles is the cadence interval of the record run
	// (default 5000).
	IntervalCycles int64
	// LimitInstrs bounds each run (default 20M). Runs that exhaust it
	// count as inconclusive, never as findings.
	LimitInstrs int64
	// ContextBound is the maximum number of forced handler fires per
	// schedule (default 2; 1..3 supported).
	ContextBound int
	// MaxSchedules caps the single-fire and, separately, the
	// multi-fire schedules explored (default 2000 each); the excess is
	// sampled out deterministically.
	MaxSchedules int
	// RetOnly weakens the commutativity oracle to return-value
	// equality. App models whose handlers feed work to main (queue
	// producers) are placement-dependent in their store streams by
	// design; they pair RetOnly with a CheckRun conservation invariant.
	RetOnly bool
	// CheckRun, when non-nil, validates one run's end state (an
	// app-specific conservation law). A returned error marks the run's
	// schedule as non-commutative.
	CheckRun func(r *Run) error
}

func (o Options) withDefaults() Options {
	if o.Entry == "" {
		o.Entry = "main"
	}
	if o.Args == nil {
		o.Args = []int64{4095}
	}
	if o.ProbeIntervalIR <= 0 {
		o.ProbeIntervalIR = 200
	}
	if o.IntervalCycles <= 0 {
		o.IntervalCycles = 5000
	}
	if o.LimitInstrs <= 0 {
		o.LimitInstrs = 20_000_000
	}
	if o.ContextBound <= 0 {
		o.ContextBound = 2
	}
	if o.ContextBound > 3 {
		o.ContextBound = 3
	}
	if o.MaxSchedules <= 0 {
		o.MaxSchedules = 2000
	}
	return o
}

// Report is the verifier's verdict for one module.
type Report struct {
	Entry, Handler string
	// Fires counts handler invocations in the cadence record run.
	Fires int
	// Addrs lists every address shared between handler and main
	// epochs, classified, sorted by address. Access counts aggregate
	// over the record run, the baseline and every explored schedule.
	Addrs []AddrReport
	// TotalSites / FeasibleSites count main-context probe sites seen by
	// the enumeration run and how many could deliver a fire.
	TotalSites    int64
	FeasibleSites int
	// Bound is the context bound explored.
	Bound int
	// Schedules counts explored schedules; Sampled counts schedules
	// dropped by MaxSchedules; PairTruncated counts feasible sites
	// excluded from multi-fire enumeration by maxPairSites.
	Schedules     int
	Sampled       int
	PairTruncated int
	// Undelivered counts schedules whose forced fires could not all be
	// delivered (handler effects shifted control flow away from the
	// planned sites); Inconclusive counts runs that hit the step budget.
	Undelivered  int
	Inconclusive int
	// NonCommute lists schedules whose outcome differed from the
	// fire-free baseline (or failed CheckRun), with details.
	NonCommute []NonCommute
}

// NonCommute is one schedule whose outcome diverged from the baseline.
type NonCommute struct {
	Schedule []int64
	Detail   string
}

// Unclassified returns the addresses classified as racy.
func (r *Report) Unclassified() []AddrReport {
	var out []AddrReport
	for _, a := range r.Addrs {
		if a.Class == ClassRacy {
			out = append(out, a)
		}
	}
	return out
}

// Err returns nil for a clean report and an ErrRace-wrapping error
// naming the unclassified races and non-commutative schedules.
func (r *Report) Err() error {
	racy := len(r.Unclassified())
	if racy == 0 && len(r.NonCommute) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %d unclassified racy address(es), %d non-commutative schedule(s)",
		ErrRace, racy, len(r.NonCommute))
}

// VerifyHandlers compiles src through the stage-checked compile
// (sanitize.CompileChecked), runs the record → detect → explore
// pipeline over it and returns the classified report. The returned
// error is reserved for infrastructure failures (compile and
// stage-check errors, missing functions, VM faults in the record,
// enumeration and baseline runs — including a fault in the handler's
// own IR body, which surfaces here rather than being swallowed);
// interleaving findings live in the report and its Err method.
func VerifyHandlers(src *ir.Module, eng *engine.Engine, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if src.FuncByName(handlerFunc) == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoHandler, handlerFunc)
	}
	if src.FuncByName(opts.Entry) == nil {
		return nil, fmt.Errorf("interleave: no entry function %q", opts.Entry)
	}
	prog, err := sanitize.CompileChecked(src,
		core.Config{Design: opts.Design, ProbeIntervalIR: opts.ProbeIntervalIR}, sanitize.Options{})
	if err != nil {
		return nil, fmt.Errorf("interleave: compile: %w", err)
	}
	rep := &Report{Entry: opts.Entry, Handler: handlerFunc, Bound: opts.ContextBound}

	// Record: one cadence run with the access taps on.
	rec := execute(prog, opts, execCadence, nil)
	if err := rec.fault(); err != nil {
		return nil, fmt.Errorf("interleave: record run: %w", err)
	}
	rep.Fires = rec.Fires
	if opts.CheckRun != nil {
		if cerr := opts.CheckRun(rec); cerr != nil {
			rep.NonCommute = append(rep.NonCommute, NonCommute{Detail: "cadence run invariant: " + cerr.Error()})
		}
	}

	// Detect + Explore share the accumulator; explore folds every
	// scheduled run into it and compares outcomes against the
	// fire-free baseline.
	acc := newAccumulator()
	acc.fold(rec)
	if err := explore(prog, eng, opts, rep, acc); err != nil {
		return nil, err
	}
	rep.Addrs = acc.classify()
	return rep, nil
}
