// Package cliflags is the shared flag surface of the two CLIs (ciexp,
// cirun). Each tool used to re-declare -design, -seed and
// friends with drifting defaults; here every shared flag has one
// registration helper, one default and one parser, so the tools stay
// in lockstep, and a tool registers only the helpers whose flags it
// reads. The package also owns the CLI ends of the observability
// layer: -trace FILE and -metrics build one obs.Scope, and Finish
// writes the trace file / metrics report after the run.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/ci/ciruntime"
	"repro/internal/ci/instrument"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/overload"
)

// DesignByName maps the CLI spellings to probe designs. cirun's
// historic names are the canonical ones.
var DesignByName = map[string]instrument.Design{
	"ci": instrument.CI, "ci-cycles": instrument.CICycles,
	"naive": instrument.Naive, "naive-cycles": instrument.NaiveCycles,
	"cd": instrument.CD, "cnb": instrument.CnB, "cnb-cycles": instrument.CnBCycles,
	"uintr": instrument.UserInterrupt,
}

// DesignNames returns the accepted -design spellings, sorted.
func DesignNames() []string {
	names := make([]string, 0, len(DesignByName))
	for n := range DesignByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseDesign resolves a -design value (case-insensitive).
func ParseDesign(name string) (instrument.Design, error) {
	d, ok := DesignByName[strings.ToLower(name)]
	if !ok {
		return 0, fmt.Errorf("unknown design %q (want one of %s)",
			name, strings.Join(DesignNames(), ", "))
	}
	return d, nil
}

// Flags carries the registered flag values. Only the Add* helpers a
// tool calls register flags; the rest stay at their zero values.
type Flags struct {
	fs *flag.FlagSet

	// AddDesign / AddCompile
	Design         string
	ProbeInterval  int64
	AllowableError int64

	// AddQuantum
	QuantumPolicy string

	// AddEngine
	Workers int

	// AddSeed / AddScale
	Seed  uint64
	Scale int

	// AddObs
	TracePath string
	Metrics   bool

	// AddProfile
	CPUProfile string
	MemProfile string

	// AddSLO
	SLOP999Us    float64
	MaxReject    float64
	SoakDuration int64

	// AddBound
	Bound int

	// AddFleet
	Replicas    int
	Tenants     int
	LB          string
	HedgeMs     float64
	RetryBudget float64
	Zones       int
	Migrate     bool

	scope    *obs.Scope
	scopeSet bool
}

// New binds a Flags to a FlagSet (flag.CommandLine in the tools).
func New(fs *flag.FlagSet) *Flags {
	if fs == nil {
		fs = flag.CommandLine
	}
	return &Flags{fs: fs}
}

// AddDesign registers -design.
func (f *Flags) AddDesign() *Flags {
	f.fs.StringVar(&f.Design, "design", "ci",
		"probe design: "+strings.Join(DesignNames(), ", "))
	return f
}

// AddCompile registers the compile-side parameters -probe-interval and
// -allowable-error with the shared defaults (250 IR; 0 = same as the
// probe interval).
func (f *Flags) AddCompile() *Flags {
	f.fs.Int64Var(&f.ProbeInterval, "probe-interval", 250, "compile-time probe interval (IR instructions)")
	f.fs.Int64Var(&f.AllowableError, "allowable-error", 0, "allowable error (0 = same as probe interval)")
	return f
}

// AddQuantum registers -quantum-policy.
func (f *Flags) AddQuantum() *Flags {
	f.fs.StringVar(&f.QuantumPolicy, "quantum-policy", "fixed",
		"handler interval control: fixed, aimd, feedback")
	return f
}

// ParseQuantum resolves the registered -quantum-policy value into a
// policy factory for core.WithQuantumPolicy. "fixed" returns nil (no
// policy installed; the interval never moves), so callers can pass the
// result straight through.
func (f *Flags) ParseQuantum() (func() ciruntime.QuantumPolicy, error) {
	return ParseQuantum(f.QuantumPolicy)
}

// ParseQuantum resolves a -quantum-policy value (case-insensitive).
func ParseQuantum(name string) (func() ciruntime.QuantumPolicy, error) {
	switch strings.ToLower(name) {
	case "", "fixed":
		return nil, nil
	case "aimd":
		return func() ciruntime.QuantumPolicy { return &ciruntime.AIMD{} }, nil
	case "feedback":
		return func() ciruntime.QuantumPolicy { return &ciruntime.FeedbackPID{} }, nil
	}
	return nil, fmt.Errorf("unknown quantum policy %q (want fixed, aimd or feedback)", name)
}

// AddEngine registers the experiment-engine flag -workers.
func (f *Flags) AddEngine() *Flags {
	f.fs.IntVar(&f.Workers, "workers", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
	return f
}

// AddSeed registers -seed.
func (f *Flags) AddSeed() *Flags {
	f.fs.Uint64Var(&f.Seed, "seed", 1, "deterministic seed (fault plans, fuzzing)")
	return f
}

// AddScale registers -scale.
func (f *Flags) AddScale() *Flags {
	f.fs.IntVar(&f.Scale, "scale", 1, "workload size multiplier")
	return f
}

// AddObs registers the observability flags -trace and -metrics.
func (f *Flags) AddObs() *Flags {
	f.fs.StringVar(&f.TracePath, "trace", "", "write a Chrome trace_event JSON file (load in chrome://tracing or Perfetto)")
	f.fs.BoolVar(&f.Metrics, "metrics", false, "print counters and histogram quantiles (p50/p90/p99) after the run")
	return f
}

// AddProfile registers the host-side profiling flags -cpuprofile and
// -memprofile. They are to host time what -trace is to model cycles:
// the way to find where a run of the tool itself spends its time.
func (f *Flags) AddProfile() *Flags {
	f.fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of this run to `file` (read with go tool pprof)")
	f.fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile of this run to `file` when it ends")
	return f
}

// StartProfile creates the files named by -cpuprofile and -memprofile
// and starts the CPU profile. The returned stop function ends the CPU
// profile and writes the allocation profile; only its first call does
// anything, so a tool can both defer it and call it ahead of os.Exit.
// With neither flag given nothing is created and stop does nothing.
func (f *Flags) StartProfile() (stop func() error, err error) {
	var cpu, mem *os.File
	if f.CPUProfile != "" {
		if cpu, err = os.Create(f.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if f.MemProfile != "" {
		if mem, err = os.Create(f.MemProfile); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				cpu.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
			cpu = nil
		}
		if mem != nil {
			runtime.GC() // so that the profile includes what the run freed last
			errs = append(errs, pprof.Lookup("allocs").WriteTo(mem, 0), mem.Close())
			mem = nil
		}
		return errors.Join(errs...)
	}, nil
}

// AddSLO registers the overload-plane guard flags -slo-p999us,
// -max-reject and -soak-duration. The defaults encode the acceptance
// bar of the load-ramp experiments: a 500 µs p999 ceiling and at most
// 10% rejections beyond the unavoidable excess (measured reject slop
// under admission runs ~8% above 1 - 1/multiplier).
func (f *Flags) AddSLO() *Flags {
	f.fs.Float64Var(&f.SLOP999Us, "slo-p999us", 500, "SLO: p99.9 latency ceiling in µs (0 disables the guard)")
	f.fs.Float64Var(&f.MaxReject, "max-reject", 0.1, "SLO: max rejected fraction beyond the unavoidable excess load")
	f.fs.Int64Var(&f.SoakDuration, "soak-duration", 26_000_000, "soak: per-phase duration in cycles")
	return f
}

// AddBound registers -bound, the interleaving verifier's context
// bound. Parse rejects a value outside 1-3.
func (f *Flags) AddBound() *Flags {
	f.fs.IntVar(&f.Bound, "bound", 2, "interleave: context bound (max forced handler fires per schedule, 1-3)")
	return f
}

// Parse parses args (os.Args[1:] in the tools) and then checks that a
// registered -bound lies in 1-3, the context bounds the interleaving
// verifier explores; interleave.Options would clamp any other value
// silently. The check runs here rather than in a flag.Value so that -h
// keeps showing "-bound int". A bad value is handled like any flag
// error: the error and the usage are printed, and under
// flag.ExitOnError the process exits 2.
func (f *Flags) Parse(args []string) error {
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	if f.fs.Lookup("bound") == nil || (f.Bound >= 1 && f.Bound <= 3) {
		return nil
	}
	err := fmt.Errorf("invalid value %d for flag -bound: want 1-3", f.Bound)
	fmt.Fprintln(f.fs.Output(), err)
	f.fs.Usage()
	if f.fs.ErrorHandling() == flag.ExitOnError {
		os.Exit(2)
	}
	return err
}

// AddFleet registers the fleet-experiment flags -replicas, -tenants,
// -lb, -hedge-ms, -retry-budget, -zones and -migrate.
func (f *Flags) AddFleet() *Flags {
	f.fs.IntVar(&f.Replicas, "replicas", 8, "fleet: cluster size (CI-polled server replicas)")
	f.fs.IntVar(&f.Tenants, "tenants", 4, "fleet: client tenant count (tenant 0 misbehaves at 4x its fair share)")
	f.fs.StringVar(&f.LB, "lb", "p2c", "fleet: balancer policy: rr, least, p2c")
	f.fs.Float64Var(&f.HedgeMs, "hedge-ms", 0.1, "fleet: hedge trigger floor in ms (0 disables hedging)")
	f.fs.Float64Var(&f.RetryBudget, "retry-budget", 0.1, "fleet: retry-budget deposit per injected request (0 disables retries)")
	f.fs.IntVar(&f.Zones, "zones", 1, "fleet: failure-domain count (replica i lives in zone i mod zones)")
	f.fs.BoolVar(&f.Migrate, "migrate", false, "fleet: drain queued work off crashed/ejected replicas and re-route it")
	return f
}

// FleetConfig builds the fleet configuration from the registered
// -replicas/-tenants/-lb/-hedge-ms/-retry-budget/-zones/-migrate and
// -seed values. Tenant 0 is the misbehaving tenant of the acceptance
// experiment; the load factor is set per sweep cell by the experiment.
func (f *Flags) FleetConfig(horizonCycles int64) (fleet.Config, error) {
	pol, err := fleet.ParsePolicy(f.LB)
	if err != nil {
		return fleet.Config{}, err
	}
	cfg := fleet.Config{
		Replicas:          f.Replicas,
		Tenants:           f.Tenants,
		Policy:            pol,
		Seed:              f.Seed,
		HorizonCycles:     horizonCycles,
		RetryBudgetFrac:   f.RetryBudget,
		HedgeDelayCycles:  int64(f.HedgeMs * 2.6e6),
		MisbehavingTenant: 0,
		Zones:             f.Zones,
		Migrate:           f.Migrate,
	}
	if f.RetryBudget <= 0 {
		cfg.RetryBudgetFrac = -1 // the config treats negative as "retries off"
	}
	return cfg, nil
}

// SLO builds the overload guard from the registered -slo-p999us and
// -max-reject values.
func (f *Flags) SLO() overload.SLO {
	return overload.SLO{P999Us: f.SLOP999Us, MaxRejectFrac: f.MaxReject}
}

// ParseDesign resolves the registered -design flag value.
func (f *Flags) ParseDesign() (instrument.Design, error) {
	return ParseDesign(f.Design)
}

// Scope returns the observability scope implied by -trace/-metrics:
// one enabled scope (memoized across calls) when either was given, the
// disabled nil scope otherwise.
func (f *Flags) Scope() *obs.Scope {
	if !f.scopeSet {
		f.scopeSet = true
		if f.TracePath != "" || f.Metrics {
			f.scope = obs.New(0)
		}
	}
	return f.scope
}

// Engine builds the experiment engine from -workers and attaches the
// observability scope.
func (f *Flags) Engine() *engine.Engine {
	eng := engine.New(f.Workers)
	eng.AttachObs(f.Scope())
	return eng
}

// Finish flushes the observability outputs: the Chrome trace JSON to
// -trace's path, with a line saying so on stderr, and, with -metrics,
// the metrics report to stdout. The writers are the tool's own, so an
// in-process run sees both.
func (f *Flags) Finish(stdout, stderr io.Writer) error {
	scope := f.Scope()
	if f.TracePath != "" {
		if err := scope.WriteTraceFile(f.TracePath); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: wrote %s (%d events, %d dropped)\n",
			f.TracePath, len(scope.Events()), scope.Dropped())
	}
	if f.Metrics {
		return scope.WriteMetrics(stdout)
	}
	return nil
}
