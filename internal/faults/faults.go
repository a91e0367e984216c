// Package faults is a seeded, fully deterministic fault-plan engine
// for chaos-testing the CI runtime and the three systems applications.
// A Plan declares the fault model for one run; each subsystem derives
// an Injector from it, which owns an independent deterministic random
// stream (so adding faults to one subsystem never perturbs another's
// sequence) and counts every fault it injects.
//
// Fault classes, following the failure modes the paper's systems face
// in deployment:
//
//   - Bernoulli packet drop / corruption / reordering on the network
//     path, on top of the NIC's ring-overflow loss (internal/mtcp/netsim.go).
//   - External-call stall spikes modelling page faults and slow
//     syscalls inside otherwise-instrumented code.
//   - Delegation/worker server stalls: a server core goes quiet for a
//     window, then recovers (internal/ffwd, internal/shenango).
//   - Handler-overrun spikes: a CI handler occasionally runs far past
//     its budget (internal/mtcp, internal/ci/ciruntime's AIMD path).
//
// All methods are nil-receiver safe: a nil *Injector injects nothing,
// so call sites need no fault-enabled branches.
package faults

import "repro/internal/sim"

// Plan declares the fault model for one run. The zero value injects
// nothing. Probabilities are per-event Bernoulli parameters in [0,1].
type Plan struct {
	// Seed roots every derived injector stream. Two runs with equal
	// plans (and equal workloads) are bit-identical.
	Seed uint64

	// Network faults, applied per packet at the NIC.
	DropProb    float64 // packet silently lost before the ring
	CorruptProb float64 // packet delivered but fails its checksum
	ReorderProb float64 // packet delayed so it arrives out of order
	// ReorderDelayCycles is the mean extra delay of a reordered packet
	// (exponential; default 20_000 ≈ 7.7 µs when a reorder fires).
	ReorderDelayCycles int64

	// External-call stall spikes (page faults, slow syscalls), applied
	// per external call or per request.
	StallProb       float64
	StallMeanCycles int64 // mean spike length (exponential; default 50_000)

	// Server stalls: the delegation server / a worker core goes quiet.
	// Onsets are exponentially spaced with the given mean gap; each
	// stall lasts StallCycles. Zero gap disables server stalls.
	ServerStallMeanGapCycles int64
	ServerStallCycles        int64

	// Handler-overrun spikes, applied per handler invocation.
	OverrunProb   float64
	OverrunCycles int64 // mean spike length (exponential; default 30_000)

	// Whole-replica crash/restart: the server process dies, losing all
	// queued and in-flight work, and restarts cold after the down time.
	// Onsets are exponentially spaced with the given mean gap; zero gap
	// disables crashes.
	CrashMeanGapCycles int64
	CrashDownCycles    int64 // down time per crash (default 2_600_000 ≈ 1 ms)

	// Gray failure: the replica stays up and answers health probes, but
	// serves at 1/GraySlowFactor of its normal rate for GraySlowCycles.
	// Onsets are exponentially spaced; zero gap disables gray failures.
	GraySlowMeanGapCycles int64
	GraySlowCycles        int64   // slow-window length (default 13_000_000 ≈ 5 ms)
	GraySlowFactor        float64 // service slowdown multiple (default 8)

	// Correlated zone outages: every replica sharing a failure domain
	// experiences the same seeded window (one injector stream per zone,
	// not per replica), modelling rack/AZ-scale correlated failures.
	// Composable with the per-replica crash and gray classes above —
	// each class draws from its own stream, so enabling one never
	// perturbs another's schedule.

	// Whole-zone crash: every replica in the zone dies at the onset and
	// restarts cold after the down window. Zero gap disables.
	ZoneCrashMeanGapCycles int64
	ZoneCrashDownCycles    int64 // down time per outage (default 2_600_000 ≈ 1 ms)

	// Whole-zone gray-slow: every replica in the zone serves at
	// 1/ZoneGrayFactor speed for ZoneGrayCycles. Zero gap disables.
	ZoneGrayMeanGapCycles int64
	ZoneGrayCycles        int64   // slow-window length (default 13_000_000 ≈ 5 ms)
	ZoneGrayFactor        float64 // service slowdown multiple (default 8)
}

// Enabled reports whether the plan can inject any fault at all.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.DropProb > 0 || p.CorruptProb > 0 || p.ReorderProb > 0 ||
		p.StallProb > 0 || p.ServerStallMeanGapCycles > 0 || p.OverrunProb > 0 ||
		p.CrashMeanGapCycles > 0 || p.GraySlowMeanGapCycles > 0 ||
		p.ZoneCrashMeanGapCycles > 0 || p.ZoneGrayMeanGapCycles > 0
}

// Uniform returns a plan that applies rate to every Bernoulli fault
// class and scales server stalls to roughly rate fraction of time
// stalled — the standard sweep point used by `ciexp chaos`.
func Uniform(seed uint64, rate float64) *Plan {
	p := &Plan{
		Seed:        seed,
		DropProb:    rate,
		CorruptProb: rate,
		ReorderProb: rate,
		StallProb:   rate,
		OverrunProb: rate,
	}
	if rate > 0 {
		// Stall for 100k cycles out of every 100k/rate on average.
		p.ServerStallCycles = 100_000
		p.ServerStallMeanGapCycles = int64(float64(p.ServerStallCycles) / rate)
	}
	return p
}

// Counters tallies injected faults, one field per fault class.
type Counters struct {
	Drops        int64
	Corrupts     int64
	Reorders     int64
	Stalls       int64
	StallCycles  int64
	ServerStalls int64
	Overruns     int64
	OverrunCyc   int64
	Crashes      int64
	CrashDownCyc int64
	GraySlows    int64
	GraySlowCyc  int64
	ZoneCrashes  int64
	ZoneDownCyc  int64
	ZoneGrays    int64
	ZoneGrayCyc  int64
}

// Injector draws faults from one subsystem's deterministic stream.
type Injector struct {
	plan Plan
	rng  *sim.RNG
	Counters
}

// fnv64a hashes the subsystem name for stream separation.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// New derives the injector for one subsystem from a plan. A nil or
// all-zero plan yields a nil injector, which injects nothing.
func New(p *Plan, subsystem string) *Injector {
	if !p.Enabled() {
		return nil
	}
	return &Injector{
		plan: *p,
		rng:  sim.NewRNG(p.Seed ^ fnv64a(subsystem) ^ 0x6661756c7473), // "faults"
	}
}

// Drop reports whether to drop the next packet.
func (in *Injector) Drop() bool {
	if in == nil || in.plan.DropProb <= 0 {
		return false
	}
	if in.rng.Float64() < in.plan.DropProb {
		in.Drops++
		return true
	}
	return false
}

// Corrupt reports whether to corrupt the next packet.
func (in *Injector) Corrupt() bool {
	if in == nil || in.plan.CorruptProb <= 0 {
		return false
	}
	if in.rng.Float64() < in.plan.CorruptProb {
		in.Corrupts++
		return true
	}
	return false
}

// Reorder returns the extra delivery delay for the next packet: 0 for
// in-order delivery, positive cycles when a reorder fires.
func (in *Injector) Reorder() int64 {
	if in == nil || in.plan.ReorderProb <= 0 {
		return 0
	}
	if in.rng.Float64() >= in.plan.ReorderProb {
		return 0
	}
	in.Reorders++
	mean := in.plan.ReorderDelayCycles
	if mean <= 0 {
		mean = 20_000
	}
	return in.rng.Exp(float64(mean))
}

// Stall returns the extra cycles of the next external-call stall
// spike, or 0.
func (in *Injector) Stall() int64 {
	if in == nil || in.plan.StallProb <= 0 {
		return 0
	}
	if in.rng.Float64() >= in.plan.StallProb {
		return 0
	}
	mean := in.plan.StallMeanCycles
	if mean <= 0 {
		mean = 50_000
	}
	d := in.rng.Exp(float64(mean))
	in.Stalls++
	in.StallCycles += d
	return d
}

// Overrun returns the extra cycles of the next handler-overrun spike,
// or 0.
func (in *Injector) Overrun() int64 {
	if in == nil || in.plan.OverrunProb <= 0 {
		return 0
	}
	if in.rng.Float64() >= in.plan.OverrunProb {
		return 0
	}
	mean := in.plan.OverrunCycles
	if mean <= 0 {
		mean = 30_000
	}
	d := in.rng.Exp(float64(mean))
	in.Overruns++
	in.OverrunCyc += d
	return d
}

// NextServerStall returns the gap until the next server-stall onset
// and its duration. ok is false when the plan has no server stalls.
func (in *Injector) NextServerStall() (gap, duration int64, ok bool) {
	if in == nil || in.plan.ServerStallMeanGapCycles <= 0 {
		return 0, 0, false
	}
	in.ServerStalls++
	gap = in.rng.Exp(float64(in.plan.ServerStallMeanGapCycles))
	duration = in.plan.ServerStallCycles
	if duration <= 0 {
		duration = 100_000
	}
	return gap, duration, true
}

// NextCrash returns the gap until the next whole-replica crash onset
// and the crash's down time. ok is false when the plan has no crashes.
func (in *Injector) NextCrash() (gap, down int64, ok bool) {
	if in == nil || in.plan.CrashMeanGapCycles <= 0 {
		return 0, 0, false
	}
	in.Crashes++
	gap = in.rng.Exp(float64(in.plan.CrashMeanGapCycles))
	down = in.plan.CrashDownCycles
	if down <= 0 {
		down = 2_600_000
	}
	in.CrashDownCyc += down
	return gap, down, true
}

// NextGraySlow returns the gap until the next gray-failure onset, its
// duration, and the service slowdown factor. ok is false when the plan
// has no gray failures.
func (in *Injector) NextGraySlow() (gap, duration int64, factor float64, ok bool) {
	if in == nil || in.plan.GraySlowMeanGapCycles <= 0 {
		return 0, 0, 1, false
	}
	in.GraySlows++
	gap = in.rng.Exp(float64(in.plan.GraySlowMeanGapCycles))
	duration = in.plan.GraySlowCycles
	if duration <= 0 {
		duration = 13_000_000
	}
	factor = in.plan.GraySlowFactor
	if factor <= 1 {
		factor = 8
	}
	in.GraySlowCyc += duration
	return gap, duration, factor, true
}

// NextZoneCrash returns the gap until the next whole-zone crash onset
// and the outage's down time. ok is false when the plan has no zone
// crashes. The injector is expected to be derived per zone (one shared
// stream per failure domain), so every replica in the zone replays the
// identical correlated schedule.
func (in *Injector) NextZoneCrash() (gap, down int64, ok bool) {
	if in == nil || in.plan.ZoneCrashMeanGapCycles <= 0 {
		return 0, 0, false
	}
	in.ZoneCrashes++
	gap = in.rng.Exp(float64(in.plan.ZoneCrashMeanGapCycles))
	down = in.plan.ZoneCrashDownCycles
	if down <= 0 {
		down = 2_600_000
	}
	in.ZoneDownCyc += down
	return gap, down, true
}

// NextZoneGraySlow returns the gap until the next whole-zone gray
// onset, its duration, and the service slowdown factor. ok is false
// when the plan has no zone gray windows. Like NextZoneCrash, the
// stream is meant to be shared by every replica of one zone.
func (in *Injector) NextZoneGraySlow() (gap, duration int64, factor float64, ok bool) {
	if in == nil || in.plan.ZoneGrayMeanGapCycles <= 0 {
		return 0, 0, 1, false
	}
	in.ZoneGrays++
	gap = in.rng.Exp(float64(in.plan.ZoneGrayMeanGapCycles))
	duration = in.plan.ZoneGrayCycles
	if duration <= 0 {
		duration = 13_000_000
	}
	factor = in.plan.ZoneGrayFactor
	if factor <= 1 {
		factor = 8
	}
	in.ZoneGrayCyc += duration
	return gap, duration, factor, true
}

// ServerStallFrac is the long-run fraction of time a server spends
// stalled under the plan (analytic; used by closed-form models).
func (p *Plan) ServerStallFrac() float64 {
	if p == nil || p.ServerStallMeanGapCycles <= 0 {
		return 0
	}
	d := p.ServerStallCycles
	if d <= 0 {
		d = 100_000
	}
	return float64(d) / float64(d+p.ServerStallMeanGapCycles)
}
