// Package fleet is the multi-server resilience layer: N CI-polled
// server replicas behind a health-checked load balancer, driven by an
// open-loop multi-tenant client population with heavy-tailed service
// demands. It composes the repo's existing planes — internal/overload
// controllers guard each replica's admission and the balancer's
// per-backend health breakers and per-tenant rate isolation;
// internal/faults seeds whole-replica crash/restart and gray-failure
// (slow-replica) windows — into one deterministic cluster simulation.
//
// Resilience machinery on top of plain load balancing:
//
//   - health checks with outlier ejection and half-open re-admission
//     (the overload package's breaker, one Controller per backend);
//   - per-tenant retries with exponential backoff, bounded by a
//     cluster-wide retry budget so retries can never storm: at deposit
//     fraction f per first attempt, retry amplification is bounded by
//     1 + f (+ the hedge fraction) by construction;
//   - hedged requests after a p99-derived delay with first-wins
//     cancellation; a hedge whose twin also completes is accounted as
//     a hedge-duplicate, never double-counted as a served request;
//   - a conservation oracle proving every injected request and every
//     attempt is accounted exactly once.
//
// # Execution
//
// A run is one goroutine stepping virtual time in fixed epochs
// (EpochCycles). Each epoch runs three phases in a fixed order:
//
//  1. the barrier at epoch start t: health checks, migration, arrival
//     generation, and routing into replica inboxes;
//  2. every replica, in index order, steps over [t, t+EpochCycles):
//     it applies cancels, admits its inbox and serves its queue;
//  3. collect drains every outbox in replica order and delivers the
//     outcomes at t+EpochCycles.
//
// The order is the model, not a scheduling artefact: a replica sees
// only what was routed to it at the epoch start, and the balancer and
// the clients learn an outcome at the next epoch boundary, so no
// decision inside an epoch depends on another replica's progress in
// the same epoch. Every random stream belongs to one component (a
// tenant, a replica's or a zone's fault injector, the balancer) and is
// drawn in this fixed order, so a Result is a pure function of its
// Config.
//
// The barrier is the hot loop, and it is built to allocate nothing in
// steady state (epoch.go holds the structures):
//
//   - Live requests sit in a slab (reqSlab), one 64-byte slot each, so
//     it is as long as the most requests ever live at once rather than
//     the span of their sequence numbers, which a few slow requests
//     stretch far wider. Released slots are reused last in, first out;
//     the slab doubles only when none is free. Attempts and hedge
//     entries name their request by a handle (slot and generation);
//     release bumps the slot's generation, so a finished request is
//     gone: its handle reads nil, also after the slot is reused. A
//     request's at most two in-flight attempts are stored inline — a
//     third is an InflightOverflowError, not growth.
//   - One epoch's attempts are collected in one reused batch as sorted
//     runs: each tenant's fresh arrivals (generated in send order with
//     increasing ids), the due retries (popped from a typed heap, the
//     ones clamped to the epoch start re-ordered by id) and the due
//     hedges (all sent at the epoch start, fresh ids). A k-way merge of
//     the runs gives the routing order (send time, then attempt id).
//     Attempt ids are unique, so that order is strict: a merge, a sort
//     or any other correct method yields the same sequence, and results
//     cannot depend on which one is used.
//   - The balancer never builds its candidate ranking. pick fixes the
//     sequence (round-robin cursor, p2c's two draws — spent exactly
//     once per pick whatever follows) and walks it lazily, surviving
//     zones first, until usable accepts a backend. usable is the only
//     step with a side effect (it spends a half-open backend's probe
//     slot), it never changes a breaker's state, and the walk asks
//     backends strictly in ranking order and stops at the first yes —
//     so the backends asked, the slots spent and the RNG draws are
//     those of ranking every backend first. The routable (non-ejected)
//     set p2c samples from is maintained by the breaker hook, not
//     scanned per pick.
//   - Reused across epochs: the batch and its merge scratch, the replica
//     inboxes/outboxes/cancel boxes, the retry heap's array, and the
//     head-indexed FIFOs (queue) behind each replica's admission queue
//     and the hedge queue. Outcomes travel by pointer into the outbox.
//   - Per-tenant latencies are the one record that grows with the run.
//     Each tenant's list is sized once, at set-up, for its Poisson
//     arrivals over the horizon plus four standard deviations, so it
//     practically never regrows. At the end each list is sorted once,
//     in place, for the tenant's tails, by an LSD radix sort (11-bit
//     digits, two passes for any latency below 2^22 cycles) through
//     one scratch list as long as the longest; the cluster tails are
//     read off the sorted lists by rank (stats.PercentileSortedLists),
//     and the max is the largest list tail, so no merged copy is built
//     and every percentile stays exact.
//
// The overload controllers inside (one per replica, per backend, per
// tenant) run without an obs scope and allocate nothing per decision.
package fleet

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/stats"
)

// CyclesPerUs converts model cycles to microseconds (2.6 GHz clock).
const CyclesPerUs = 2600.0

// EpochCycles is the BSP step length: 26_000 cycles = 10 µs, ten CI
// polling intervals at the paper's 2500-cycle default.
const EpochCycles = 26_000

// PollIntervalCycles is the replica-local control-loop cadence inside
// an epoch, matching the CI probe discipline (~2500 cycles; 2600 here
// so an epoch holds a whole number of polls).
const PollIntervalCycles = 2600

// meanDemandCycles is the analytic mean of the bounded-Pareto service
// demand (xm=2500, H=250_000, alpha=1.5): ~6756 cycles per request.
const meanDemandCycles = 6756.0

// DefaultDeadlineCycles is the per-request deadline from first
// injection (~1 ms at the 2.6 GHz model clock), propagated to replica
// admission.
const DefaultDeadlineCycles = 2_600_000

const (
	// maxRetries bounds retries per request.
	maxRetries = 2
	// hedgeBudgetFrac is the hedge-budget deposit per injected request.
	hedgeBudgetFrac = 0.05
	// misbehaveFactor is how many times its fair share the misbehaving
	// tenant offers.
	misbehaveFactor = 4
)

// Policy selects the balancer's routing discipline.
type Policy int

const (
	// RoundRobin cycles over healthy replicas.
	RoundRobin Policy = iota
	// LeastLoaded picks the healthy replica with the fewest
	// outstanding attempts.
	LeastLoaded
	// P2CDeadline samples two healthy replicas and keeps the one with
	// the lower estimated queue delay, preferring a candidate whose
	// estimate still fits the attempt's remaining deadline budget.
	P2CDeadline
)

var policyNames = [...]string{RoundRobin: "rr", LeastLoaded: "least", P2CDeadline: "p2c"}

// String names the policy (the -lb flag vocabulary).
func (p Policy) String() string { return policyNames[p] }

// ParsePolicy maps a -lb flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if s == n {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("unknown balancer policy %q (want rr, least, or p2c)", s)
}

// Config tunes one fleet run. Zero fields take the documented
// defaults.
type Config struct {
	// Replicas is the cluster size (default 8).
	Replicas int
	// Tenants is the client population size (default 4).
	Tenants int
	// Policy is the balancer's routing discipline (default P2CDeadline).
	Policy Policy
	// Seed roots every random stream of the run.
	Seed uint64

	// HorizonCycles is the injection horizon (default 130_000_000 ≈
	// 50 ms); the run then drains until all work resolves, and stops at
	// the latest 16 deadlines past the horizon (drainEnd); whatever is
	// unresolved then is reported as InFlightEnd.
	HorizonCycles int64
	// LoadFactor scales offered load against the cluster's analytic
	// capacity (default 0.8; 1.2 is the overloaded soak point).
	LoadFactor float64

	// RetryBudgetFrac is the cluster retry-budget deposit per injected
	// request (default 0.1; negative disables retries entirely).
	RetryBudgetFrac float64

	// HedgeDelayCycles enables hedged requests: a second attempt is
	// sent when the first has been outstanding for
	// max(HedgeDelayCycles, observed p99 latency). 0 disables hedging.
	HedgeDelayCycles int64

	// Faults seeds crash and gray-failure windows. CrashReplicas
	// limits how many replicas (0..CrashReplicas-1) are subject to the
	// plan (default: all when a plan is set).
	Faults        *faults.Plan
	CrashReplicas int

	// Zones is the number of failure domains (default 1). Replica i
	// lives in zone i % Zones. The fault plan's zone classes
	// (ZoneCrashMeanGapCycles / ZoneGrayMeanGapCycles) draw one
	// correlated outage schedule per zone, applied to every replica in
	// it, and the balancer prefers candidates from surviving zones.
	// OutageZones limits how many zones (0..OutageZones-1) are subject
	// to the plan's zone classes (default: all), mirroring
	// CrashReplicas for the per-replica classes.
	Zones       int
	OutageZones int

	// Migrate enables cross-replica work migration: queued-but-
	// unstarted attempts on a crashed or ejected replica are drained at
	// the next barrier and re-routed through the balancer with their
	// original deadlines and tenant accounting intact, instead of dying
	// into the retry path.
	Migrate bool

	// MisbehavingTenant names one tenant that offers misbehaveFactor (4)
	// times its fair share and retries without backoff.
	// Per-tenant rate isolation at the balancer keeps it from consuming
	// the other tenants' capacity. The field has no default: the zero
	// value means tenant 0, so a zero Config (and
	// experiments.FleetScaleConfig, which leaves it unset) runs with
	// tenant 0 misbehaving. Set -1, or any index that is not a tenant,
	// for none.
	MisbehavingTenant int
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 8
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.HorizonCycles <= 0 {
		c.HorizonCycles = 130_000_000
	}
	if c.LoadFactor <= 0 {
		c.LoadFactor = 0.8
	}
	if c.RetryBudgetFrac == 0 {
		c.RetryBudgetFrac = 0.1
	}
	if c.RetryBudgetFrac < 0 {
		c.RetryBudgetFrac = 0
	}
	if c.Faults.Enabled() && c.CrashReplicas <= 0 {
		c.CrashReplicas = c.Replicas
	}
	if c.Zones <= 0 {
		c.Zones = 1
	}
	if c.Zones > c.Replicas {
		c.Zones = c.Replicas
	}
	if c.OutageZones <= 0 || c.OutageZones > c.Zones {
		c.OutageZones = c.Zones
	}
	return c
}

// CapacityRPS is the cluster's analytic service capacity in requests
// per second: one serving core per replica at the mean demand.
func CapacityRPS(replicas int) float64 {
	return float64(replicas) * 2.6e9 / meanDemandCycles
}

// TenantStats is one tenant's view of the run.
type TenantStats struct {
	Injected, Served, ServedLate, Failed int64
	Rejected                             int64 // attempts refused by the tenant's rate gate
	P99Us, P999Us                        float64
	Misbehaving                          bool
}

// ReplicaStats is one replica's view of the run.
type ReplicaStats struct {
	Zone                                int
	Admitted, Served, Expired, Rejected int64
	Refused                             int64 // attempts that arrived while the replica was down
	Crashes                             int64
	CrashKilled                         int64 // admitted attempts killed by a crash
	GraySlows                           int64
	ZoneCrashes, ZoneGrays              int64 // correlated zone-outage windows experienced
	MigratedOut                         int64 // queued attempts drained off this replica
	StrandedQueued                      int64 // queued attempts a crash killed instead of migrating
	Ejections, Readmissions             int64
}

// Result is one fleet run's complete accounting. All fields are
// values (slices of value structs), so two Results from equal
// configurations compare equal with reflect.DeepEqual and hash to the
// same Fingerprint.
type Result struct {
	Cfg struct {
		Replicas, Tenants int
		Policy            Policy
		Seed              uint64
		LoadFactor        float64
		Zones             int
		Migrate           bool
	}

	// Request-level conservation: Injected = Served + ServedLate +
	// FailedPerm + InFlightEnd.
	Injected, Served, ServedLate, FailedPerm, InFlightEnd int64

	// Attempt-level conservation: Attempts = Injected + Retries +
	// Hedges, and Attempts = AttemptServed + AttemptRejected +
	// AttemptExpired + AttemptFailed + AttemptCancelled +
	// AttemptInFlight.
	Attempts, Retries, Hedges                     int64
	AttemptServed, AttemptRejected, AttemptFailed int64
	AttemptExpired, AttemptCancelled              int64
	AttemptInFlight                               int64

	// HedgeDuplicates counts served attempts whose request had already
	// completed (folded inside AttemptServed); HedgeWins counts
	// requests completed by their hedge.
	HedgeDuplicates, HedgeWins int64
	// RetryDenied / HedgeDenied count budget refusals.
	RetryDenied, HedgeDenied int64

	// Balancer accounting.
	Probes, ProbeFailures, Ejections, Readmissions int64
	TenantRejected                                 int64 // attempts shed by per-tenant rate gates
	LBUnrouted                                     int64 // attempts with no admitting replica

	// Migration accounting: Migrated attempts were drained off a dying
	// replica and re-routed; MigrationFailed ones found no admitting
	// replica and fell back into the retry path as failures. Both sum
	// to the replicas' MigratedOut drain count.
	Migrated, MigrationFailed int64

	// Fault accounting. ZoneCrashes/ZoneGrays count correlated
	// per-replica outage windows from the plan's zone classes,
	// separately from the independent per-replica classes.
	Crashes, GraySlows     int64
	ZoneCrashes, ZoneGrays int64

	// Latency of completed requests (injection → first completion).
	P50Us, P99Us, P999Us, MaxUs float64
	// GoodputRPS is in-deadline completions per second of injection
	// horizon.
	GoodputRPS float64

	PerTenant  []TenantStats
	PerReplica []ReplicaStats

	// InvariantErrs carries any per-replica overload-plane accounting
	// violations and any InflightOverflowError (empty on a healthy run;
	// deterministic, so it is part of the fingerprint).
	InvariantErrs []string
}

// Amplification is Attempts/Injected — the retry-storm metric the
// budget bounds at 1 + RetryBudgetFrac + hedgeBudgetFrac.
func (r *Result) Amplification() float64 {
	if r.Injected == 0 {
		return 0
	}
	return float64(r.Attempts) / float64(r.Injected)
}

// Fingerprint hashes the full accounting for byte-identity checks
// against committed goldens.
func (r *Result) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(fmt.Sprintf("%+v", *r))
	return h
}

// drainEnd bounds the run: up to 16 deadlines past the horizon so
// every attempt reaches a terminal state; whatever is left is
// InFlightEnd. Zone outage schedules are drawn out to the same bound.
func (c Config) drainEnd() int64 { return c.HorizonCycles + 16*DefaultDeadlineCycles }

// Run executes one fleet soak on the calling goroutine. The pool is
// unused: a run is serial (see "Execution"), and the parameter remains
// only for callers that still pass one.
func Run(cfg Config, _ *engine.Pool) *Result {
	c := cfg.withDefaults()
	f := newFleetState(c)
	f.run()
	return f.result(c)
}

// run steps the epochs until the work past the horizon has drained or
// the drain bound is reached.
func (f *fleetState) run() {
	c := &f.cfg
	for t, drainEnd := int64(0), c.drainEnd(); t < drainEnd; t += EpochCycles {
		f.barrier(t)
		for _, r := range f.replicas {
			r.step(t, t+EpochCycles)
		}
		f.collect(t + EpochCycles)
		if t >= c.HorizonCycles && f.outstanding == 0 {
			break
		}
	}
}

// fleetState is the whole cluster as the barrier sees it.
type fleetState struct {
	cfg      Config
	replicas []*replica
	lb       *balancer
	cl       *clients

	outstanding int64         // requests injected but not yet terminal
	latHist     stats.LogHist // completed-request latencies, for the hedge delay
	batch       batch         // this epoch's attempts
}

func newFleetState(c Config) *fleetState {
	f := &fleetState{cfg: c}
	zoneCrash, zoneGray := zoneSchedules(c)
	f.replicas = make([]*replica, c.Replicas)
	for i := range f.replicas {
		var inj *faults.Injector
		if i < c.CrashReplicas {
			inj = faults.New(c.Faults, fmt.Sprintf("fleet/replica%d", i))
		}
		z := i % c.Zones
		f.replicas[i] = newReplica(i, z, c, inj, zoneCrash[z], zoneGray[z])
	}
	f.lb = newBalancer(c)
	f.cl = newClients(c)
	return f
}

// zoneWindow is one scheduled correlated outage for a whole zone:
// factor 0 is a crash window (the zone's replicas go down for dur),
// factor > 0 is a gray window (their service demands stretch by it).
type zoneWindow struct {
	at, dur int64
	factor  float64
}

// zoneSchedules pre-draws each zone's correlated outage windows from
// its own injector stream ("fleet/zone<z>"), out to the run's drain
// bound. A zone's schedule is one list that every replica in the zone
// reads with its own cursor, so one draw order serves them all whatever
// order they step in. Onsets are spaced from the end of the previous
// window, like the per-replica classes.
func zoneSchedules(c Config) (crash, gray [][]zoneWindow) {
	crash = make([][]zoneWindow, c.Zones)
	gray = make([][]zoneWindow, c.Zones)
	end := c.drainEnd()
	for z := 0; z < c.Zones && z < c.OutageZones; z++ {
		inj := faults.New(c.Faults, fmt.Sprintf("fleet/zone%d", z))
		for t := int64(0); ; {
			gap, down, ok := inj.NextZoneCrash()
			if !ok {
				break
			}
			t += gap
			if t >= end {
				break
			}
			crash[z] = append(crash[z], zoneWindow{at: t, dur: down})
			t += down
		}
		for t := int64(0); ; {
			gap, dur, factor, ok := inj.NextZoneGraySlow()
			if !ok {
				break
			}
			t += gap
			if t >= end {
				break
			}
			gray[z] = append(gray[z], zoneWindow{at: t, dur: dur, factor: factor})
			t += dur
		}
	}
	return crash, gray
}

// barrier runs one epoch's barrier work at epoch start t: run health
// checks, drain and re-route migrating work, then collect the epoch's
// attempts — fresh arrivals, due retries, due hedges — and route them
// into replica inboxes in (send time, id) order.
func (f *fleetState) barrier(t int64) {
	f.lb.healthTick(f, t)
	f.migrateDrained(t)
	b := &f.batch
	b.reset()
	if t < f.cfg.HorizonCycles {
		f.cl.arrivals(b, t, t+EpochCycles)
		f.outstanding += int64(len(b.due))
	}
	f.cl.dueRetries(b, t+EpochCycles)
	f.cl.dueHedges(b, t, f.hedgeDelay())
	for _, i := range b.merged() {
		f.route(&b.due[i])
	}
	f.cl.flushCancels(f.replicas)
}

// migrateDrained is the migration barrier phase: queued-but-unstarted
// attempts on a freshly-ejected backend, plus attempts a crash parked
// in its replica's migrate box during the last epoch, are drained in
// replica-index order and re-routed through the balancer. The attempt
// keeps its identity — original deadline base, tenant, demand — so
// tenant accounting and the conservation identities are untouched: a
// migrated attempt is the same attempt, admitted once at the source
// (never started there) and once at the target. An attempt whose
// hedge twin already completed has a cancellation pending; migration
// honors it at the source instead of re-routing a dead twin, so a
// request can never be double-served through migration.
func (f *fleetState) migrateDrained(t int64) {
	for i, r := range f.replicas {
		drain := f.lb.takeDrain(i)
		if !f.cfg.Migrate {
			continue
		}
		if drain && r.q.len() > 0 {
			r.migrateOut = append(r.migrateOut, r.q.live()...)
			r.q.reset()
			r.qDemand = 0
		}
		for k := range r.migrateOut {
			a := &r.migrateOut[k]
			f.lb.bk[i].outstanding--
			if f.cl.takeCancel(a.id) {
				r.cancelledNotStarted++
				f.deliver(&outcome{att: *a, at: t, status: stCancelled})
				continue
			}
			r.migratedOut++
			r.migratedNotStarted++
			f.rerouteMigrated(a, i, t)
		}
		r.migrateOut = r.migrateOut[:0]
	}
}

// rerouteMigrated re-routes one drained attempt at barrier time t,
// excluding its dying source. The tenant rate gate is skipped — the
// attempt was already admitted once and re-charging it would punish
// tenants for infrastructure failures. A failed migration (no
// admitting replica anywhere) becomes an attempt failure and feeds the
// normal retry path.
func (f *fleetState) rerouteMigrated(a *attempt, from int, t int64) {
	a.arrival = t
	a.exclude = int32(from)
	r, ok := f.lb.pick(a)
	if !ok {
		f.lb.migrationFailed++
		f.deliver(&outcome{att: *a, at: t, status: stFailed})
		return
	}
	a.replica = int32(r)
	f.lb.migrated++
	f.lb.noteRouted(r)
	f.cl.bindReplica(a.req, a.id, r)
	f.replicas[r].inbox = append(f.replicas[r].inbox, *a)
}

// route sends one attempt through the tenant rate gate and the
// balancer into a replica inbox; refusals become immediate outcomes.
func (f *fleetState) route(a *attempt) {
	f.cl.noteAttempt(a)
	if !f.lb.tenantAdmit(a) {
		f.deliver(&outcome{att: *a, at: a.arrival, status: stRejected})
		f.lb.tenantRejected++
		return
	}
	r, ok := f.lb.pick(a)
	if !ok {
		f.lb.unrouted++
		f.deliver(&outcome{att: *a, at: a.arrival, status: stRejected})
		return
	}
	a.replica = int32(r)
	f.lb.noteRouted(r)
	f.cl.bindReplica(a.req, a.id, r)
	f.replicas[r].inbox = append(f.replicas[r].inbox, *a)
}

// collect drains every replica outbox at the epoch barrier and feeds
// the outcomes to the balancer and the client population.
func (f *fleetState) collect(now int64) {
	for _, r := range f.replicas {
		for i := range r.outbox {
			o := &r.outbox[i]
			f.lb.noteOutcome(o, now)
			f.deliver(o)
		}
		r.outbox = r.outbox[:0]
	}
}

// deliver hands one terminal attempt outcome to the client layer,
// which settles the request (completion, retry, hedge bookkeeping).
func (f *fleetState) deliver(o *outcome) {
	done, lat := f.cl.settle(o)
	if done {
		f.outstanding--
		if lat >= 0 {
			f.latHist.Add(lat)
		}
	}
}

// hedgeDelay is the current hedge trigger: the configured floor or
// the observed p99 request latency, whichever is larger.
func (f *fleetState) hedgeDelay() int64 {
	d := f.cfg.HedgeDelayCycles
	if d <= 0 {
		return 0
	}
	if p99 := f.latHist.Quantile(99); p99 > d {
		d = p99
	}
	return d
}

func (f *fleetState) result(c Config) *Result {
	res := &Result{}
	res.Cfg.Replicas = c.Replicas
	res.Cfg.Tenants = c.Tenants
	res.Cfg.Policy = c.Policy
	res.Cfg.Seed = c.Seed
	res.Cfg.LoadFactor = c.LoadFactor
	res.Cfg.Zones = c.Zones
	res.Cfg.Migrate = c.Migrate

	for _, r := range f.replicas {
		st := r.stats()
		res.PerReplica = append(res.PerReplica, st)
		res.Crashes += st.Crashes
		res.GraySlows += st.GraySlows
		res.ZoneCrashes += st.ZoneCrashes
		res.ZoneGrays += st.ZoneGrays
		res.AttemptInFlight += r.inFlight()
		if err := r.checkInvariants(); err != nil {
			res.InvariantErrs = append(res.InvariantErrs, err.Error())
		}
	}
	f.cl.fill(res)
	f.lb.fill(res)
	res.InFlightEnd = f.outstanding
	res.GoodputRPS = float64(res.Served) / (float64(c.HorizonCycles) / 2.6e9)
	return res
}
