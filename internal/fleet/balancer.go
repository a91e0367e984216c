package fleet

import (
	"fmt"
	"slices"

	"repro/internal/overload"
	"repro/internal/sim"
)

// HealthIntervalCycles is the balancer's probe cadence: 130_000
// cycles = 50 µs, five epochs.
const HealthIntervalCycles = 130_000

// backend is the balancer's view of one replica: a health breaker
// (an overload.Controller used breaker-only) plus an outstanding
// counter for load estimates.
type backend struct {
	hc          *overload.Controller
	outstanding int64
	ejections   int64
	readmits    int64
}

// balancer routes attempts to replicas: per-tenant rate gates first
// (isolating a misbehaving tenant to its own share), then a policy
// pick over healthy backends. Health is judged from synthetic probes:
// a probe fails while the replica is down and carries the replica's
// queue-delay signal, so crashed replicas trip the breaker on
// failures and gray-slow replicas trip it on latency outliers. An
// ejected (Open) backend receives no traffic until the cooldown
// half-opens it; half-open backends re-admit a bounded number of real
// requests as probes before closing.
type balancer struct {
	cfg Config
	bk  []backend
	rng *sim.RNG // p2c sampling; consumed serially only

	tenants       []*overload.Controller
	tenantRejects []int64

	// Failure-domain bookkeeping: zoneOf labels each backend, zoneOpen
	// counts each zone's currently-ejected backends (maintained by the
	// breaker state-change hook), and a zone with at least half its
	// backends ejected is treated as suffering a correlated outage —
	// its survivors are deprioritized too.
	zoneOf   []int
	zoneSize []int
	zoneOpen []int

	// drainPending marks backends whose breaker opened since the last
	// migration barrier; the next barrier drains their queues.
	drainPending []bool

	// routable is the non-Open backends in index order, maintained by
	// the breaker state-change hook so p2c sampling never scans.
	routable []int

	// The current pick's candidate sequence, read through candidate:
	// seqStart is round-robin's first backend; seqSorted says how many
	// leading entries of seqOrder least-loaded's selection has put in
	// place; seqFirst/seqSecond are p2c's two sampled backends (or the
	// only routable one) and seqLo < seqHi their positions in routable.
	seqStart            int
	seqOrder            []int
	seqSorted           int
	seqFirst, seqSecond int
	seqLo, seqHi        int

	rrNext     int
	nextHealth int64

	probes, probeFailures     int64
	tenantRejected, unrouted  int64
	migrated, migrationFailed int64
}

func newBalancer(c Config) *balancer {
	b := &balancer{
		cfg: c,
		rng: sim.NewRNG(c.Seed ^ 0x6c62), // "lb"
	}
	b.bk = make([]backend, c.Replicas)
	b.zoneOf = make([]int, c.Replicas)
	b.zoneSize = make([]int, c.Zones)
	b.zoneOpen = make([]int, c.Zones)
	b.drainPending = make([]bool, c.Replicas)
	b.routable = make([]int, c.Replicas)
	b.seqOrder = make([]int, c.Replicas)
	for i := range b.bk {
		i := i
		b.routable[i] = i
		b.zoneOf[i] = i % c.Zones
		b.zoneSize[b.zoneOf[i]]++
		b.bk[i].hc = overload.New(&overload.Config{
			Name:         fmt.Sprintf("fleet/lb%d", i),
			WindowCycles: 5 * HealthIntervalCycles,
			Breaker: overload.BreakerConfig{
				// 5 probes per window; a down replica fails them all,
				// a gray replica pushes the probe latency signal past
				// the deadline.
				ErrFracTrip:      0.4,
				MinSamples:       3,
				LatencyP99Cycles: DefaultDeadlineCycles,
				CooldownCycles:   2 * DefaultDeadlineCycles,
				HalfOpenProbes:   4,
			},
			OnStateChange: func(from, to overload.State, now int64) {
				at, _ := slices.BinarySearch(b.routable, i)
				if to == overload.Open {
					b.bk[i].ejections++
					b.zoneOpen[b.zoneOf[i]]++
					b.drainPending[i] = true
					b.routable = slices.Delete(b.routable, at, at+1)
				}
				if from == overload.Open {
					b.zoneOpen[b.zoneOf[i]]--
					b.routable = slices.Insert(b.routable, at, i)
				}
				if from == overload.HalfOpen && to == overload.Closed {
					b.bk[i].readmits++
				}
			},
		})
	}
	// Per-tenant rate gates: each tenant gets its fair share of the
	// cluster's analytic capacity plus 25% headroom, so well-behaved
	// tenants never hit their gate while a misbehaving tenant's excess
	// is shed at the door instead of inside the replicas.
	perCycle := float64(c.Replicas) / meanDemandCycles
	share := 1.25 * perCycle / float64(c.Tenants)
	b.tenants = make([]*overload.Controller, c.Tenants)
	b.tenantRejects = make([]int64, c.Tenants)
	for i := range b.tenants {
		b.tenants[i] = overload.New(&overload.Config{
			Name:         fmt.Sprintf("fleet/tenant%d", i),
			RatePerCycle: share,
			Burst:        256,
			Breaker:      overload.BreakerConfig{Disabled: true},
		})
	}
	return b
}

// tenantAdmit runs one attempt through its tenant's rate gate.
func (b *balancer) tenantAdmit(a *attempt) bool {
	v := b.tenants[a.tenant].Admit(a.arrival, overload.Request{Arrival: a.arrival})
	if !v.Admitted() {
		b.tenantRejects[a.tenant]++
		return false
	}
	return true
}

// healthTick probes every backend at the probe cadence: failure while
// the replica is down, latency from its queue-delay signal; the poll
// drives the breaker's cooldown and window rotation.
func (b *balancer) healthTick(f *fleetState, t int64) {
	if t < b.nextHealth {
		return
	}
	b.nextHealth = t + HealthIntervalCycles
	for i := range b.bk {
		down := f.replicas[i].isDown(t)
		lat := f.replicas[i].oldestSojourn(t)
		b.probes++
		if down {
			b.probeFailures++
		}
		b.bk[i].hc.Observe(t, lat, down)
		b.bk[i].hc.Poll(t, lat)
	}
}

// estDelay is the balancer-side queue estimate for one backend.
func (b *balancer) estDelay(i int) int64 {
	return int64(float64(b.bk[i].outstanding) * meanDemandCycles)
}

// takeDrain consumes backend i's pending-drain mark (set when its
// breaker opened), returning whether a migration drain is due.
func (b *balancer) takeDrain(i int) bool {
	d := b.drainPending[i]
	b.drainPending[i] = false
	return d
}

// zoneDown reports whether zone z looks like a correlated outage: at
// least half its backends are ejected. Its surviving backends are
// deprioritized too — in a real failure domain the survivors share
// the failing power/network and are the next to go.
func (b *balancer) zoneDown(z int) bool {
	return b.zoneOpen[z]*2 >= b.zoneSize[z]
}

// usable reports whether backend i may receive the attempt now:
// Closed always, HalfOpen only by consuming one of its bounded
// real-request probe slots, Open never.
func (b *balancer) usable(i int, now int64) bool {
	switch b.bk[i].hc.BreakerState() {
	case overload.Open:
		return false
	case overload.HalfOpen:
		return b.bk[i].hc.Admit(now, overload.Request{Arrival: now}).Admitted()
	}
	return true
}

// pick chooses a replica for one attempt under the configured policy.
// The policy ranks candidates; backends in surviving zones come before
// backends in zones under correlated outage (at least half the zone
// ejected), each class in the policy's own ranking, so all three
// policies steer around a zone outage with their discipline intact.
// The first usable candidate (healthy, or half-open with a probe slot
// left) wins; the attempt's excluded replica is passed over unless it
// is the only candidate. Returns false when no backend can take the
// attempt.
//
// The ranking is never built: pick sets up the sequence (advancing
// round-robin's cursor, or spending p2c's two draws, exactly once and
// whatever happens next) and walks it through candidate until a
// backend is usable — almost always the first. The walk is the only
// place with side effects on the backends (usable spends half-open
// probe slots), and it visits candidates in ranking order and stops at
// the first success, so which backends are asked, and in which order,
// is a function of the ranking alone. Nothing the walk reads can
// change under it: usable never moves a breaker between states, so
// zone classes, routable and outstanding are fixed for the whole pick.
func (b *balancer) pick(a *attempt) (int, bool) {
	n := len(b.bk) // length of the candidate sequence
	switch b.cfg.Policy {
	case RoundRobin:
		b.seqStart = b.rrNext
		b.rrNext = (b.rrNext + 1) % n
	case LeastLoaded:
		for k := range b.seqOrder {
			b.seqOrder[k] = k
		}
		b.seqSorted = 0
	case P2CDeadline:
		// Candidates are sampled over routable (non-Open) backends
		// only, and always with exactly two draws: the second draw
		// ranges over m-1 slots and is shifted past the first, so no
		// rejection loop and no draw is ever spent on an ejected
		// backend. Ejection windows therefore never shift the seeded
		// stream's alignment and cross-policy runs stay comparable.
		n = len(b.routable)
		if n >= 2 {
			ii := int(b.rng.Intn(int64(n)))
			jj := int(b.rng.Intn(int64(n - 1)))
			if jj >= ii {
				jj++
			}
			i, j := b.routable[ii], b.routable[jj]
			remaining := a.reqArrival + DefaultDeadlineCycles - a.arrival
			di, dj := b.estDelay(i), b.estDelay(j)
			first, second := i, j
			if dj < di {
				first, second = j, i
				di, dj = dj, di
			}
			// Deadline awareness: if the lighter pick cannot fit the
			// remaining budget but the heavier one can (it is half-open
			// fresh, say), prefer the one that fits.
			if di > remaining && dj <= remaining {
				first, second = second, first
			}
			b.seqFirst, b.seqSecond = first, second
			b.seqLo, b.seqHi = min(ii, jj), max(ii, jj)
		} else if n == 1 {
			b.seqFirst = b.routable[0]
		}
	}
	for _, failing := range [2]bool{false, true} {
		for k := 0; k < n; k++ {
			i := b.candidate(k)
			if b.zoneDown(b.zoneOf[i]) != failing {
				continue
			}
			if i == int(a.exclude) && n > 1 {
				continue
			}
			if b.usable(i, a.arrival) {
				return i, true
			}
		}
	}
	return 0, false
}

// candidate returns entry k of the current pick's policy ranking,
// doing only the work that entry needs.
func (b *balancer) candidate(k int) int {
	switch b.cfg.Policy {
	case RoundRobin:
		return (b.seqStart + k) % len(b.bk)
	case LeastLoaded:
		// Selection sort by outstanding, one step per new entry: step s
		// swaps the first least-loaded backend of seqOrder[s:] into
		// place (n is small, and the first entry is nearly always the
		// last one asked for).
		for ; b.seqSorted <= k; b.seqSorted++ {
			s := b.seqSorted
			best := s
			for j := s + 1; j < len(b.seqOrder); j++ {
				if b.bk[b.seqOrder[j]].outstanding < b.bk[b.seqOrder[best]].outstanding {
					best = j
				}
			}
			b.seqOrder[s], b.seqOrder[best] = b.seqOrder[best], b.seqOrder[s]
		}
		return b.seqOrder[k]
	}
	// p2c: the two sampled backends, then the other routable ones in
	// index order.
	switch k {
	case 0:
		return b.seqFirst
	case 1:
		return b.seqSecond
	}
	k -= 2
	if k >= b.seqLo {
		k++
	}
	if k >= b.seqHi {
		k++
	}
	return b.routable[k]
}

// noteRouted records one attempt handed to backend i.
func (b *balancer) noteRouted(i int) { b.bk[i].outstanding++ }

// noteOutcome returns one attempt's slot and, while the backend is
// half-open, feeds the real outcome to the health breaker (the
// bounded re-admission probes).
func (b *balancer) noteOutcome(o *outcome, now int64) {
	i := int(o.att.replica)
	b.bk[i].outstanding--
	if b.bk[i].hc.BreakerState() == overload.HalfOpen {
		b.bk[i].hc.Observe(now, o.at-o.att.arrival, o.status == stFailed)
	}
}

func (b *balancer) fill(res *Result) {
	res.Probes = b.probes
	res.ProbeFailures = b.probeFailures
	res.TenantRejected = b.tenantRejected
	res.LBUnrouted = b.unrouted
	res.Migrated = b.migrated
	res.MigrationFailed = b.migrationFailed
	for i := range b.bk {
		res.PerReplica[i].Ejections = b.bk[i].ejections
		res.PerReplica[i].Readmissions = b.bk[i].readmits
		res.Ejections += b.bk[i].ejections
		res.Readmissions += b.bk[i].readmits
	}
	for i, n := range b.tenantRejects {
		res.PerTenant[i].Rejected = n
	}
}
