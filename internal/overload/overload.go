// Package overload is the deterministic overload-control plane of the
// CI-polled server applications (mtcp, shenango, ffwd). The paper's
// headline property — frequent polling on a shared thread makes
// sub-interval control loops essentially free — is what this package
// exploits: every control decision (token refill, CoDel state, breaker
// transitions, brownout level) is actuated from the CI probe handler's
// poll, so the plane reacts within one polling interval of a load
// change without any dedicated control thread.
//
// One *Controller guards one serving app instance. It provides, in
// admission order:
//
//  1. circuit breaking — a rolling error/latency window (its p99 at
//     stats.LogHist resolution, from a few inline samples or a spill
//     histogram) trips the breaker open; after a cooldown it half-opens
//     and admits a bounded number of probe requests before closing;
//  2. deadline propagation with early rejection — every request carries
//     deadline = arrival + DeadlineCycles, and admission rejects a
//     request as doomed when the estimated queue delay already overruns
//     its deadline (cheaper to refuse now than to serve a dead answer);
//  3. CoDel-style queueing control — sustained queue delay above the
//     target enters a dropping state that sheds requests on the classic
//     inverse-sqrt schedule until the queue drains below target;
//  4. token-bucket rate admission — a hard ceiling on the admitted
//     request rate;
//  5. brownout shedding — a queue-delay-derived brownout level that the
//     apps translate into degradation actions (shenango parks the miner
//     and then sheds low-priority requests, mtcp tightens its adaptive
//     polling interval and defers retransmit-heavy connections, ffwd
//     routes saturation overflow through its MCS fallback path).
//
// Everything is deterministic: the controller consumes only the virtual
// timestamps its callers pass in and keeps no randomness, so two runs
// with equal seeds and plans produce bit-identical admission sequences.
// Like *obs.Scope, a nil *Controller is the disabled plane: every
// method is nil-receiver safe and admits everything, so call sites need
// no enabled-branches.
package overload

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Priority classifies a request for brownout shedding. Apps tag
// requests deterministically (see PriorityOf).
type Priority int

const (
	// High requests are shed only by rejection (rate/CoDel/deadline).
	High Priority = iota
	// Low requests are additionally shed at brownout shedLowPrioLevel.
	Low
)

// shedLowPrioLevel is the brownout level at which Low-priority requests
// are shed (shenango's level 1 parks the miner first).
const shedLowPrioLevel = 2

// PriorityOf deterministically classes the n-th request of a stream:
// every fourth request is Low, modelling the background/low-urgency
// share of a production mix without a random stream.
func PriorityOf(n int64) Priority {
	if n%4 == 3 {
		return Low
	}
	return High
}

// Verdict is one admission decision.
type Verdict int

const (
	Admit Verdict = iota
	RejectBreaker
	RejectDoomed
	RejectCoDel
	RejectRate
	ShedLowPrio
)

var verdictNames = [...]string{
	Admit: "admit", RejectBreaker: "reject-breaker", RejectDoomed: "reject-doomed",
	RejectCoDel: "reject-codel", RejectRate: "reject-rate", ShedLowPrio: "shed-lowprio",
}

// String names the verdict.
func (v Verdict) String() string { return verdictNames[v] }

// Admitted reports whether the request may be served.
func (v Verdict) Admitted() bool { return v == Admit }

// Request is one admission candidate.
type Request struct {
	// Arrival is the request's arrival timestamp; its deadline is
	// Arrival + Config.DeadlineCycles.
	Arrival int64
	// EstDelayCycles is the caller's estimate of the delay from now
	// until the request would complete service — queue wait plus
	// service. Admission rejects the request as doomed when
	// now + EstDelayCycles already overruns the deadline.
	EstDelayCycles int64
	// Prio selects brownout shedding eligibility.
	Prio Priority
}

// Config tunes one controller. The zero value of every field takes the
// documented default; a nil *Config disables the plane entirely.
type Config struct {
	// Name prefixes the obs counters/histograms ("overload" if empty).
	Name string
	// RatePerCycle is the token-bucket refill rate in requests per
	// cycle (requests/s ÷ 2.6e9). 0 disables rate admission.
	RatePerCycle float64
	// Burst is the bucket capacity in tokens (default 64).
	Burst float64
	// DeadlineCycles is the per-request deadline measured from arrival.
	// 0 disables deadline propagation and doomed rejection.
	DeadlineCycles int64
	// TargetDelayCycles is the CoDel queue-delay target (default
	// DeadlineCycles/4, or 26_000 when deadlines are off).
	TargetDelayCycles int64
	// WindowCycles is both the CoDel interval and the breaker's rolling
	// window length (default 1_300_000 ≈ 0.5 ms).
	WindowCycles int64
	// Breaker tunes the circuit breaker.
	Breaker BreakerConfig
	// OnStateChange observes breaker transitions; mtcp uses it to snap
	// its adaptive polling interval back to base when the breaker trips.
	OnStateChange func(from, to State, now int64)
	// Obs receives admitted/rejected/shed counters, the queue-delay
	// histogram and breaker state spans (nil = silent).
	Obs *obs.Scope
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Name == "" {
		out.Name = "overload"
	}
	if out.Burst <= 0 {
		out.Burst = 64
	}
	if out.TargetDelayCycles <= 0 {
		if out.DeadlineCycles > 0 {
			out.TargetDelayCycles = out.DeadlineCycles / 4
		} else {
			out.TargetDelayCycles = 26_000
		}
	}
	if out.WindowCycles <= 0 {
		out.WindowCycles = 1_300_000
	}
	out.Breaker = out.Breaker.withDefaults()
	return out
}

// Snapshot is the controller's cumulative accounting, embedded in the
// apps' Result structs (all value fields, so Results stay comparable
// with ==).
type Snapshot struct {
	// Admitted/Rejected/Shed partition admission outcomes; Offered is
	// their sum. Expired counts admitted requests dropped at service
	// start because their deadline had already passed; Deferred counts
	// brownout deferrals (mtcp's retransmit-heavy connections).
	Admitted, Rejected, Shed, Expired, Deferred int64
	// Per-cause rejection tallies (Rejected is their sum).
	RejectedRate, RejectedDoomed, RejectedCoDel, RejectedBreaker int64
	// Started counts admitted requests that began service; Completed
	// and Failed count Observe outcomes.
	Started, Completed, Failed int64
	// BreakerTrips counts Closed/HalfOpen → Open transitions;
	// FinalBreakerState is the state at snapshot time.
	BreakerTrips      int64
	FinalBreakerState State
	// MaxBrownout is the highest brownout level reached.
	MaxBrownout int
}

// Offered is the total number of admission decisions taken.
func (s Snapshot) Offered() int64 { return s.Admitted + s.Rejected + s.Shed }

// RejectFrac is the fraction of offered requests refused (rejected or
// shed); 0 when nothing was offered.
func (s Snapshot) RejectFrac() float64 {
	off := s.Offered()
	if off == 0 {
		return 0
	}
	return float64(s.Rejected+s.Shed) / float64(off)
}

// Controller is one app's overload-control plane. Nil is the disabled
// plane: every method no-ops and Admit admits.
type Controller struct {
	cfg   Config
	sc    *obs.Scope
	names obsNames

	snap Snapshot

	// token bucket
	tokens     float64
	lastRefill int64

	// CoDel state (the classic controller, driven from Admit's delay
	// estimates and Poll's queue-delay signal).
	firstAbove int64 // when delay first exceeded target (0 = below)
	dropping   bool
	dropNext   int64
	dropCount  int64

	// poll-period estimate (EWMA over Poll gaps), used by apps for
	// completion estimates.
	lastPoll   int64
	periodEst  int64
	havePeriod bool

	breaker breaker

	level int

	// invariant bookkeeping
	maxSlack     int64 // largest slack passed to StartOrExpire
	maxStartLate int64 // largest (start - deadline) among served requests
}

// obsNames holds every obs name the controller emits under, built once
// in New when there is a scope: the decision paths hand the scope a
// ready string, so with a nil scope (the usual case inside a fleet)
// they allocate nothing, and New builds nothing either.
type obsNames struct {
	queueDelay, brownoutTransitions, brownout string
	codelExits, expired, deferred             string
	breaker, breakerTrips                     string
	verdict                                   [len(verdictNames)]string
	breakerSpan                               [len(stateNames)]string
}

// New builds a controller, or returns the disabled nil controller when
// cfg is nil.
func New(cfg *Config) *Controller {
	if cfg == nil {
		return nil
	}
	c := &Controller{cfg: cfg.withDefaults()}
	c.sc = c.cfg.Obs
	if c.sc.Enabled() { // a nil scope never reads a name
		c.names = obsNames{
			queueDelay:          c.cfg.Name + "/queue_delay_cycles",
			brownoutTransitions: c.cfg.Name + "/brownout_transitions",
			brownout:            c.cfg.Name + "/brownout",
			codelExits:          c.cfg.Name + "/codel_exits",
			expired:             c.cfg.Name + "/expired",
			deferred:            c.cfg.Name + "/deferred",
			breaker:             c.cfg.Name + "/breaker",
			breakerTrips:        c.cfg.Name + "/breaker_trips",
		}
		for v, name := range verdictNames {
			c.names.verdict[v] = c.cfg.Name + "/" + name
		}
		for st, name := range stateNames {
			c.names.breakerSpan[st] = c.cfg.Name + "/breaker-" + name
		}
	}
	c.tokens = c.cfg.Burst
	c.breaker.cfg = c.cfg.Breaker
	return c
}

// Enabled reports whether the plane is active.
func (c *Controller) Enabled() bool { return c != nil }

// Snapshot returns the cumulative accounting.
func (c *Controller) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	s := c.snap
	s.FinalBreakerState = c.breaker.state
	return s
}

// BrownoutLevel returns the current brownout level (0 = normal).
func (c *Controller) BrownoutLevel() int {
	if c == nil {
		return 0
	}
	return c.level
}

// BreakerState returns the breaker's current state (Closed on a nil
// controller).
func (c *Controller) BreakerState() State {
	if c == nil {
		return Closed
	}
	return c.breaker.state
}

// PeriodEstCycles is the smoothed poll period (0 until two polls have
// been seen); apps add it to completion estimates for work finishing in
// a later poll.
func (c *Controller) PeriodEstCycles() int64 {
	if c == nil {
		return 0
	}
	return c.periodEst
}

// Poll is the control-loop tick, called from the CI probe handler (or
// the poll loop it hosts) once per polling interval. queueDelay is the
// instantaneous queue delay signal — the sojourn of the oldest queued
// request, or the backlog of queued work in cycles.
func (c *Controller) Poll(now, queueDelay int64) {
	if c == nil {
		return
	}
	if c.havePeriod {
		gap := now - c.lastPoll
		if c.periodEst == 0 {
			c.periodEst = gap
		} else {
			c.periodEst += (gap - c.periodEst) / 4 // EWMA, alpha 1/4
		}
	}
	c.havePeriod = true
	c.lastPoll = now

	c.sc.Observe(c.names.queueDelay, queueDelay)
	c.codelSignal(now, queueDelay)
	c.breakerTick(now)
	c.brownoutTick(queueDelay)
}

// brownoutTick derives the brownout level from the queue-delay signal
// and the breaker state, with half-threshold hysteresis on the way
// down so the level does not flap across polls.
func (c *Controller) brownoutTick(queueDelay int64) {
	target := c.cfg.TargetDelayCycles
	next := c.level
	switch {
	case c.breaker.state == Open || queueDelay > 6*target:
		next = 2
	case queueDelay > 2*target || c.dropping:
		if c.level < 1 {
			next = 1
		}
	case queueDelay <= target: // hysteresis: drop only when well clear
		if c.level == 2 && queueDelay <= 3*target {
			next = 1
		}
		if queueDelay <= target {
			next = 0
		}
	}
	if next != c.level {
		c.sc.Count(c.names.brownoutTransitions, 1)
		c.sc.Instant("overload", c.names.brownout, 0, c.lastPoll,
			obs.I("from", int64(c.level)), obs.I("to", int64(next)))
		c.level = next
	}
	if next > c.snap.MaxBrownout {
		c.snap.MaxBrownout = next
	}
}

// Admit takes one admission decision at virtual time now. Order:
// breaker, deadline (doomed), CoDel, token bucket, brownout shed. A nil
// controller admits everything.
func (c *Controller) Admit(now int64, rq Request) Verdict {
	if c == nil {
		return Admit
	}
	v := c.admit(now, rq)
	c.account(v)
	return v
}

func (c *Controller) admit(now int64, rq Request) Verdict {
	ok, probe := c.breaker.allow(c, now)
	if !ok {
		return RejectBreaker
	}
	if d := c.cfg.DeadlineCycles; d > 0 && now+rq.EstDelayCycles > rq.Arrival+d {
		return RejectDoomed
	}
	if c.codelDrop(now, rq.EstDelayCycles) {
		return RejectCoDel
	}
	// Half-open probes are the breaker's measurement traffic: they are
	// already bounded by HalfOpenProbes, so they bypass the token bucket
	// instead of double-charging it (see breaker.allow).
	if r := c.cfg.RatePerCycle; r > 0 && !probe {
		if dt := now - c.lastRefill; dt > 0 {
			c.tokens += float64(dt) * r
			if c.tokens > c.cfg.Burst {
				c.tokens = c.cfg.Burst
			}
			c.lastRefill = now
		}
		if c.tokens < 1 {
			return RejectRate
		}
		c.tokens--
	}
	if rq.Prio == Low && c.level >= shedLowPrioLevel {
		return ShedLowPrio
	}
	return Admit
}

func (c *Controller) account(v Verdict) {
	switch v {
	case Admit:
		c.snap.Admitted++
	case ShedLowPrio:
		c.snap.Shed++
	default:
		c.snap.Rejected++
		switch v {
		case RejectRate:
			c.snap.RejectedRate++
		case RejectDoomed:
			c.snap.RejectedDoomed++
		case RejectCoDel:
			c.snap.RejectedCoDel++
		case RejectBreaker:
			c.snap.RejectedBreaker++
		}
	}
	c.sc.Count(c.names.verdict[v], 1)
}

// codelSignal updates the CoDel state machine from the per-poll queue
// delay: dropping mode ends as soon as the delay sinks below target.
func (c *Controller) codelSignal(now, delay int64) {
	if delay < c.cfg.TargetDelayCycles {
		c.firstAbove = 0
		if c.dropping {
			c.dropping = false
			c.sc.Count(c.names.codelExits, 1)
		}
		return
	}
	if c.firstAbove == 0 {
		c.firstAbove = now + c.cfg.WindowCycles
	}
}

// codelDrop decides whether CoDel sheds this request: once the delay
// has stayed above target for a full window, requests are dropped on
// the inverse-sqrt schedule until the queue recovers.
func (c *Controller) codelDrop(now, estDelay int64) bool {
	if estDelay < c.cfg.TargetDelayCycles || c.firstAbove == 0 || now < c.firstAbove {
		return false
	}
	if !c.dropping {
		c.dropping = true
		c.dropCount = 0
		c.dropNext = now
	}
	if now < c.dropNext {
		return false
	}
	c.dropCount++
	c.dropNext = now + int64(float64(c.cfg.WindowCycles)/math.Sqrt(float64(c.dropCount)))
	return true
}

// StartOrExpire gates service start of an admitted request: serve when
// start is within deadline + slack (slack = the current poll interval,
// absorbing poll-boundary quantization), otherwise expire the request.
// This is what enforces the plane's core invariant — no admitted
// request ever begins service more than one poll interval past its
// propagated deadline; it is expired instead. Returns true to serve.
// Deadlines disabled (or a nil controller) always serve.
func (c *Controller) StartOrExpire(start, deadline, slack int64) bool {
	if c == nil {
		return true
	}
	if c.cfg.DeadlineCycles > 0 {
		if slack > c.maxSlack {
			c.maxSlack = slack
		}
		if start > deadline+slack {
			c.snap.Expired++
			c.breaker.observe(c, start, 0, true)
			c.sc.Count(c.names.expired, 1)
			return false
		}
		if late := start - deadline; late > c.maxStartLate {
			c.maxStartLate = late
		}
	}
	c.snap.Started++
	return true
}

// NoteDeferred records one brownout deferral (mtcp's retransmit-heavy
// connections).
func (c *Controller) NoteDeferred() {
	if c == nil {
		return
	}
	c.snap.Deferred++
	c.sc.Count(c.names.deferred, 1)
}

// Observe feeds one request outcome into the breaker's rolling window:
// its latency in cycles and whether it failed (timeout, abort, expiry).
func (c *Controller) Observe(now, latency int64, failed bool) {
	if c == nil {
		return
	}
	if failed {
		c.snap.Failed++
	} else {
		c.snap.Completed++
	}
	c.breaker.observe(c, now, latency, failed)
}

// Invariants is the sanitize-style oracle over the controller's
// accounting, checked after a run. inFlightNotStarted is the caller's
// independent count of admitted requests still queued unserved at run
// end.
func (c *Controller) Invariants(inFlightNotStarted int64) error {
	if c == nil {
		return nil
	}
	s := c.Snapshot()
	if got := s.Started + s.Expired + inFlightNotStarted; got != s.Admitted {
		return fmt.Errorf("overload: admission accounting broken: started=%d + expired=%d + inflight=%d != admitted=%d",
			s.Started, s.Expired, inFlightNotStarted, s.Admitted)
	}
	if sum := s.RejectedRate + s.RejectedDoomed + s.RejectedCoDel + s.RejectedBreaker; sum != s.Rejected {
		return fmt.Errorf("overload: rejection tallies %d do not sum to rejected=%d", sum, s.Rejected)
	}
	if c.maxStartLate > c.maxSlack {
		return fmt.Errorf("overload: deadline discipline broken: a served request started %d cycles past its deadline (max slack %d)",
			c.maxStartLate, c.maxSlack)
	}
	return nil
}

// SLO is the service-level objective the experiments and the soak
// harness assert as an invariant of an admission-enabled run.
type SLO struct {
	// P999Us bounds the tail latency of completed requests in
	// microseconds (0 = unchecked).
	P999Us float64
	// MaxRejectFrac bounds the refused fraction beyond the unavoidable
	// overload excess: at offered/capacity = m, a perfect controller
	// must refuse 1 - 1/m of requests; MaxRejectFrac is the tolerated
	// slop on top (0 = unchecked).
	MaxRejectFrac float64
}

// Check asserts the SLO against one run: its tail latency, refused
// fraction, and the unavoidable excess fraction max(0, 1 - cap/offered).
func (s SLO) Check(p999Us, rejectFrac, excessFrac float64) error {
	if excessFrac < 0 {
		excessFrac = 0
	}
	if s.P999Us > 0 && p999Us > s.P999Us {
		return fmt.Errorf("SLO: p99.9 %.1fµs exceeds bound %.1fµs", p999Us, s.P999Us)
	}
	if s.MaxRejectFrac > 0 && rejectFrac > excessFrac+s.MaxRejectFrac {
		return fmt.Errorf("SLO: reject fraction %.3f exceeds excess %.3f + tolerance %.3f",
			rejectFrac, excessFrac, s.MaxRejectFrac)
	}
	return nil
}
