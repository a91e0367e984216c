package fleet

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/overload"
)

// attemptKind classifies an attempt within its request.
type attemptKind int8

const (
	kindFirst attemptKind = iota
	kindRetry
	kindHedge
)

// attempt is one routed try of a request. Attempts are created at
// barriers and sit in exactly one replica's inbox, queue or outbox
// until they settle.
type attempt struct {
	id         int64
	req        reqHandle
	arrival    int64 // attempt send time
	reqArrival int64 // original request arrival (deadline base)
	demand     int64 // service demand in cycles
	tenant     int32
	replica    int32 // set at routing
	exclude    int32 // replica to avoid (hedges shun their primary); -1 = none
	kind       attemptKind
}

// status is an attempt's terminal state.
type status int8

const (
	stServed status = iota
	stRejected
	stExpired
	stFailed // crash-killed or refused while the replica was down
	stCancelled
)

// outcome is one attempt's terminal record, produced by a replica (or
// by the balancer for unrouted attempts) and settled by the clients.
type outcome struct {
	att    attempt
	at     int64
	status status
}

// replica is one CI-polled server: a single serving core with an
// overload-controller admission plane, polled every
// PollIntervalCycles, subject to seeded crash and gray-failure
// windows. The barrier reads its state only between steps.
type replica struct {
	id   int
	zone int
	cfg  Config
	ctrl *overload.Controller
	inj  *faults.Injector

	inbox   []attempt
	cancels []int64
	outbox  []outcome

	q         queue[attempt] // admitted, not yet started
	qDemand   int64          // sum of queued demands
	cur       attempt
	busy      bool
	busyUntil int64

	// migrateOut parks queued-but-unstarted attempts a crash diverted
	// (when Config.Migrate is on) until the next barrier's migration
	// phase drains them. The barrier also appends an ejected
	// replica's queue here before re-routing.
	migrateOut []attempt

	nextPoll int64

	// fault windows: next onset timestamps (-1 = none pending).
	nextCrashAt int64
	crashDown   int64
	downUntil   int64
	nextGrayAt  int64
	grayDur     int64
	grayFactor  float64
	grayUntil   int64

	// correlated zone outage windows, shared read-only with the zone's
	// other replicas and consumed via private cursors.
	zoneCrash      []zoneWindow
	zoneGray       []zoneWindow
	zcIdx, zgIdx   int
	zoneGrayUntil  int64
	zoneGrayFactor float64

	crashes, graySlows     int64
	zoneCrashes, zoneGrays int64
	refused                int64
	crashKilled            int64
	// admitted-but-never-started attempts removed from the queue by a
	// crash, a hedge cancellation, or a migration drain; they feed the
	// overload plane's admission identity alongside the still-queued
	// count.
	killedNotStarted    int64
	cancelledNotStarted int64
	migratedNotStarted  int64
	migratedOut         int64
}

func newReplica(id, zone int, cfg Config, inj *faults.Injector, zoneCrash, zoneGray []zoneWindow) *replica {
	r := &replica{
		id:        id,
		zone:      zone,
		cfg:       cfg,
		inj:       inj,
		zoneCrash: zoneCrash,
		zoneGray:  zoneGray,
		ctrl: overload.New(&overload.Config{
			Name:           fmt.Sprintf("fleet/replica%d", id),
			DeadlineCycles: DefaultDeadlineCycles,
			// The balancer's per-backend health breaker owns ejection;
			// a second breaker inside the replica would fight it.
			Breaker: overload.BreakerConfig{Disabled: true},
		}),
		nextCrashAt: -1,
		nextGrayAt:  -1,
		grayFactor:  1,
	}
	if gap, down, ok := r.inj.NextCrash(); ok {
		r.nextCrashAt, r.crashDown = gap, down
	}
	if gap, dur, factor, ok := r.inj.NextGraySlow(); ok {
		r.nextGrayAt, r.grayDur, r.grayFactor = gap, dur, factor
	}
	return r
}

// isDown reports whether the replica is crashed at time t (read by
// the balancer's health probes at barriers).
func (r *replica) isDown(t int64) bool { return t < r.downUntil }

// oldestSojourn is the queue-delay signal at time t: how long the
// oldest queued attempt has waited (0 with an empty queue).
func (r *replica) oldestSojourn(t int64) int64 {
	if r.q.len() == 0 {
		return 0
	}
	return t - r.q.live()[0].arrival
}

// inFlight counts admitted attempts not yet terminal, including work
// parked for migration that never reached a barrier.
func (r *replica) inFlight() int64 {
	n := int64(r.q.len() + len(r.migrateOut))
	if r.busy {
		n++
	}
	return n
}

// step runs the replica over [t0, t1): applies pending cancels,
// admits inbox arrivals in time order, and serves the queue, all
// interleaved with crash onsets, gray-failure onsets and control
// polls in strict event order.
func (r *replica) step(t0, t1 int64) {
	for _, id := range r.cancels {
		live := r.q.live()
		for i := range live {
			if live[i].id == id {
				r.qDemand -= live[i].demand
				r.cancelledNotStarted++
				r.emit(outcome{att: live[i], at: t0, status: stCancelled})
				r.q.remove(i)
				break
			}
		}
	}
	r.cancels = r.cancels[:0]

	for i := range r.inbox {
		a := &r.inbox[i]
		at := a.arrival
		if at < t0 {
			at = t0
		}
		r.advance(at)
		r.admit(a, at)
	}
	r.inbox = r.inbox[:0]
	r.advance(t1)
}

// admit takes one arrival's admission decision at time at.
func (r *replica) admit(a *attempt, at int64) {
	if r.isDown(at) {
		r.refused++
		r.emit(outcome{att: *a, at: at, status: stFailed})
		return
	}
	est := r.qDemand + a.demand
	if r.busy {
		est += r.busyUntil - at
	}
	v := r.ctrl.Admit(at, overload.Request{
		Arrival:        a.reqArrival,
		EstDelayCycles: est,
		Prio:           overload.PriorityOf(a.id),
	})
	if !v.Admitted() {
		r.emit(outcome{att: *a, at: at, status: stRejected})
		return
	}
	r.q.push(*a)
	r.qDemand += a.demand
	r.startNext(at)
}

// advance plays out all events strictly before t: completions, crash
// onsets, gray onsets, and control polls, in time order.
func (r *replica) advance(t int64) {
	for {
		ev := t
		kind := 0 // 0 none, 1 completion, 2 crash, 3 gray, 4 poll, 5 zone crash, 6 zone gray
		if r.busy && r.busyUntil < ev {
			ev, kind = r.busyUntil, 1
		}
		if r.nextCrashAt >= 0 && r.nextCrashAt < ev {
			ev, kind = r.nextCrashAt, 2
		}
		if r.nextGrayAt >= 0 && r.nextGrayAt < ev {
			ev, kind = r.nextGrayAt, 3
		}
		if r.zcIdx < len(r.zoneCrash) && r.zoneCrash[r.zcIdx].at < ev {
			ev, kind = r.zoneCrash[r.zcIdx].at, 5
		}
		if r.zgIdx < len(r.zoneGray) && r.zoneGray[r.zgIdx].at < ev {
			ev, kind = r.zoneGray[r.zgIdx].at, 6
		}
		if r.nextPoll < ev {
			ev, kind = r.nextPoll, 4
		}
		switch kind {
		case 0:
			return
		case 1:
			r.emit(outcome{att: r.cur, at: r.busyUntil, status: stServed})
			r.ctrl.Observe(r.busyUntil, r.busyUntil-r.cur.arrival, false)
			r.busy = false
			r.startNext(r.busyUntil)
		case 2:
			r.crash(ev)
		case 3:
			r.graySlows++
			r.grayUntil = ev + r.grayDur
			if gap, dur, factor, ok := r.inj.NextGraySlow(); ok {
				r.nextGrayAt, r.grayDur, r.grayFactor = r.grayUntil+gap, dur, factor
			} else {
				r.nextGrayAt = -1
			}
		case 4:
			r.ctrl.Poll(ev, r.oldestSojourn(ev))
			r.nextPoll = ev + PollIntervalCycles
		case 5:
			w := r.zoneCrash[r.zcIdx]
			r.zcIdx++
			r.zoneCrashes++
			r.failover(ev, ev+w.dur)
		case 6:
			w := r.zoneGray[r.zgIdx]
			r.zgIdx++
			r.zoneGrays++
			if until := ev + w.dur; until > r.zoneGrayUntil {
				r.zoneGrayUntil = until
			}
			r.zoneGrayFactor = w.factor
		}
	}
}

// crash is a per-replica crash onset: shared failover handling, then
// the next onset is scheduled past recovery from the injector.
func (r *replica) crash(at int64) {
	r.crashes++
	r.failover(at, at+r.crashDown)
	if gap, down, ok := r.inj.NextCrash(); ok {
		r.nextCrashAt, r.crashDown = r.downUntil+gap, down
	} else {
		r.nextCrashAt = -1
	}
}

// failover handles a crash instant (replica class or zone class): the
// in-service attempt always dies at the crash (explicitly accounted,
// never silently lost); queued-but-unstarted attempts either die with
// it or — with migration on — park in migrateOut for the next
// barrier's drain. The replica goes down until at least `until`
// (overlapping windows extend, never shorten, the outage).
func (r *replica) failover(at, until int64) {
	if r.busy {
		r.emit(outcome{att: r.cur, at: at, status: stFailed})
		r.ctrl.Observe(at, at-r.cur.arrival, true)
		r.crashKilled++
		r.busy = false
	}
	if r.cfg.Migrate {
		r.migrateOut = append(r.migrateOut, r.q.live()...)
	} else {
		for _, a := range r.q.live() {
			r.emit(outcome{att: a, at: at, status: stFailed})
		}
		r.crashKilled += int64(r.q.len())
		r.killedNotStarted += int64(r.q.len())
	}
	r.q.reset()
	r.qDemand = 0

	if until > r.downUntil {
		r.downUntil = until
	}
	// The restarted process polls fresh from recovery.
	r.nextPoll = r.downUntil + PollIntervalCycles
}

// startNext begins service of the queue head at time now, expiring
// dead-on-arrival work via the overload plane's deadline discipline.
func (r *replica) startNext(now int64) {
	for !r.busy && r.q.len() > 0 {
		a := r.q.pop()
		r.qDemand -= a.demand
		if !r.ctrl.StartOrExpire(now, a.reqArrival+DefaultDeadlineCycles, PollIntervalCycles) {
			r.emit(outcome{att: a, at: now, status: stExpired})
			continue
		}
		d := a.demand
		if now < r.grayUntil {
			d = int64(float64(d) * r.grayFactor)
		}
		// An overlapping correlated zone slowdown compounds with the
		// replica's own gray window.
		if now < r.zoneGrayUntil {
			d = int64(float64(d) * r.zoneGrayFactor)
		}
		r.cur = a
		r.busy = true
		r.busyUntil = now + d
	}
}

func (r *replica) emit(o outcome) { r.outbox = append(r.outbox, o) }

// stats summarizes the replica for the Result.
func (r *replica) stats() ReplicaStats {
	s := r.ctrl.Snapshot()
	return ReplicaStats{
		Zone:           r.zone,
		Admitted:       s.Admitted,
		Served:         s.Completed,
		Expired:        s.Expired,
		Rejected:       s.Rejected + s.Shed,
		Refused:        r.refused,
		Crashes:        r.crashes,
		CrashKilled:    r.crashKilled,
		GraySlows:      r.graySlows,
		ZoneCrashes:    r.zoneCrashes,
		ZoneGrays:      r.zoneGrays,
		MigratedOut:    r.migratedOut,
		StrandedQueued: r.killedNotStarted,
	}
}

// checkInvariants runs the overload plane's accounting oracle with
// the replica's independent count of admitted-never-started attempts:
// still queued (or parked for migration) at run end, killed unstarted
// by a crash, cancelled unstarted by a hedge twin, or drained off by
// migration.
func (r *replica) checkInvariants() error {
	return r.ctrl.Invariants(int64(r.q.len()+len(r.migrateOut)) +
		r.killedNotStarted + r.cancelledNotStarted + r.migratedNotStarted)
}
