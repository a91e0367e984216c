package fleet

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Bounded-Pareto service demand (cycles): xm=2500 (one polling
// interval of work), H=250_000, alpha=1.5 — heavy-tailed with
// analytic mean ~6756 cycles (meanDemandCycles).
const (
	paretoXm    = 2500.0
	paretoH     = 250_000.0
	paretoAlpha = 1.5
)

// paretoRatio is (xm/H)^alpha, the constant of the inverse CDF.
var paretoRatio = math.Pow(paretoXm/paretoH, paretoAlpha)

func paretoDemand(rng *sim.RNG) int64 {
	return paretoQuantile(1 - rng.Float64()*(1-paretoRatio))
}

// paretoQuantile is xm / w^(1/alpha), truncated: the demand at inverse
// CDF base w. With alpha = 1.5, w^(1/alpha) is cbrt(w*w), which is
// cheaper than math.Pow's Log and Exp. The two agree to within a few
// ulps, which moves the truncated demand only when the quotient lies
// next to an integer; there the draw takes math.Pow's quotient, so
// every demand is the one math.Pow gives.
func paretoQuantile(w float64) int64 {
	x := paretoXm / math.Cbrt(w*w)
	if nearInteger(x) {
		x = paretoXm / math.Pow(w, 1/paretoAlpha)
	}
	return int64(x)
}

// nearInteger reports whether x > 0 lies within x·1e-12 of an integer:
// thousands of ulps, far wider than cbrt's and Pow's errors.
func nearInteger(x float64) bool {
	f := x - math.Floor(x)
	return min(f, 1-f) < x*1e-12
}

// retryBackoffBase is the first-retry backoff (~50 µs), doubling per
// retry with a small deterministic jitter.
const retryBackoffBase = 130_000

// hedgeEntry tracks a first attempt awaiting its hedge trigger.
type hedgeEntry struct {
	sendTime int64
	req      reqHandle
}

type cancelMsg struct {
	replica int
	attID   int64
}

type tenantAcc struct {
	injected, served, servedLate, failed int64
	lats                                 []int64
	misbehaving                          bool
}

// clients is the open-loop multi-tenant population: per-tenant
// Poisson arrivals with bounded-Pareto demands, retry policies under
// a cluster retry budget, and hedging under a hedge budget. Only the
// barrier and collect touch it.
type clients struct {
	cfg  Config
	rngs []*sim.RNG
	next []int64   // next arrival time per tenant
	mean []float64 // mean inter-arrival per tenant (cycles)

	nextAttID int64
	reqs      reqSlab
	retryQ    retryHeap
	hedgeQ    queue[hedgeEntry]
	cancels   []cancelMsg
	overflow  *InflightOverflowError // the first one, if any

	retryBudget, hedgeBudget float64

	perTenant []tenantAcc

	injected, served, servedLate, failedPerm      int64
	attempts, retries, hedges                     int64
	attServed, attRejected, attExpired, attFailed int64
	attCancelled                                  int64
	hedgeDup, hedgeWins, retryDenied, hedgeDenied int64
}

// budgetCap bounds accumulated unused budget so bursts stay bounded;
// total withdrawals can never exceed total deposits regardless.
const budgetCap = 1000

func newClients(c Config) *clients {
	cl := &clients{
		cfg:       c,
		reqs:      newReqSlab(1024),
		perTenant: make([]tenantAcc, c.Tenants),
	}
	// Fair share: LoadFactor × cluster capacity, split evenly; the
	// misbehaving tenant offers misbehaveFactor times its share.
	totalPerCycle := c.LoadFactor * float64(c.Replicas) / meanDemandCycles
	share := totalPerCycle / float64(c.Tenants)
	for i := 0; i < c.Tenants; i++ {
		rate := share
		if i == c.MisbehavingTenant {
			rate *= misbehaveFactor
			cl.perTenant[i].misbehaving = true
		}
		cl.perTenant[i].lats = make([]int64, 0, expectedArrivals(c, rate))
		cl.rngs = append(cl.rngs, sim.NewRNG(c.Seed^uint64(0x74656e616e74)^uint64(i)<<32))
		cl.mean = append(cl.mean, 1/rate)
		cl.next = append(cl.next, cl.rngs[i].Exp(1/rate))
	}
	return cl
}

// arrivals appends every fresh request arriving in [t0, t1) to the
// batch, one run per tenant. A tenant's arrivals are generated in send
// order and take increasing ids, so each run is in `before` order;
// interleaving the tenants is the batch's merge.
func (cl *clients) arrivals(b *batch, t0, t1 int64) {
	for i := 0; i < cl.cfg.Tenants; i++ {
		for cl.next[i] < t1 {
			at := cl.next[i]
			cl.next[i] = at + cl.rngs[i].Exp(cl.mean[i])
			if at < t0 {
				at = t0 // catch-up after a long idle stretch
			}
			cl.nextAttID++
			d := paretoDemand(cl.rngs[i])
			b.due = append(b.due, attempt{
				id: cl.nextAttID, req: cl.reqs.add(at, d, int32(i)), tenant: int32(i),
				kind: kindFirst, exclude: -1, arrival: at, reqArrival: at, demand: d,
			})
		}
		b.endRun()
	}
}

// dueRetries pops every scheduled retry due before t1 into one run of
// the batch, clamping send times into the epoch that starts at t1 -
// EpochCycles. The heap yields send-time order; the clamped retries
// then all share the epoch start, so the head of the run (everything
// sent at the epoch start) is put in id order to make the run sorted.
func (cl *clients) dueRetries(b *batch, t1 int64) {
	t0 := t1 - EpochCycles
	first := len(b.due)
	atStart := first
	for len(cl.retryQ) > 0 && cl.retryQ[0].arrival < t1 {
		a := cl.retryQ.pop()
		if a.arrival <= t0 {
			a.arrival = t0
			atStart++
		}
		b.due = append(b.due, a)
	}
	slices.SortFunc(b.due[first:atStart], func(x, y attempt) int { return cmp.Compare(x.id, y.id) })
	b.endRun()
}

// dueHedges walks the hedge FIFO at time t: any first attempt
// outstanding longer than the hedge delay gets one hedge to a
// different replica, budget permitting. The hedges form one run: all
// sent at t, with increasing fresh ids.
func (cl *clients) dueHedges(b *batch, t, delay int64) {
	if delay <= 0 {
		return
	}
	for cl.hedgeQ.len() > 0 && cl.hedgeQ.live()[0].sendTime+delay <= t {
		e := cl.hedgeQ.pop()
		rq := cl.reqs.get(e.req)
		if rq == nil || rq.done || rq.hedged || rq.nOut == 0 {
			continue
		}
		if cl.hedgeBudget < 1 {
			cl.hedgeDenied++
			continue
		}
		cl.hedgeBudget--
		rq.hedged = true
		cl.nextAttID++
		b.due = append(b.due, attempt{
			id: cl.nextAttID, req: e.req, tenant: rq.tenant,
			kind: kindHedge, exclude: rq.outReplica[0],
			arrival: t, reqArrival: rq.arrival, demand: rq.demand,
		})
	}
	b.endRun()
}

// noteAttempt counts one attempt entering the system and registers it
// with its request.
func (cl *clients) noteAttempt(a *attempt) {
	cl.attempts++
	rq := cl.reqs.get(a.req)
	if a.kind != kindRetry {
		rq.live++ // retries were counted live when scheduled
	}
	if rq.nOut < maxInflight {
		rq.outID[rq.nOut], rq.outReplica[rq.nOut] = a.id, -1
		rq.nOut++
	} else if cl.overflow == nil {
		cl.overflow = &InflightOverflowError{ReqID: rq.id, AttemptID: a.id}
	}
	switch a.kind {
	case kindFirst:
		cl.injected++
		cl.perTenant[a.tenant].injected++
		cl.retryBudget = math.Min(cl.retryBudget+cl.cfg.RetryBudgetFrac, budgetCap)
		cl.hedgeBudget = math.Min(cl.hedgeBudget+hedgeBudgetFrac, budgetCap)
		if cl.cfg.HedgeDelayCycles > 0 {
			cl.hedgeQ.push(hedgeEntry{sendTime: a.arrival, req: a.req})
		}
	case kindRetry:
		cl.retries++
	case kindHedge:
		cl.hedges++
	}
}

// bindReplica records where an attempt was routed (for hedge
// cancellation).
func (cl *clients) bindReplica(h reqHandle, attID int64, replica int) {
	rq := cl.reqs.get(h)
	for i := 0; i < int(rq.nOut); i++ {
		if rq.outID[i] == attID {
			rq.outReplica[i] = int32(replica)
			return
		}
	}
}

// settle applies one terminal attempt outcome. It returns whether the
// request itself just completed, and the request latency in cycles
// (-1 for a permanent failure).
func (cl *clients) settle(o *outcome) (doneNow bool, lat int64) {
	rq := cl.reqs.get(o.att.req)
	rq.live--
	rq.dropOut(o.att.id)
	lat = -1
	switch o.status {
	case stServed:
		cl.attServed++
		if rq.done {
			cl.hedgeDup++
		} else {
			rq.done = true
			doneNow = true
			lat = o.at - rq.arrival
			acc := &cl.perTenant[rq.tenant]
			acc.lats = append(acc.lats, lat)
			if lat <= DefaultDeadlineCycles {
				cl.served++
				acc.served++
			} else {
				cl.servedLate++
				acc.servedLate++
			}
			if o.att.kind == kindHedge {
				cl.hedgeWins++
			}
			// First-wins cancellation of the twin attempt.
			for i := 0; i < int(rq.nOut); i++ {
				if r := rq.outReplica[i]; r >= 0 {
					cl.cancels = append(cl.cancels, cancelMsg{replica: int(r), attID: rq.outID[i]})
				}
			}
		}
	case stCancelled:
		cl.attCancelled++
	case stRejected, stExpired, stFailed:
		switch o.status {
		case stRejected:
			cl.attRejected++
		case stExpired:
			cl.attExpired++
		case stFailed:
			cl.attFailed++
		}
		if !rq.done {
			cl.maybeRetry(rq, o)
			if rq.live == 0 {
				rq.done = true
				doneNow = true
				cl.failedPerm++
				cl.perTenant[rq.tenant].failed++
			}
		}
	}
	if rq.done && rq.live == 0 {
		cl.reqs.release(o.att.req)
	}
	return doneNow, lat
}

// maybeRetry schedules one retry for a failed attempt when the
// per-request limit and the cluster retry budget allow it. The
// misbehaving tenant retries without backoff; everyone else backs off
// exponentially with deterministic jitter.
func (cl *clients) maybeRetry(rq *request, o *outcome) {
	if rq.retries >= maxRetries || cl.cfg.RetryBudgetFrac <= 0 {
		return
	}
	if cl.retryBudget < 1 {
		cl.retryDenied++
		return
	}
	cl.retryBudget--
	backoff := int64(0)
	if !cl.perTenant[rq.tenant].misbehaving {
		backoff = retryBackoffBase << uint(rq.retries)
		backoff += cl.rngs[rq.tenant].Intn(backoff / 2)
	}
	rq.retries++
	rq.live++ // stays live while the retry waits in the heap
	cl.nextAttID++
	cl.retryQ.push(attempt{
		id: cl.nextAttID, req: o.att.req, tenant: rq.tenant,
		kind: kindRetry, exclude: o.att.replica,
		arrival: o.at + backoff, reqArrival: rq.arrival, demand: rq.demand,
	})
}

// takeCancel removes a pending cancellation for the attempt, if one
// is queued, and reports whether it was found. The migration drain
// consults it so an attempt whose hedge twin already completed is
// cancelled at the source instead of re-routed — migration can never
// double-serve a request.
func (cl *clients) takeCancel(attID int64) bool {
	for i := range cl.cancels {
		if cl.cancels[i].attID == attID {
			cl.cancels = append(cl.cancels[:i], cl.cancels[i+1:]...)
			return true
		}
	}
	return false
}

// flushCancels delivers queued hedge cancellations into replica
// cancel boxes for the next step.
func (cl *clients) flushCancels(replicas []*replica) {
	for _, c := range cl.cancels {
		replicas[c.replica].cancels = append(replicas[c.replica].cancels, c.attID)
	}
	cl.cancels = cl.cancels[:0]
}

// expectedArrivals sizes a tenant's latency list once: its arrivals
// over every epoch that generates any (see arrivals) are Poisson with
// mean rate × that span, and the list gets room for four standard
// deviations above the mean. Only served requests are recorded, so the
// list almost never outgrows it; if it does, append still grows it.
func expectedArrivals(c Config, rate float64) int {
	epochs := (c.HorizonCycles + EpochCycles - 1) / EpochCycles
	mean := rate * float64(epochs*EpochCycles)
	return int(math.Ceil(mean + 4*math.Sqrt(mean)))
}

func (cl *clients) fill(res *Result) {
	res.Injected = cl.injected
	res.Served = cl.served
	res.ServedLate = cl.servedLate
	res.FailedPerm = cl.failedPerm
	res.Attempts = cl.attempts
	res.Retries = cl.retries
	res.Hedges = cl.hedges
	res.AttemptServed = cl.attServed
	res.AttemptRejected = cl.attRejected
	res.AttemptExpired = cl.attExpired
	res.AttemptFailed = cl.attFailed
	res.AttemptCancelled = cl.attCancelled
	res.HedgeDuplicates = cl.hedgeDup
	res.HedgeWins = cl.hedgeWins
	res.RetryDenied = cl.retryDenied
	res.HedgeDenied = cl.hedgeDenied
	// Each tenant's latencies are sorted once, in place, for its own
	// tails; the cluster-wide tails are read off those sorted lists by
	// rank, without merging them. One scratch list, as long as the
	// longest, serves every tenant's radix sort.
	longest := 0
	for i := range cl.perTenant {
		longest = max(longest, len(cl.perTenant[i].lats))
	}
	scratch := make([]int64, longest)
	lists := make([][]int64, 0, len(cl.perTenant))
	for i := range cl.perTenant {
		acc := &cl.perTenant[i]
		ts := TenantStats{
			Injected: acc.injected, Served: acc.served,
			ServedLate: acc.servedLate, Failed: acc.failed,
			Misbehaving: acc.misbehaving,
		}
		if len(acc.lats) > 0 {
			radixSort(acc.lats, scratch)
			ts.P99Us = float64(stats.PercentileSorted(acc.lats, 99)) / CyclesPerUs
			ts.P999Us = float64(stats.PercentileSorted(acc.lats, 99.9)) / CyclesPerUs
			lists = append(lists, acc.lats)
		}
		res.PerTenant = append(res.PerTenant, ts)
	}
	if len(lists) > 0 {
		res.P50Us = float64(stats.PercentileSortedLists(lists, 50)) / CyclesPerUs
		res.P99Us = float64(stats.PercentileSortedLists(lists, 99)) / CyclesPerUs
		res.P999Us = float64(stats.PercentileSortedLists(lists, 99.9)) / CyclesPerUs
		top := lists[0][len(lists[0])-1]
		for _, l := range lists[1:] {
			top = max(top, l[len(l)-1])
		}
		res.MaxUs = float64(top) / CyclesPerUs
	}
	if cl.overflow != nil {
		res.InvariantErrs = append(res.InvariantErrs, cl.overflow.Error())
	}
}

// radixBits is the digit width of radixSort: a 2048-entry count table
// fits in L1, and two passes cover every latency below 2^22 cycles
// (1.6 ms, past DefaultDeadlineCycles).
const radixBits = 11

// radixSort sorts xs ascending, as slices.Sort does, by least
// significant digit first: one counting pass and one scatter per
// radixBits digit, and only as many digits as the largest value has.
// scratch must be at least as long as xs. A negative value sends the
// whole list to slices.Sort.
func radixSort(xs, scratch []int64) {
	var top int64
	for _, v := range xs {
		if v < 0 {
			slices.Sort(xs)
			return
		}
		top |= v
	}
	src, dst := xs, scratch[:len(xs)]
	for shift := uint(0); shift < 64 && top>>shift != 0; shift += radixBits {
		var count [1 << radixBits]int
		for _, v := range src {
			count[v>>shift&(1<<radixBits-1)]++
		}
		at := 0
		for d, c := range count {
			count[d] = at
			at += c
		}
		for _, v := range src {
			d := v >> shift & (1<<radixBits - 1)
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if len(xs) > 0 && &src[0] != &xs[0] {
		copy(xs, src)
	}
}
