package fleet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/overload"
	"repro/internal/stats"
)

// pickRef is the eager pick this package shipped before the candidate
// sequence became lazy, kept verbatim (scratch slices made local, the
// routable list scanned instead of maintained) as the reference
// TestPickMatchesReference drives the lazy one against: it builds the
// policy's whole ranking, partitions it by zone class, then walks it.
func (b *balancer) pickRef(a *attempt) (int, bool) {
	n := len(b.bk)
	order := make([]int, 0, n)
	switch b.cfg.Policy {
	case RoundRobin:
		for k := 0; k < n; k++ {
			order = append(order, (b.rrNext+k)%n)
		}
		b.rrNext = (b.rrNext + 1) % n
	case LeastLoaded:
		for k := 0; k < n; k++ {
			order = append(order, k)
		}
		// stable selection sort by outstanding (n is small)
		for i := 0; i < len(order); i++ {
			best := i
			for j := i + 1; j < len(order); j++ {
				if b.bk[order[j]].outstanding < b.bk[order[best]].outstanding {
					best = j
				}
			}
			order[i], order[best] = order[best], order[i]
		}
	case P2CDeadline:
		var routable []int
		for k := 0; k < n; k++ {
			if b.bk[k].hc.BreakerState() != overload.Open {
				routable = append(routable, k)
			}
		}
		if m := len(routable); m >= 2 {
			ii := int(b.rng.Intn(int64(m)))
			jj := int(b.rng.Intn(int64(m - 1)))
			if jj >= ii {
				jj++
			}
			i, j := routable[ii], routable[jj]
			remaining := a.reqArrival + DefaultDeadlineCycles - a.arrival
			di, dj := b.estDelay(i), b.estDelay(j)
			first, second := i, j
			if dj < di {
				first, second = j, i
				di, dj = dj, di
			}
			if di > remaining && dj <= remaining {
				first, second = second, first
			}
			order = append(order, first, second)
			for _, k := range routable {
				if k != i && k != j {
					order = append(order, k)
				}
			}
		} else if m == 1 {
			order = append(order, routable[0])
		}
	}
	if b.cfg.Zones > 1 {
		order = b.preferSurvivingZonesRef(order)
	}
	for _, i := range order {
		if i == int(a.exclude) && len(order) > 1 {
			continue
		}
		if b.usable(i, a.arrival) {
			return i, true
		}
	}
	return 0, false
}

func (b *balancer) preferSurvivingZonesRef(order []int) []int {
	var healthy, failing []int
	for _, i := range order {
		if b.zoneDown(b.zoneOf[i]) {
			failing = append(failing, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	if len(healthy) == 0 || len(failing) == 0 {
		return order
	}
	copy(order, healthy)
	copy(order[len(healthy):], failing)
	return order
}

// orderRef is the barrier's old ordering step: one sort.Slice of
// the epoch's concatenated attempts by (arrival, id).
func orderRef(due []attempt) []attempt {
	due = slices.Clone(due)
	sort.Slice(due, func(i, j int) bool {
		if due[i].arrival != due[j].arrival {
			return due[i].arrival < due[j].arrival
		}
		return due[i].id < due[j].id
	})
	return due
}

// TestPickMatchesReference runs the lazy pick and pickRef on twin
// balancers through seeded random histories — probes that trip, cool
// down, half-open and close breakers, probe slots spent out of band,
// shuffled outstanding counts, overridden zone-outage counts — and
// requires, pick for pick, the same chosen backend and ok, the same
// round-robin cursor, the same number of RNG draws, and the same
// admission tallies and breaker state on every backend (a half-open
// backend's tallies count exactly the probe slots usable spent on it).
func TestPickMatchesReference(t *testing.T) {
	const wantPicks = 24_000
	rng := rand.New(rand.NewSource(23))
	var picks, unrouted, sawHalfOpen, sawOpen, spentSlot, refusedSlot, zoneSplit, exclUnroutable int
	for world := 0; picks < wantPicks; world++ {
		cfg := Config{
			Replicas: []int{1, 2, 3, 8, 8, 12}[rng.Intn(6)],
			Policy:   Policy(world % 3),
			Zones:    []int{1, 4}[rng.Intn(2)],
			Seed:     uint64(world),
		}.withDefaults()
		ref, got := newBalancer(cfg), newBalancer(cfg)
		n := cfg.Replicas
		failProb := make([]float64, n)
		for i := range failProb {
			failProb[i] = []float64{0, 0, 0.5, 1}[rng.Intn(4)]
		}
		both := func(f func(b *balancer)) { f(ref); f(got) }
		now := int64(0)
		for step := 0; step < 120; step++ {
			now += 1 + rng.Int63n(4*HealthIntervalCycles)
			if step%40 == 39 {
				for i := range failProb { // moods change: recoveries and new failures
					failProb[i] = []float64{0, 0, 0.5, 1}[rng.Intn(4)]
				}
			}
			for i := 0; i < n; i++ {
				failed := rng.Float64() < failProb[i]
				lat := rng.Int63n(1000)
				out := rng.Int63n(5) // narrow range: least-loaded ties
				slots := 0
				if rng.Intn(4) == 0 {
					slots = rng.Intn(3)
				}
				both(func(b *balancer) {
					b.bk[i].hc.Observe(now, lat, failed)
					b.bk[i].hc.Poll(now, lat)
					b.bk[i].outstanding = out
					for k := 0; k < slots && b.bk[i].hc.BreakerState() == overload.HalfOpen; k++ {
						b.bk[i].hc.Admit(now, overload.Request{Arrival: now})
					}
				})
			}
			// Exclude nothing, a routable backend, or an ejected one.
			var open, routable []int
			for i := 0; i < n; i++ {
				switch ref.bk[i].hc.BreakerState() {
				case overload.Open:
					open = append(open, i)
				case overload.HalfOpen:
					sawHalfOpen++
					routable = append(routable, i)
				default:
					routable = append(routable, i)
				}
			}
			exclude := -1
			switch k := rng.Intn(3); {
			case k == 1 && len(routable) > 0:
				exclude = routable[rng.Intn(len(routable))]
			case k == 2 && len(open) > 0:
				exclude = open[rng.Intn(len(open))]
				exclUnroutable++
			}
			if len(open) > 0 {
				sawOpen++
			}
			// Every third pick sees arbitrary zone-outage counts.
			savedZoneOpen := slices.Clone(ref.zoneOpen)
			if step%3 == 0 {
				for z := range ref.zoneOpen {
					v := rng.Intn(ref.zoneSize[z] + 1)
					both(func(b *balancer) { b.zoneOpen[z] = v })
				}
			}
			if down := ref.zoneDown(0); slices.ContainsFunc(ref.zoneOf, func(z int) bool { return ref.zoneDown(z) != down }) {
				zoneSplit++
			}
			before := make([]overload.Snapshot, n)
			for i := range before {
				before[i] = ref.bk[i].hc.Snapshot()
			}

			a := attempt{exclude: int32(exclude), arrival: now, reqArrival: now - rng.Int63n(2*DefaultDeadlineCycles)}
			ra, ga := a, a
			wantR, wantOK := ref.pickRef(&ra)
			gotR, gotOK := got.pick(&ga)
			picks++

			if gotR != wantR || gotOK != wantOK {
				t.Fatalf("world %d step %d (%v, %d replicas, %d zones, exclude %d): pick = (%d, %t), reference (%d, %t)",
					world, step, cfg.Policy, n, cfg.Zones, exclude, gotR, gotOK, wantR, wantOK)
			}
			if got.rrNext != ref.rrNext {
				t.Fatalf("world %d step %d: round-robin cursor %d, reference %d", world, step, got.rrNext, ref.rrNext)
			}
			if g, w := got.rng.Uint64(), ref.rng.Uint64(); g != w {
				t.Fatalf("world %d step %d (%v): pick consumed a different number of RNG draws", world, step, cfg.Policy)
			}
			for i := 0; i < n; i++ {
				gs, ws := got.bk[i].hc.Snapshot(), ref.bk[i].hc.Snapshot()
				if gs != ws {
					t.Fatalf("world %d step %d: backend %d probe accounting diverges:\n got  %+v\n want %+v", world, step, i, gs, ws)
				}
				if ws.Admitted != before[i].Admitted {
					spentSlot++
				}
				if ws.RejectedBreaker != before[i].RejectedBreaker {
					refusedSlot++ // the walk went on past this backend
				}
			}
			if !slices.Equal(got.routable, routable) {
				t.Fatalf("world %d step %d: maintained routable list %v, scan says %v", world, step, got.routable, routable)
			}
			if !wantOK {
				unrouted++
			}
			both(func(b *balancer) { copy(b.zoneOpen, savedZoneOpen) })
		}
	}
	// The history generator must actually reach the states the lazy
	// walk could get wrong.
	for name, n := range map[string]int{
		"unrouted picks": unrouted, "half-open backends": sawHalfOpen,
		"picks with an ejected backend": sawOpen, "probe slots spent by pick": spentSlot,
		"exhausted half-open backends pick walked past": refusedSlot,
		"picks with both zone classes":                  zoneSplit, "ejected excludes": exclUnroutable,
	} {
		if n < 50 {
			t.Errorf("only %d %s in %d picks; the generator no longer covers that case", n, name, picks)
		}
	}
}

// TestMergedMatchesSort checks the batch's k-way merge against
// orderRef on synthetic batches: many short runs, heavy duplication of
// send times across and within runs, empty runs.
func TestMergedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var b batch
	for trial := 0; trial < 3000; trial++ {
		b.reset()
		ids := rng.Perm(400)
		for run, runs := 0, rng.Intn(12); run < runs; run++ {
			n := rng.Intn(20)
			as := make([]attempt, n)
			for i := range as {
				as[i] = attempt{arrival: rng.Int63n(8), id: int64(ids[0] + 1)}
				ids = ids[1:]
			}
			slices.SortFunc(as, func(x, y attempt) int {
				if before(&x, &y) {
					return -1
				}
				return 1
			})
			b.due = append(b.due, as...)
			b.endRun()
		}
		want := orderRef(b.due)
		order := b.merged()
		if len(order) != len(want) {
			t.Fatalf("trial %d: merged %d of %d attempts", trial, len(order), len(want))
		}
		for k, i := range order {
			if b.due[i] != want[k] {
				t.Fatalf("trial %d: position %d is attempt %d@%d, sort.Slice says %d@%d",
					trial, k, b.due[i].id, b.due[i].arrival, want[k].id, want[k].arrival)
			}
		}
	}
}

// TestEpochOrderMatchesReference drives the three real producers —
// arrivals with catch-up duplicates, the retry heap with retries to be
// clamped, the hedge queue — and requires the merged order to be what
// the old code got from concatenating its three lists (retries popped
// in send-time order and clamped below the epoch start) and sorting.
func TestEpochOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var clamped, dupArrivals, hedged int
	for trial := 0; trial < 2000; trial++ {
		cfg := Config{
			Tenants: 1 + rng.Intn(8), Replicas: 1 + rng.Intn(16), Seed: uint64(trial),
			LoadFactor: 0.5 + rng.Float64(), HedgeDelayCycles: 1,
			MisbehavingTenant: rng.Intn(3) - 1,
			// The trial steps at most five epochs; a short horizon keeps
			// newClients from presizing full-length latency lists.
			HorizonCycles: 5 * EpochCycles,
		}.withDefaults()
		cl := newClients(cfg)
		cl.hedgeBudget = float64(rng.Intn(30))
		var b batch

		// Epoch 0 sends first attempts, so the hedge queue and the
		// ring have something in flight.
		cl.arrivals(&b, 0, EpochCycles)
		for i := range b.due {
			a := &b.due[i]
			cl.noteAttempt(a)
			cl.bindReplica(a.req, a.id, rng.Intn(cfg.Replicas))
			if rng.Intn(3) == 0 { // some complete before their hedge is due
				cl.settle(&outcome{att: *a, at: a.arrival + 1, status: stServed})
			}
		}

		// A later epoch: skipped epochs leave stale arrival clocks
		// (catch-up duplicates at the epoch start).
		t0 := int64(1+rng.Intn(3)) * EpochCycles
		t1 := t0 + EpochCycles
		var refRetries []attempt
		for i, n := 0, rng.Intn(40); i < n; i++ {
			cl.nextAttID++
			a := attempt{id: cl.nextAttID, kind: kindRetry, arrival: t0 - 2*EpochCycles + rng.Int63n(4*EpochCycles)}
			if rng.Intn(4) == 0 {
				a.arrival = t0 - int64(rng.Intn(2)) // on and just below the clamp boundary
			}
			cl.retryQ.push(a)
		}
		// The old dueRetries: pop in (send time, id) order, clamp.
		for _, a := range orderRef(cl.retryQ) {
			if a.arrival < t1 {
				if a.arrival < t0 {
					a.arrival = t0
					clamped++
				}
				refRetries = append(refRetries, a)
			}
		}

		b.reset()
		cl.arrivals(&b, t0, t1)
		nArr := len(b.due)
		cl.dueRetries(&b, t1)
		nRetry := len(b.due) - nArr
		cl.dueHedges(&b, t0, 1)
		hedged += len(b.due) - nArr - nRetry
		for i := 1; i < nArr; i++ {
			if b.due[i].arrival == b.due[i-1].arrival {
				dupArrivals++
			}
		}
		if nRetry != len(refRetries) {
			t.Fatalf("trial %d: %d retries due, the old pop loop takes %d", trial, nRetry, len(refRetries))
		}

		ref := slices.Clone(b.due[:nArr])
		ref = append(ref, refRetries...)
		ref = append(ref, b.due[nArr+nRetry:]...)
		want := orderRef(ref)
		for k, i := range b.merged() {
			if b.due[i] != want[k] {
				t.Fatalf("trial %d: position %d is attempt %d@%d (kind %d), reference %d@%d (kind %d)", trial, k,
					b.due[i].id, b.due[i].arrival, b.due[i].kind, want[k].id, want[k].arrival, want[k].kind)
			}
		}
	}
	if clamped < 1000 || dupArrivals < 1000 || hedged < 1000 {
		t.Errorf("generator too tame: %d clamped retries, %d duplicate arrivals, %d hedges", clamped, dupArrivals, hedged)
	}
}

// mergeSorted is the merge the result pass used before the cluster
// tails were read off the tenants' lists by rank, kept verbatim: it
// merges ascending lists into one ascending slice, consuming the lists
// slice (not the lists).
func mergeSorted(lists [][]int64) []int64 {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	out := make([]int64, 0, n)
	for len(out) < n {
		best := -1
		for i, l := range lists {
			if len(l) > 0 && (best < 0 || l[0] < lists[best][0]) {
				best = i
			}
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
	}
	return out
}

// TailsRef is that result pass's tail computation over the tenants'
// latency lists: each list sorted, the sorted lists merged, every tail
// read off the merge with PercentileSorted. Only the tail fields of the
// Result it returns are set. It and RunLatencies are exported for
// TestTailsMatchReference, which drives them on the benchmark's shapes
// from package fleet_test (package fleet cannot import the experiments
// package that builds them).
func TailsRef(lats [][]int64) *Result {
	res := &Result{}
	var lists [][]int64
	for _, l := range lats {
		l = slices.Clone(l)
		slices.Sort(l)
		var ts TenantStats
		if len(l) > 0 {
			ts.P99Us = float64(stats.PercentileSorted(l, 99)) / CyclesPerUs
			ts.P999Us = float64(stats.PercentileSorted(l, 99.9)) / CyclesPerUs
			lists = append(lists, l)
		}
		res.PerTenant = append(res.PerTenant, ts)
	}
	if all := mergeSorted(lists); len(all) > 0 {
		res.P50Us = float64(stats.PercentileSorted(all, 50)) / CyclesPerUs
		res.P99Us = float64(stats.PercentileSorted(all, 99)) / CyclesPerUs
		res.P999Us = float64(stats.PercentileSorted(all, 99.9)) / CyclesPerUs
		res.MaxUs = float64(all[len(all)-1]) / CyclesPerUs
	}
	return res
}

// RunLatencies is Run, also returning a copy of each tenant's latency
// list as the run recorded it, before the result pass sorts it.
func RunLatencies(cfg Config) (*Result, [][]int64) {
	c := cfg.withDefaults()
	f := newFleetState(c)
	f.run()
	var lats [][]int64
	for _, acc := range f.cl.perTenant {
		lats = append(lats, slices.Clone(acc.lats))
	}
	return f.result(c), lats
}
