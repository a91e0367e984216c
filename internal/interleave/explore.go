package interleave

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/sim"
)

// The Explore stage: iterative context bounding over fire-site
// choices. The enumeration run counts main-context probe sites and
// marks which are feasible (a fire could be delivered — ci_disable
// regions are infeasible by construction, because the runtime's
// FireAll respects the same eligibility rules as cadence fires). Then
// the module is re-run once per schedule: every feasible single site
// (context bound 1), then every multiset of 2..ContextBound sites.
// Each delivered run is compared against the fire-free baseline;
// equal observable outcomes at every placement prove the handler
// commutes with main.
//
// Forced fires can perturb control flow: a schedule planned from the
// enumeration run's site ordinals may become undeliverable when an
// earlier fire changes main's path (fewer probe executions, or the
// target site landing inside a disable region). Such runs are counted
// as Undelivered and excluded from equivalence — standard practice in
// stateless model checking without replay trees — but their traces
// still feed race detection.

// explore enumerates, runs the baseline, shards the schedules over the
// engine pool, and fills rep. Worker-local accumulator folds are
// merged in schedule index order, so the report is byte-identical at
// any worker count.
func explore(prog *core.Program, eng *engine.Engine, opts Options, rep *Report, acc *accumulator) error {
	enum := execute(prog, opts, execEnumerate, nil)
	if err := enum.fault(); err != nil {
		return fmt.Errorf("interleave: enumeration run: %w", err)
	}
	rep.TotalSites = enum.Sites
	rep.FeasibleSites = len(enum.Feasible)

	base := execute(prog, opts, execSchedule, nil)
	if err := base.fault(); err != nil {
		return fmt.Errorf("interleave: baseline run: %w", err)
	}
	if opts.CheckRun != nil {
		if err := opts.CheckRun(base); err != nil {
			return fmt.Errorf("interleave: fire-free baseline violates CheckRun: %w", err)
		}
	}
	acc.fold(base)
	baseDig := digestOf(base)

	schedules, sampled, truncated := buildSchedules(enum.Feasible, opts)
	rep.Schedules = len(schedules)
	rep.Sampled = sampled
	rep.PairTruncated = truncated

	type cell struct {
		acc          *accumulator
		delivered    bool
		inconclusive bool
		detail       string
	}
	results, errs := engine.Map(eng.Pool, len(schedules), func(i int) (cell, error) {
		r := execute(prog, opts, execSchedule, schedules[i])
		c := cell{acc: newAccumulator()}
		if r.inconclusive() {
			c.inconclusive = true
			return c, nil
		}
		if err := r.fault(); err != nil {
			// A forced placement that crashes the program is itself a
			// finding: no cadence could be proven to avoid it.
			c.detail = "run failed: " + err.Error()
			return c, nil
		}
		c.acc.fold(r)
		if r.Fires != len(schedules[i]) {
			return c, nil // undelivered: detection evidence only
		}
		c.delivered = true
		c.detail = compare(baseDig, digestOf(r), opts)
		if c.detail == "" && opts.CheckRun != nil {
			if err := opts.CheckRun(r); err != nil {
				c.detail = "invariant: " + err.Error()
			}
		}
		return c, nil
	})
	if err := engine.FirstError(errs); err != nil {
		return err
	}
	for i, c := range results {
		if c.acc != nil {
			acc.merge(c.acc)
		}
		switch {
		case c.inconclusive:
			rep.Inconclusive++
		case c.detail != "":
			rep.NonCommute = append(rep.NonCommute, NonCommute{Schedule: schedules[i], Detail: c.detail})
		case !c.delivered:
			rep.Undelivered++
		}
	}
	return nil
}

// buildSchedules turns the feasible-site list into the schedule set:
// every single site, then every multiset of 2..ContextBound sites drawn
// from the (possibly stride-thinned) pair-site subset. sampled counts
// schedules dropped by MaxSchedules; truncated counts feasible sites
// excluded from multi-fire enumeration. Both are reported — the
// verifier never caps coverage silently.
func buildSchedules(feasible []int64, opts Options) (schedules [][]int64, sampled, truncated int) {
	singles := feasible
	if len(singles) > opts.MaxSchedules {
		sampled += len(singles) - opts.MaxSchedules
		singles = strideSample(singles, opts.MaxSchedules)
	}
	for _, s := range singles {
		schedules = append(schedules, []int64{s})
	}
	if opts.ContextBound < 2 || len(feasible) == 0 {
		return
	}
	pairSites := feasible
	if len(pairSites) > opts.MaxPairSites {
		truncated = len(pairSites) - opts.MaxPairSites
		pairSites = strideSample(pairSites, opts.MaxPairSites)
	}
	var multi [][]int64
	for k := 2; k <= opts.ContextBound; k++ {
		combosWithRepetition(pairSites, k, func(c []int64) {
			multi = append(multi, append([]int64(nil), c...))
		})
	}
	if len(multi) > opts.MaxSchedules {
		// Deterministic thinning: seeded Fisher–Yates, keep the head,
		// restore canonical order so downstream output is stable.
		rng := sim.NewRNG(scheduleSeed)
		for i := len(multi) - 1; i > 0; i-- {
			j := rng.Intn(int64(i + 1))
			multi[i], multi[j] = multi[j], multi[i]
		}
		sampled += len(multi) - opts.MaxSchedules
		multi = multi[:opts.MaxSchedules]
		sort.Slice(multi, func(i, j int) bool { return scheduleLess(multi[i], multi[j]) })
	}
	schedules = append(schedules, multi...)
	return
}

// scheduleLess orders schedules by length, then lexicographically.
func scheduleLess(a, b []int64) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// combosWithRepetition emits every non-decreasing k-tuple over sites.
// The buffer passed to emit is reused between calls.
func combosWithRepetition(sites []int64, k int, emit func([]int64)) {
	cur := make([]int64, k)
	var rec func(pos, start int)
	rec = func(pos, start int) {
		if pos == k {
			emit(cur)
			return
		}
		for i := start; i < len(sites); i++ {
			cur[pos] = sites[i]
			rec(pos+1, i)
		}
	}
	rec(0, 0)
}

// strideSample picks m elements evenly across xs, always including the
// first and last. Only called with len(xs) > m >= 2, where the stride
// exceeds one and the picked indices are strictly increasing.
func strideSample(xs []int64, m int) []int64 {
	if m >= len(xs) {
		return xs
	}
	if m < 2 {
		m = 2
	}
	out := make([]int64, 0, m)
	n := len(xs)
	for i := 0; i < m; i++ {
		out = append(out, xs[i*(n-1)/(m-1)])
	}
	return out
}

// runDigest is the observable outcome of one run, for commutativity
// comparison: the return value, main's plain-store stream in order,
// main's atomic-add deltas summed per address (a commutative
// reduction compares by sum, not by order-dependent committed values),
// and final memory restricted to words no handler epoch wrote.
type runDigest struct {
	ret      int64
	stores   []int64 // (addr, val) pairs, main-epoch plain stores in order
	addSums  map[int64]int64
	mem      []int64
	hWritten map[int64]bool
}

func digestOf(r *Run) *runDigest {
	d := &runDigest{ret: r.Ret, addSums: make(map[int64]int64), mem: r.Mem, hWritten: handlerWritten(r)}
	for i := range r.Accesses {
		a := &r.Accesses[i]
		if a.Epoch != 0 {
			continue
		}
		switch a.Kind {
		case KindStore:
			d.stores = append(d.stores, a.Addr, a.Val)
		case KindAdd:
			d.addSums[a.Addr] += a.Add
		}
	}
	return d
}

// compare reports the first divergence between a delivered run and the
// fire-free baseline, or "" when equivalent. Details are deterministic
// (sorted iteration) so reports are byte-identical across runs.
func compare(base, got *runDigest, opts Options) string {
	if got.ret != base.ret {
		return fmt.Sprintf("return value %d, baseline %d", got.ret, base.ret)
	}
	if opts.RetOnly {
		return ""
	}
	if len(got.stores) != len(base.stores) {
		return fmt.Sprintf("main stores: %d, baseline %d", len(got.stores)/2, len(base.stores)/2)
	}
	for i := 0; i < len(got.stores); i += 2 {
		if got.stores[i] != base.stores[i] || got.stores[i+1] != base.stores[i+1] {
			return fmt.Sprintf("main store #%d: mem[%d]=%d, baseline mem[%d]=%d",
				i/2, got.stores[i], got.stores[i+1], base.stores[i], base.stores[i+1])
		}
	}
	for _, addr := range sortedKeys(got.addSums, base.addSums) {
		if got.addSums[addr] != base.addSums[addr] {
			return fmt.Sprintf("main atomic delta at mem[%d]: %d, baseline %d",
				addr, got.addSums[addr], base.addSums[addr])
		}
	}
	n := len(got.mem)
	if len(base.mem) < n {
		n = len(base.mem)
	}
	for addr := 0; addr < n; addr++ {
		if got.hWritten[int64(addr)] || base.hWritten[int64(addr)] {
			continue
		}
		if got.mem[addr] != base.mem[addr] {
			return fmt.Sprintf("final mem[%d] = %d, baseline %d", addr, got.mem[addr], base.mem[addr])
		}
	}
	return ""
}

func sortedKeys(ms ...map[int64]int64) []int64 {
	seen := make(map[int64]bool)
	var out []int64
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
