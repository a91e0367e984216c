// Package ciruntime is the libci support library of §2: handler
// registration (Table 2), the probe decision logic of Table 3
// (call_handlers / update_nextint), nested disable/enable, and the
// single-handler fast path. One Runtime instance serves one thread —
// compiler-interrupt state is thread-local by design.
//
// The runtime is driven by probe callbacks that the VM invokes when it
// executes the corresponding probe instructions: the IR and CI-Cycles
// probes as an untaken check (ProbeIRDue, ProbeCyclesDue) followed,
// when it passes, by the taken half (FireDueIR, FireDueCycles), and the
// event probes as one call (ProbeEvent, ProbeEventCycles). "now"
// arguments are virtual cycle timestamps supplied by the caller.
package ciruntime

import "math"

// Handler is a Compiler Interrupt handler. It receives an approximation
// of the IR instructions executed since its previous invocation (for
// event-based designs, the event count).
type Handler func(irSinceLast uint64)

// DefaultIRPerCycle is the heuristic IR-to-cycle ratio of §4 (footnote
// 3): 4 LLVM IR per cycle.
const DefaultIRPerCycle = 4.0

const never = math.MaxInt64

type handlerState struct {
	id             int
	fn             Handler
	intervalCycles int64
	intervalIR     int64
	eventThreshold int64
	disable        int
	lastFireIR     int64
	lastFireCycles int64
	lastFireEvents int64
	fires          int64
	intervals      []int64
	// gone marks a handler deregistered while a probe sweep may still
	// hold a reference to it; fire paths skip it.
	gone bool
	// quantum-policy state (see SetPolicy).
	policy   QuantumPolicy
	overruns int64
}

// Runtime holds the per-thread Compiler Interrupt state.
type Runtime struct {
	// IRPerCycle converts registered cycle intervals into IR-count
	// thresholds. Defaults to DefaultIRPerCycle; may be tuned per
	// application from a profiling run.
	IRPerCycle float64
	// EventsPerInterval converts a cycle interval into an event
	// threshold for CnB designs; the default assumes ~20 IR between
	// consecutive calls/back-edges.
	EventsPerInterval func(intervalCycles int64) int64
	// RecordIntervals enables per-handler inter-fire gap recording (in
	// cycles), used by the accuracy experiments.
	RecordIntervals bool

	inscount      int64
	events        int64
	lastNow       int64 // latest virtual-cycle timestamp seen by any probe
	nextIR        int64 // global gate for IR probes
	cycGateIR     int64 // IR gate for CI-Cycles probes
	globalDisable int
	nextID        int
	handlers      []*handlerState
	single        *handlerState // fast path when exactly one handler
}

// New returns an empty runtime with default tuning.
func New() *Runtime {
	rt := &Runtime{IRPerCycle: DefaultIRPerCycle}
	rt.EventsPerInterval = func(intervalCycles int64) int64 {
		n := int64(float64(intervalCycles) * rt.IRPerCycle / 20)
		if n < 1 {
			n = 1
		}
		return n
	}
	rt.nextIR = never
	rt.cycGateIR = never
	return rt
}

// RegisterCI registers fn to be called approximately every
// intervalCycles cycles and returns its ciid (§2, Table 2).
//
// All "since last fire" baselines start at registration time: the IR
// and event counters at their current values, and the cycle baseline
// at the latest probe timestamp the runtime has seen. The latter
// matters for Deregister + re-Register mid-run — without it a
// re-registered handler would inherit a stale zero baseline, fire
// immediately on the next cycle-based probe, and record a garbage
// first interval equal to absolute virtual time.
func (rt *Runtime) RegisterCI(intervalCycles int64, fn Handler) int {
	if intervalCycles <= 0 {
		intervalCycles = 1
	}
	rt.nextID++
	h := &handlerState{
		id:             rt.nextID,
		fn:             fn,
		intervalCycles: intervalCycles,
		intervalIR:     int64(float64(intervalCycles) * rt.IRPerCycle),
		eventThreshold: rt.EventsPerInterval(intervalCycles),
		lastFireIR:     rt.inscount,
		lastFireCycles: rt.lastNow,
		lastFireEvents: rt.events,
	}
	if h.intervalIR < 1 {
		h.intervalIR = 1
	}
	rt.handlers = append(rt.handlers, h)
	rt.refresh()
	return h.id
}

// Deregister removes the handler with the given ciid. Safe to call
// from inside a handler, including while other handlers of the same
// probe sweep are still pending: the removed handler is marked gone
// immediately (so it cannot fire later in the sweep) and the handler
// list is rebuilt into a fresh slice (so an in-flight iteration over
// the old list never observes compacted entries).
func (rt *Runtime) Deregister(ciid int) {
	out := make([]*handlerState, 0, len(rt.handlers))
	for _, h := range rt.handlers {
		if h.id != ciid {
			out = append(out, h)
		} else {
			h.gone = true
		}
	}
	rt.handlers = out
	rt.refresh()
}

// Disable increments the disable count for ciid; ciid 0 disables all
// handlers (§2.2). Disables nest: n Enable calls undo n Disable calls.
func (rt *Runtime) Disable(ciid int) {
	if ciid == 0 {
		rt.globalDisable++
		return
	}
	if h := rt.find(ciid); h != nil {
		h.disable++
	}
}

// Enable decrements the disable count for ciid (0 = the global count).
func (rt *Runtime) Enable(ciid int) {
	if ciid == 0 {
		if rt.globalDisable > 0 {
			rt.globalDisable--
		}
		return
	}
	if h := rt.find(ciid); h != nil && h.disable > 0 {
		h.disable--
	}
}

// Enabled reports whether the handler would currently fire.
func (rt *Runtime) Enabled(ciid int) bool {
	h := rt.find(ciid)
	return h != nil && h.disable == 0 && rt.globalDisable == 0
}

// SetPolicy installs a quantum policy for ciid: from the next fire
// on, every observed inter-fire gap is reported to the policy and the
// interval it returns becomes the handler's target. The interval in
// force at installation time becomes the policy's base. A nil policy
// removes adaptation, leaving the current interval in place.
func (rt *Runtime) SetPolicy(ciid int, p QuantumPolicy) {
	if h := rt.find(ciid); h != nil {
		h.policy = p
		if p != nil {
			p.Reset(h.intervalCycles)
		}
	}
}

// Overruns returns how many fires of ciid were classified as handler
// overruns (0 unless a quantum policy is installed).
func (rt *Runtime) Overruns(ciid int) int64 {
	if h := rt.find(ciid); h != nil {
		return h.overruns
	}
	return 0
}

// CurrentInterval returns the handler's present target interval in
// cycles — the registered value unless a quantum policy has moved it.
func (rt *Runtime) CurrentInterval(ciid int) int64 {
	if h := rt.find(ciid); h != nil {
		return h.intervalCycles
	}
	return 0
}

// adapt feeds one observed inter-fire gap to the installed policy and
// applies the interval it answers with.
func (h *handlerState) adapt(gap int64, irPerCycle float64) {
	if h.policy == nil || h.fires <= 1 { // first fire has no meaningful gap
		return
	}
	next, overrun := h.policy.Observe(gap, h.intervalCycles)
	if overrun {
		h.overruns++
	}
	if next != h.intervalCycles {
		h.setInterval(next, irPerCycle)
	}
}

// setInterval moves the handler's target interval, keeping the IR
// threshold in step.
func (h *handlerState) setInterval(intervalCycles int64, irPerCycle float64) {
	if intervalCycles < 1 {
		intervalCycles = 1
	}
	h.intervalCycles = intervalCycles
	h.intervalIR = int64(float64(intervalCycles) * irPerCycle)
	if h.intervalIR < 1 {
		h.intervalIR = 1
	}
}

// InsCount returns the thread's current instruction counter.
func (rt *Runtime) InsCount() int64 { return rt.inscount }

// Fires returns how many times the handler has been invoked.
func (rt *Runtime) Fires(ciid int) int64 {
	if h := rt.find(ciid); h != nil {
		return h.fires
	}
	return 0
}

// Intervals returns the recorded inter-fire gaps (cycles) for ciid;
// empty unless RecordIntervals was set before the run.
func (rt *Runtime) Intervals(ciid int) []int64 {
	if h := rt.find(ciid); h != nil {
		return h.intervals
	}
	return nil
}

func (rt *Runtime) find(ciid int) *handlerState {
	if rt.single != nil && rt.single.id == ciid {
		return rt.single
	}
	for _, h := range rt.handlers {
		if h.id == ciid {
			return h
		}
	}
	return nil
}

// refresh recomputes the fast path and the global IR gate
// (update_nextint in Table 3).
func (rt *Runtime) refresh() {
	rt.single = nil
	if len(rt.handlers) == 1 {
		rt.single = rt.handlers[0]
	}
	next := int64(never)
	for _, h := range rt.handlers {
		if n := h.lastFireIR + h.intervalIR; n < next {
			next = n
		}
	}
	rt.nextIR = next
	if rt.cycGateIR == never && len(rt.handlers) > 0 {
		rt.cycGateIR = rt.inscount
	}
	if len(rt.handlers) == 0 {
		rt.cycGateIR = never
	}
}

// fire invokes a handler, disabling it for the duration of its own
// execution (§2.2), and updates its bookkeeping.
func (rt *Runtime) fire(h *handlerState, now int64) {
	delta := rt.inscount - h.lastFireIR
	gap := now - h.lastFireCycles
	h.lastFireIR = rt.inscount
	h.lastFireCycles = now
	h.lastFireEvents = rt.events
	h.fires++
	h.adapt(gap, rt.IRPerCycle)
	if rt.RecordIntervals {
		h.intervals = append(h.intervals, gap)
	}
	h.disable++
	h.fn(uint64(delta))
	h.disable--
}

// FireAll fires every handler that is currently eligible (registered,
// not deregistered, not disabled individually or globally), regardless
// of cadence state — the forced-delivery primitive behind the VM's
// OnProbe schedule driver. Baselines update exactly as for a cadence
// fire, so a forced fire resets the handler's "since last" deltas and
// records an interval like any other. Returns how many handlers fired;
// 0 when delivery is infeasible at this point (e.g. inside a
// ci_disable region), which is what makes disabled regions invisible
// to the interleaving explorer's site enumeration.
func (rt *Runtime) FireAll(now int64) int {
	rt.lastNow = now
	if rt.globalDisable != 0 {
		return 0
	}
	fired := 0
	for _, h := range rt.handlers {
		if h.disable == 0 && !h.gone {
			rt.fire(h, now)
			fired++
		}
	}
	if fired > 0 {
		rt.refresh()
	}
	return fired
}

// CanFire reports whether FireAll would deliver at least one handler
// right now — the feasibility predicate for forced-fire sites.
func (rt *Runtime) CanFire() bool {
	if rt.globalDisable != 0 {
		return false
	}
	for _, h := range rt.handlers {
		if h.disable == 0 && !h.gone {
			return true
		}
	}
	return false
}

// ProbeIR is the pure-IR probe of Table 3: advance the counter by inc
// and fire any handlers that are due. Returns the number of handlers
// fired.
func (rt *Runtime) ProbeIR(inc int64, now int64) int {
	if !rt.ProbeIRDue(inc, now) {
		return 0
	}
	return rt.FireDueIR(now)
}

// ProbeIRDue is the untaken-probe fast path of ProbeIR, split out so a
// compiled dispatch loop can inline it: advance the IR counter, stamp
// the clock, and report whether the global gate passed. When it
// returns true the caller must invoke FireDueIR to run the taken half
// (fire sweep + gate recomputation); calling ProbeIRDue alone on a due
// probe would leave the gate stale.
func (rt *Runtime) ProbeIRDue(inc int64, now int64) bool {
	rt.inscount += inc
	rt.lastNow = now
	return rt.inscount > rt.nextIR
}

// FireDueIR is the taken half of ProbeIR: fire every handler whose IR
// interval elapsed and recompute the global gate. The gate refresh runs
// even when nothing fires (disabled handlers, global disable) — that is
// what re-arms nextIR after a gate passage, exactly as ProbeIR always
// did.
func (rt *Runtime) FireDueIR(now int64) int {
	fired := 0
	if rt.globalDisable == 0 {
		if h := rt.single; h != nil { // fast path (footnote 1)
			if h.disable == 0 && !h.gone && rt.inscount-h.lastFireIR >= h.intervalIR {
				rt.fire(h, now)
				fired = 1
			}
		} else {
			for _, h := range rt.handlers {
				if h.disable == 0 && !h.gone && rt.inscount-h.lastFireIR >= h.intervalIR {
					rt.fire(h, now)
					fired++
				}
			}
		}
	}
	rt.refresh()
	return fired
}

// ProbeCyclesDue is the untaken half of the CI-Cycles probe (§4), in
// which the IR count gates a cycle-counter read and a handler fires
// only when its measured cycle interval has elapsed: advance the IR
// counter, stamp the clock, and report whether the IR gate for the
// next cycle-counter read passed. On true the caller must invoke
// FireDueCycles for the taken half.
func (rt *Runtime) ProbeCyclesDue(inc int64, now int64) bool {
	rt.inscount += inc
	rt.lastNow = now
	return rt.inscount >= rt.cycGateIR
}

// FireDueCycles is the taken half of the CI-Cycles probe: perform the
// cycle read, fire handlers past their cycle interval, and re-aim the
// IR gate at roughly half the minimum remaining interval. It returns
// how many cycle-counter reads were performed and how many handlers
// fired (for VM cost accounting).
func (rt *Runtime) FireDueCycles(now int64) (reads, fired int) {
	reads = 1
	minRemaining := int64(never)
	if rt.globalDisable == 0 {
		for _, h := range rt.handlers {
			if h.disable != 0 || h.gone {
				continue
			}
			elapsed := now - h.lastFireCycles
			if elapsed >= h.intervalCycles {
				rt.fire(h, now)
				fired++
				if h.intervalCycles < minRemaining {
					minRemaining = h.intervalCycles
				}
			} else if rem := h.intervalCycles - elapsed; rem < minRemaining {
				minRemaining = rem
			}
		}
	} else {
		for _, h := range rt.handlers {
			if h.intervalCycles < minRemaining {
				minRemaining = h.intervalCycles
			}
		}
	}
	// Check again after roughly half the remaining time, in IR.
	if minRemaining == never {
		rt.cycGateIR = never
	} else {
		step := int64(float64(minRemaining) * rt.IRPerCycle / 2)
		if step < 1 {
			step = 1
		}
		rt.cycGateIR = rt.inscount + step
	}
	rt.refresh()
	return reads, fired
}

// ProbeEvent is the CnB probe: count one event (a call or back-edge)
// and fire handlers whose event threshold has been reached.
func (rt *Runtime) ProbeEvent(weight int64, now int64) int {
	rt.events += weight
	rt.inscount += weight
	rt.lastNow = now
	fired := 0
	if rt.globalDisable != 0 {
		return 0
	}
	for _, h := range rt.handlers {
		if h.disable == 0 && !h.gone && rt.events-h.lastFireEvents >= h.eventThreshold {
			rt.fire(h, now)
			fired++
		}
	}
	return fired
}

// ProbeEventCycles is the CnB-Cycles probe: read the cycle counter on
// every event and fire handlers past their cycle interval.
func (rt *Runtime) ProbeEventCycles(now int64) (reads, fired int) {
	rt.events++
	rt.inscount++
	rt.lastNow = now
	reads = 1
	if rt.globalDisable != 0 {
		return reads, 0
	}
	for _, h := range rt.handlers {
		if h.disable == 0 && !h.gone && now-h.lastFireCycles >= h.intervalCycles {
			rt.fire(h, now)
			fired++
		}
	}
	return reads, fired
}
