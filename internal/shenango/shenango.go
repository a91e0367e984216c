// Package shenango models the §5.2 experiment: Shenango's IOKernel —
// the dedicated core that polls the NIC, steers packets to worker
// cores and reallocates cores — compared against running the same
// IOKernel loop body as a Compiler Interrupt handler hosted inside a
// CPU-bound application (CPUMiner), and against plain pthreads/kernel
// networking.
//
// A memcached-like latency-sensitive service runs on worker cores with
// Poisson request arrivals; the figure-of-merit is the median and
// 99.9th-percentile request latency versus offered load, plus the hash
// rate the hosted miner achieves on the IOKernel core.
package shenango

import (
	"repro/internal/ci/ciruntime"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Kind selects the IOKernel / networking design.
type Kind int

const (
	// Dedicated is stock Shenango: the IOKernel busy-polls on its own
	// core (0% efficiency on that core).
	Dedicated Kind = iota
	// CIHosted runs the IOKernel loop body as a CI handler inside
	// CPUMiner on the same core.
	CIHosted
	// Pthreads is conventional kernel networking with a thread per
	// connection on dedicated cores.
	Pthreads
	// PthreadsShared is kernel networking with the service sharing its
	// cores with a batch job (swaptions).
	PthreadsShared
)

var kindNames = [...]string{
	Dedicated: "shenango", CIHosted: "shenango+CI",
	Pthreads: "pthreads", PthreadsShared: "pthreads+batch",
}

// String names the design as the paper's legend does.
func (k Kind) String() string { return kindNames[k] }

// Model constants (cycles at 2.6 GHz).
const (
	// dedicatedPollGap is the busy-poll iteration time of the stock
	// IOKernel.
	dedicatedPollGap   = 150
	dedicatedPollFixed = 100
	// ciPollFixed is the cost of one full IOKernel loop body when run
	// as a CI handler (queue scans + core-allocation check).
	ciPollFixed       = 2600
	ciHandlerInvoke   = 60
	perPacket         = 600    // steer one packet to/from a worker queue (incl. queue scans)
	serviceMean       = 1000   // memcached request service time (exponential)
	networkRTT        = 40000  // client <-> server wire round trip (~15 µs)
	kernelPerReq      = 9000   // pthreads: IRQ + socket syscalls per request
	kernelWakeMean    = 13000  // pthreads: scheduler wakeup latency (~5 µs)
	sharedQuantumMean = 650000 // batch job steals the core for ~0.25 ms
	// minerCIOverheadPct is the CPUMiner slowdown from CI
	// instrumentation.
	minerCIOverheadPct = 4
	// rejectPerPacket is the IOKernel cost of refusing one packet at
	// admission (a deadline/token check plus a cheap NACK, no steering
	// or queue scan) — the asymmetry that makes early rejection pay.
	rejectPerPacket = 50
)

// workers is the number of application worker cores.
const workers = 16

// Config parameterizes one run.
type Config struct {
	Kind Kind
	// IntervalCycles is the CI polling interval (CIHosted only).
	IntervalCycles int64
	// OfferedLoad is the request arrival rate in requests/second.
	OfferedLoad float64
	// DurationCycles is the simulated time (default 130M ≈ 50 ms).
	DurationCycles int64
	Seed           uint64
	// FaultPlan optionally injects worker-core stalls (the core is
	// stolen or wedged for ServerStallCycles at a mean gap of
	// ServerStallMeanGapCycles). The IOKernel detects a stalled worker
	// at steering time and re-steers packets to live workers.
	FaultPlan *faults.Plan
	// Obs, when enabled, receives IOKernel poll spans, steering
	// decisions and stall/re-steer counters on the "shenango" trace
	// category.
	Obs *obs.Scope
	// Overload optionally enables the overload-control plane, actuated
	// from the IOKernel poll (the CI handler for CIHosted): admission
	// with deadline propagation at steering time, deadline-gated
	// service start, and brownout that parks the hosted miner (polling
	// twice as often) before shedding low-priority requests. Nil keeps
	// the run bit-identical to the pre-overload model.
	Overload *overload.Config
	// Quantum, when non-nil, constructs the interval-control policy
	// for the hosted IOKernel poll (CIHosted only; see
	// ciruntime.QuantumPolicy): each poll's loop-body cost is observed
	// as the gap and the interval the policy returns becomes the next
	// polling period. Brownout halving applies on top of the policy
	// interval. Nil keeps the fixed interval (bit-identical runs).
	Quantum func() ciruntime.QuantumPolicy
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.DurationCycles <= 0 {
		out.DurationCycles = 130_000_000
	}
	if out.IntervalCycles <= 0 {
		out.IntervalCycles = 8000
	}
	if out.Seed == 0 {
		out.Seed = 7
	}
	if out.OfferedLoad <= 0 {
		out.OfferedLoad = 100e3
	}
	return out
}

// Result reports one run's metrics.
type Result struct {
	Kind           Kind
	IntervalCycles int64
	OfferedLoad    float64
	// AchievedLoad is the completed request rate (requests/s).
	AchievedLoad float64
	// MedianUs / P999Us are request latencies in microseconds.
	MedianUs, P999Us float64
	// MinerHashRate is the hosted miner's throughput on the IOKernel
	// core relative to an unmodified miner on a dedicated core
	// (CIHosted only; 0 for Dedicated, which burns the core).
	MinerHashRate float64
	// BatchShare is the fraction of worker-core capacity left to the
	// batch application (swaptions); the paper reports it identical
	// between the CI and dedicated IOKernels.
	BatchShare float64
	// Stalls counts injected worker-core stall events; ReSteers counts
	// packets the IOKernel steered away from a stalled worker it would
	// otherwise have picked.
	Stalls, ReSteers int64
	// Overruns counts polls the quantum policy classified as overruns;
	// FinalIntervalCycles is the policy interval at run end (the
	// configured interval when no policy is installed; CIHosted only).
	Overruns            int64
	FinalIntervalCycles int64
	// Overload is the admission plane's accounting (zero when the plane
	// is disabled).
	Overload overload.Snapshot
	// MinerShedFrac is the fraction of the run brownout kept the hosted
	// miner parked (CIHosted only).
	MinerShedFrac float64
}

type request struct {
	arrival int64
	seq     int64
}

type state struct {
	cfg Config
	eng *sim.Engine
	rng *sim.RNG

	ingress []request // packets waiting for the IOKernel to steer
	egress  []request // responses waiting to leave via the IOKernel

	workerFree []int64
	// stalledUntil[w] is the cycle at which an injected stall on worker
	// w ends; stallCount round-robins stall placement.
	stalledUntil []int64
	stallInj     *faults.Injector
	stallCount   int64
	stalls       int64
	reSteers     int64

	latencies []int64
	completed int64
	warmup    int64

	iokBusy    int64 // cycles the IOKernel consumed on its core
	workerBusy int64 // cycles worker cores spent serving requests

	ctl       *overload.Controller // nil = plane disabled
	deadline  int64                // Overload.DeadlineCycles (0 when off)
	seq       int64                // arrival counter for priority tagging
	minerShed int64                // cycles brownout kept the miner parked
	admitBuf  []request            // scratch for the per-poll admission pass

	// CIHosted adaptive polling state: the installed quantum policy
	// (nil = fixed interval) and the interval currently in force.
	quantum     ciruntime.QuantumPolicy
	curInterval int64
	overruns    int64
}

// Run simulates one configuration.
func Run(cfg Config) Result {
	r, _ := RunChecked(cfg)
	return r
}

// RunChecked is Run with a progress deadline on the event loop: a
// model bug or fault interaction that livelocks returns
// sim.ErrNoProgress (with partial metrics) instead of hanging.
func RunChecked(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	s := &state{
		cfg:          cfg,
		eng:          sim.NewEngine(),
		rng:          sim.NewRNG(cfg.Seed),
		workerFree:   make([]int64, workers),
		stalledUntil: make([]int64, workers),
		stallInj:     faults.New(cfg.FaultPlan, "shenango/worker"),
		warmup:       cfg.DurationCycles / 5,
	}
	s.curInterval = cfg.IntervalCycles
	if cfg.Quantum != nil && cfg.Kind == CIHosted {
		s.quantum = cfg.Quantum()
		s.quantum.Reset(cfg.IntervalCycles)
	}
	if cfg.Overload != nil {
		oc := *cfg.Overload
		if oc.Name == "" {
			oc.Name = "shenango/overload"
		}
		if oc.Obs == nil {
			oc.Obs = cfg.Obs
		}
		s.ctl = overload.New(&oc)
		s.deadline = oc.DeadlineCycles
	}
	interArrival := 2.6e9 / cfg.OfferedLoad
	var scheduleArrival func()
	scheduleArrival = func() {
		s.eng.After(s.rng.Exp(interArrival), func() {
			now := s.eng.Now()
			if cfg.Kind == Pthreads || cfg.Kind == PthreadsShared {
				s.kernelRequest(now)
			} else {
				s.ingress = append(s.ingress, request{arrival: now, seq: s.seq})
				s.seq++
			}
			scheduleArrival()
		})
	}
	scheduleArrival()
	if cfg.Kind == Dedicated || cfg.Kind == CIHosted {
		s.schedulePoll()
	}
	s.scheduleStall()
	_, err := s.eng.RunDeadline(cfg.DurationCycles, sim.Deadline{
		MaxEvents:   max(cfg.DurationCycles/10, 1_000_000),
		MaxSameTime: 1 << 17,
	})
	if err == nil {
		// Admitted packets are steered (served or expired) within the
		// same poll, so nothing admitted is ever left queued unstarted.
		err = s.ctl.Invariants(0)
	}
	return s.result(), err
}

// scheduleStall places the next injected worker-core stall: the chosen
// worker makes no progress for the stall's duration (its queue drains
// only afterwards). Workers are hit round-robin so every core sees
// stalls under a long enough run.
func (s *state) scheduleStall() {
	gap, dur, ok := s.stallInj.NextServerStall()
	if !ok {
		return
	}
	w := int(s.stallCount % int64(workers))
	s.stallCount++
	s.eng.After(gap, func() {
		now := s.eng.Now()
		until := now + dur
		if s.stalledUntil[w] < until {
			s.stalledUntil[w] = until
		}
		s.stalls++
		if sc := s.cfg.Obs; sc != nil {
			sc.Instant("shenango", "worker-stall", int32(w), now, obs.I("dur", dur))
			sc.Count("shenango/stalls", 1)
		}
		s.scheduleStall()
	})
}

// schedulePoll runs the IOKernel loop: stock Shenango spins on a short
// gap; the CI version fires every interval with the full loop body as
// handler cost. Under brownout the CI version parks the hosted miner
// and polls twice as often — shedding background work is the first
// degradation step, before any request is refused.
func (s *state) schedulePoll() {
	gap := int64(dedicatedPollGap)
	if s.cfg.Kind == CIHosted {
		gap = s.curInterval
		if s.ctl.BrownoutLevel() >= 1 {
			gap /= 2
			s.minerShed += gap
		}
	}
	s.eng.After(gap, func() {
		t := s.eng.Now()
		var fixed int64
		if s.cfg.Kind == CIHosted {
			fixed = ciHandlerInvoke + ciPollFixed
		} else {
			fixed = dedicatedPollFixed
		}
		// Control-loop tick: the queue-delay signal is the sojourn of
		// the oldest packet still waiting for the IOKernel — under
		// saturation that is exactly the growing poll period.
		if s.ctl.Enabled() {
			var qd int64
			if len(s.ingress) > 0 {
				qd = t - s.ingress[0].arrival
			}
			s.ctl.Poll(t, qd)
		}
		// Admission pass. The delay estimate is conservative: steer at
		// the end of a full-service poll, wait for the least-loaded live
		// worker, serve, then leave at the next poll.
		admitted := s.ingress
		var nRejected int64
		if s.ctl.Enabled() {
			admitted = s.admitBuf[:0]
			tEndEst := t + fixed + int64(len(s.ingress)+len(s.egress))*perPacket
			minLive := s.minFreeLive(t)
			egressWait := s.ctl.PeriodEstCycles()
			if egressWait < gap {
				egressWait = gap
			}
			for _, rq := range s.ingress {
				est := minLive + int64(len(admitted))*serviceMean/int64(workers)
				if est < tEndEst {
					est = tEndEst
				}
				v := s.ctl.Admit(t, overload.Request{
					Arrival:        rq.arrival,
					EstDelayCycles: est - t + serviceMean + egressWait,
					Prio:           overload.PriorityOf(rq.seq),
				})
				if v.Admitted() {
					admitted = append(admitted, rq)
				} else {
					nRejected++
				}
			}
			s.admitBuf = admitted
		}
		cost := fixed + int64(len(admitted)+len(s.egress))*perPacket + nRejected*rejectPerPacket
		tEnd := t + cost
		s.iokBusy += cost
		// The quantum policy observes the loop-body cost as the gap and
		// steers the next polling period; a fixed-interval run (nil
		// policy) never enters this branch.
		if s.quantum != nil && s.cfg.Kind == CIHosted {
			prev := s.curInterval
			next, overrun := s.quantum.Observe(cost, s.curInterval)
			if overrun {
				s.overruns++
			}
			// The admission plane is the "external actor" of the
			// QuantumPolicy contract: a backed-off poll period is itself
			// queue delay, so once the plane starts rejecting while the
			// adapted interval sits above the registered base, the two
			// controllers are fighting — snap the handler back to base
			// instead of letting backoff starve admission. Intervals
			// below base (the feedback controller compensating lateness)
			// are left alone; they reduce delay rather than add it.
			if nRejected > 0 && next > s.cfg.IntervalCycles {
				s.quantum.Reset(s.cfg.IntervalCycles)
				next = s.cfg.IntervalCycles
			}
			s.curInterval = next
			if sc := s.cfg.Obs; sc != nil && next != prev {
				sc.Instant("shenango", "adapt-interval", 0, t,
					obs.I("from", prev), obs.I("to", next))
				sc.Count("shenango/interval_adaptations", 1)
			}
		}
		if sc := s.cfg.Obs; sc != nil {
			sc.Span("shenango", "iok-poll", 0, t, tEnd,
				obs.I("ingress", int64(len(s.ingress))),
				obs.I("egress", int64(len(s.egress))),
				obs.I("cost", cost))
			sc.Observe("shenango/poll_cost_cycles", cost)
			sc.Count("shenango/polls", 1)
		}
		// Steer admitted packets to the least-loaded workers. An
		// admitted packet whose service start would overrun its
		// propagated deadline by more than one poll period is expired
		// here instead of serving a dead answer.
		for _, rq := range admitted {
			w := s.leastLoaded(t)
			start := s.workerFree[w]
			if start < tEnd {
				start = tEnd
			}
			// A stall the detector missed (or was forced to accept
			// because every worker is down) delays service start.
			if start < s.stalledUntil[w] {
				start = s.stalledUntil[w]
			}
			if !s.ctl.StartOrExpire(start, rq.arrival+s.deadline, gap+cost) {
				continue
			}
			svc := s.rng.Exp(serviceMean)
			end := start + svc
			s.workerFree[w] = end
			s.workerBusy += svc
			arrival := rq.arrival
			s.eng.At(end, func() {
				s.egress = append(s.egress, request{arrival: arrival})
			})
		}
		s.ingress = s.ingress[:0]
		// Responses leave now.
		for _, rq := range s.egress {
			s.complete(rq.arrival, tEnd)
		}
		s.egress = s.egress[:0]
		// The next handler fires one interval after this one returns
		// (the stock IOKernel likewise restarts its loop after a poll).
		s.eng.At(tEnd, func() { s.schedulePoll() })
	})
}

// minFreeLive is the earliest free time among workers the IOKernel
// believes live (any worker when all are stalled) — the admission
// pass's service-start estimate, deliberately without the re-steer
// accounting of leastLoaded.
func (s *state) minFreeLive(now int64) int64 {
	best, haveLive := int64(0), false
	var globMin int64
	for i, f := range s.workerFree {
		if i == 0 || f < globMin {
			globMin = f
		}
		if s.stalledUntil[i] > now {
			continue
		}
		if !haveLive || f < best {
			best, haveLive = f, true
		}
	}
	if !haveLive {
		return globMin
	}
	return best
}

// leastLoaded picks the worker to steer to: the least-loaded worker
// the IOKernel believes is live. A worker inside an injected stall is
// detected (its queue has not advanced since the last poll) and
// skipped — a re-steer — unless every worker is stalled, in which case
// steering falls back to the globally least-loaded one.
func (s *state) leastLoaded(now int64) int {
	glob, best := 0, -1
	for i, f := range s.workerFree {
		if f < s.workerFree[glob] {
			glob = i
		}
		if s.stalledUntil[i] > now {
			continue
		}
		if best < 0 || f < s.workerFree[best] {
			best = i
		}
	}
	if best < 0 {
		return glob
	}
	if best != glob && s.stalledUntil[glob] > now {
		s.reSteers++
		if sc := s.cfg.Obs; sc != nil {
			sc.Instant("shenango", "re-steer", 0, now,
				obs.I("stalled_worker", int64(glob)), obs.I("steered_to", int64(best)))
			sc.Count("shenango/re_steers", 1)
		}
	}
	return best
}

// kernelRequest models the pthreads path: per-request kernel cost,
// scheduler wakeup, service on a FIFO worker, and (for the shared
// variant) batch-job preemption delays.
func (s *state) kernelRequest(now int64) {
	wake := s.rng.Exp(kernelWakeMean)
	if s.cfg.Kind == PthreadsShared {
		// The batch job holds the core for part of a quantum.
		if s.rng.Float64() < 0.4 {
			wake += s.rng.Exp(sharedQuantumMean)
		}
	}
	w := s.leastLoaded(now)
	start := now + wake + kernelPerReq
	if s.workerFree[w] > start {
		start = s.workerFree[w]
	}
	if s.stalledUntil[w] > start {
		start = s.stalledUntil[w]
	}
	end := start + s.rng.Exp(serviceMean) + kernelPerReq/2
	s.workerFree[w] = end
	s.complete(now, end)
}

func (s *state) complete(arrival, leave int64) {
	s.ctl.Observe(leave, leave-arrival+networkRTT, false)
	if leave <= s.warmup {
		return
	}
	s.latencies = append(s.latencies, leave-arrival+networkRTT)
	s.completed++
	if sc := s.cfg.Obs; sc != nil {
		sc.Observe("shenango/request_latency_cycles", leave-arrival+networkRTT)
	}
}

func (s *state) result() Result {
	cfg := s.cfg
	res := Result{
		Kind:           cfg.Kind,
		IntervalCycles: cfg.IntervalCycles,
		OfferedLoad:    cfg.OfferedLoad,
	}
	window := float64(cfg.DurationCycles-s.warmup) / 2.6e9
	res.AchievedLoad = float64(s.completed) / window
	if len(s.latencies) > 0 {
		res.MedianUs = float64(stats.Median(s.latencies)) / 2600
		res.P999Us = float64(stats.Percentile(s.latencies, 99.9)) / 2600
	}
	if cfg.Kind == Dedicated || cfg.Kind == CIHosted {
		capacity := float64(workers) * float64(cfg.DurationCycles)
		share := 1 - float64(s.workerBusy)/capacity
		if share < 0 {
			share = 0
		}
		res.BatchShare = share
	}
	res.Stalls = s.stalls
	res.ReSteers = s.reSteers
	res.Overload = s.ctl.Snapshot()
	if cfg.Kind == CIHosted {
		res.Overruns = s.overruns
		res.FinalIntervalCycles = s.curInterval
	}
	if cfg.Kind == CIHosted {
		busyFrac := float64(s.iokBusy) / float64(cfg.DurationCycles)
		if busyFrac > 1 {
			busyFrac = 1
		}
		shedFrac := float64(s.minerShed) / float64(cfg.DurationCycles)
		res.MinerShedFrac = shedFrac
		rate := (1 - busyFrac - shedFrac) * (1 - minerCIOverheadPct/100.0)
		if rate < 0 {
			rate = 0
		}
		res.MinerHashRate = rate
	}
	return res
}
