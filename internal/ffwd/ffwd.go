// Package ffwd models the §5.3 experiment: delegation in the style of
// FFWD — clients ship function calls to a server core through per-
// client cache lines — compared against lock-based synchronization on
// the classic fetch-and-add microbenchmark, across 1..56 threads.
//
// Designs:
//
//   - DelegationDedicated: one hardware thread is burned as the
//     delegation server, spinning over client request lines.
//   - DelegationCI: the server loop body runs as a Compiler Interrupt
//     handler on a "designated" application thread, which otherwise
//     executes client work — no dedicated core.
//   - Spinlock / TicketLock / MCS / PthreadMutex: locking baselines.
//
// The model is a contention model with stochastic sampling (costs are
// cache-line transfer latencies from the FFWD paper's methodology),
// not a full cache-coherence simulation; it reproduces the throughput
// scaling shapes and the latency distributions of Figures 7 and 8.
package ffwd

import (
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Design selects the synchronization design.
type Design int

const (
	DelegationDedicated Design = iota
	DelegationCI
	Spinlock
	TicketLock
	MCS
	PthreadMutex
)

var designNames = [...]string{
	DelegationDedicated: "delegation",
	DelegationCI:        "delegation-CI",
	Spinlock:            "spinlock",
	TicketLock:          "ticket",
	MCS:                 "MCS",
	PthreadMutex:        "mutex",
}

// String names the design.
func (d Design) String() string { return designNames[d] }

// Designs lists all designs in Figure 7's legend order.
var Designs = []Design{
	DelegationDedicated, DelegationCI, Spinlock, TicketLock, MCS, PthreadMutex,
}

// Model constants (cycles at 2.6 GHz, FFWD-style cost accounting).
const (
	xfer         = 100  // cross-core cache-line transfer
	localOp      = 26   // uncontended fetch-and-add (line in L1)
	cs           = 30   // critical-section body (increment + write-back)
	serverPerReq = 90   // server: read request line, apply, write response (amortized)
	scanPerLine  = 12   // server: poll one client line
	clientIssue  = 20   // client: write the request line
	delegBaseRTT = 700  // request line out + response line back + pipeline
	futexPath    = 3800 // mutex: contended futex wait/wake round trip
	// ciServerInterval is the designated-server polling period of
	// DelegationCI (the paper finds 250-1000 IR ≈ a few hundred cycles
	// works well).
	ciServerInterval    = 250
	ciHandlerInvoke     = 30
	ciClientOverheadPct = 5 // instrumentation overhead on client code
	// fallbackTimeout is how long a delegation client waits on an
	// unanswered request line before concluding the server is stalled
	// and retrying the operation under the shared MCS fallback lock
	// (the FFWD bypass API permits direct access when delegation is
	// unavailable). Clients probe the server line and resume
	// delegation as soon as it responds again.
	fallbackTimeout = 20_000
	// opsPerThread is the number of sampled operations behind the
	// Figure 8 latency distribution.
	opsPerThread = 2000
)

// Config parameterizes one run.
type Config struct {
	Design  Design
	Threads int
	// RecordLatencies enables the Figure 8 distribution.
	RecordLatencies bool
	Seed            uint64
	// FaultPlan optionally stalls the delegation server (descheduled or
	// wedged for ServerStallCycles at a mean gap of
	// ServerStallMeanGapCycles). Stalled-out operations time out after
	// fallbackTimeout and complete under the MCS fallback lock; only
	// the delegation designs are affected.
	FaultPlan *faults.Plan
	// Obs, when enabled, receives per-operation latency observations and
	// fallback-path counters on the "ffwd" trace category. It lives in
	// Config (not Result) so Result stays comparable with ==.
	Obs *obs.Scope
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Threads < 1 {
		out.Threads = 1
	}
	if out.Seed == 0 {
		out.Seed = 11
	}
	return out
}

// Result reports one configuration's metrics.
type Result struct {
	Design  Design
	Threads int
	// ThroughputMops is total fetch-and-add operations per second, in
	// millions.
	ThroughputMops float64
	// MeanLatency is the average per-operation latency in cycles.
	MeanLatency float64
	// LatencySummary is the client-observed latency distribution
	// (cycles), when recording was requested.
	LatencySummary stats.Summary
	// FallbackFrac is the long-run fraction of time the delegation
	// server spends stalled (operations in that window go through the
	// MCS fallback); FallbackOps counts sampled operations that took
	// the fallback path.
	FallbackFrac float64
	FallbackOps  int64
}

// Run evaluates one configuration.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	rng := sim.NewRNG(cfg.Seed)
	T := cfg.Threads
	var throughput float64 // ops per cycle
	var sample func() int64

	// MCS cost model, shared by the MCS design and the delegation
	// designs' stalled-server fallback path.
	mcsPer := float64(cs + localOp)
	if T > 1 {
		mcsPer = float64(cs + 2*xfer + 320) // local spin + queued handoff
	}
	mcsSample := func() int64 {
		if T == 1 {
			return cs + localOp
		}
		return int64(mcsPer * float64(1+rng.Intn(int64(T))))
	}

	switch cfg.Design {
	case DelegationDedicated:
		clients := T - 1
		if clients < 1 {
			// A single thread degenerates to direct access (the FFWD
			// API allows bypassing the server when CIs are disabled).
			clients = 1
			throughput = 1.0 / (localOp + cs)
			sample = func() int64 { return localOp + cs }
			break
		}
		lat := delegationLatency(clients)
		perClient := 1.0 / float64(clientIssue+lat)
		serverCap := 1.0 / float64(serverPerReq)
		throughput = minF(float64(clients)*perClient, serverCap)
		sample = func() int64 {
			return lat + rng.Intn(2*scanPerLine*int64(clients)+1)
		}
	case DelegationCI:
		if T == 1 {
			// With CIs disabled a lone thread accesses the structure
			// directly through the FFWD bypass API.
			throughput = 1.0 / (localOp + cs)
			sample = func() int64 { return localOp + cs }
			break
		}
		const interval = ciServerInterval
		// All T threads run client code; one also hosts the server
		// loop in its CI handler. Requests wait for the next handler
		// firing (interval/2 on average) plus batch processing.
		lat := delegationLatency(T) + interval/2
		perClient := (1.0 - ciClientOverheadPct/100.0) / float64(clientIssue+lat)
		// The designated thread spends its handler time serving.
		serverShare := 1.0 - float64(ciHandlerInvoke)/float64(interval)
		serverCap := serverShare / float64(serverPerReq)
		throughput = minF(float64(T)*perClient, serverCap)
		sample = func() int64 {
			return delegationLatency(T) + rng.Intn(2*scanPerLine*int64(T)+1) + rng.Intn(interval)
		}
	case Spinlock:
		// Line ping-pong: every acquisition pays a transfer that grows
		// with the number of contenders fighting for the line.
		per := float64(cs + localOp)
		if T > 1 {
			per = float64(cs) + float64(xfer)*float64(T)*0.9
		}
		throughput = 1.0 / per
		mean := per * float64(maxI(T-1, 1))
		sample = func() int64 {
			if T == 1 {
				return cs + localOp
			}
			// Unfair: occasionally immediate, mostly long waits.
			return 10 + rng.Exp(mean)
		}
	case TicketLock:
		per := float64(cs + localOp)
		if T > 1 {
			per = float64(cs) + float64(xfer)*float64(T)*1.25
		}
		throughput = 1.0 / per
		sample = func() int64 {
			if T == 1 {
				return cs + localOp
			}
			// FIFO: wait ≈ queue position × handoff.
			return int64(per * float64(1+rng.Intn(int64(T))))
		}
	case MCS:
		throughput = 1.0 / mcsPer
		sample = mcsSample
	case PthreadMutex:
		per := float64(cs + localOp + 12)
		if T > 1 {
			// Most acquisitions go through the contended futex path.
			per = float64(cs) + 0.85*futexPath + float64(xfer)
		}
		throughput = 1.0 / per
		mean := per * float64(maxI(T-1, 1))
		sample = func() int64 {
			if T == 1 {
				return cs + localOp + 12
			}
			return 40 + rng.Exp(mean)
		}
	}

	// A stalled delegation server degrades the delegation designs to
	// the MCS fallback for the stalled fraction of time: throughput
	// blends the two paths, and a fallback operation pays the timeout
	// that detected the stall plus the MCS acquisition.
	var fallbackOps int64
	fallbackFrac := 0.0
	delegated := cfg.Design == DelegationDedicated || cfg.Design == DelegationCI
	if delegated && T > 1 {
		fallbackFrac = cfg.FaultPlan.ServerStallFrac()
	}
	if fallbackFrac > 0 {
		throughput = (1-fallbackFrac)*throughput + fallbackFrac/mcsPer
		frng := sim.NewRNG(cfg.Seed ^ 0x66616c6c6261636b) // "fallback" stream
		delegSample := sample
		sample = func() int64 {
			if frng.Float64() < fallbackFrac {
				fallbackOps++
				return fallbackTimeout + mcsSample()
			}
			return delegSample()
		}
	}

	res := Result{
		Design:         cfg.Design,
		Threads:        T,
		ThroughputMops: throughput * 2.6e9 / 1e6,
		FallbackFrac:   fallbackFrac,
	}
	n := opsPerThread
	if !cfg.RecordLatencies {
		n = 256 // enough for a stable mean
	}
	lats := make([]int64, 0, n)
	var sum float64
	for i := 0; i < n; i++ {
		l := sample()
		lats = append(lats, l)
		sum += float64(l)
	}
	res.MeanLatency = sum / float64(n)
	res.FallbackOps = fallbackOps
	if cfg.RecordLatencies {
		res.LatencySummary = stats.Summarize(lats)
	}
	if sc := cfg.Obs; sc != nil {
		name := cfg.Design.String()
		hist := "ffwd/op_latency_cycles/" + name
		for _, l := range lats {
			sc.Observe(hist, l)
		}
		sc.Count("ffwd/ops_sampled", int64(len(lats)))
		sc.Count("ffwd/fallback_ops", fallbackOps)
		ts := sc.Tick()
		sc.Instant("ffwd", "run/"+name, int32(T), ts,
			obs.I("threads", int64(T)),
			obs.I("throughput_kops", int64(throughput*2.6e9/1e3)),
			obs.I("fallback_ops", fallbackOps))
	}
	return res
}

// delegationLatency is the request round trip seen by a client with
// the given number of active clients sharing the server.
func delegationLatency(clients int) int64 {
	return delegBaseRTT + scanPerLine*int64(clients)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
