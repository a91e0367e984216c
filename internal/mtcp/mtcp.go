// Package mtcp models the kernel-bypass networking experiment of §5.1:
// an epserver/epwget-style closed-loop HTTP workload (1 kB responses)
// on one server core, under three designs:
//
//   - Kernel: in-kernel networking — per-packet IRQ + syscall costs,
//     with IRQ-path contention that collapses at high connection counts.
//   - Orig: stock mTCP — a helper thread pinned to the application's
//     core runs the user-level TCP stack; coordination costs context
//     switches and futexes, and a busy application delays the helper by
//     up to a scheduler quantum.
//   - CI: mTCP with the helper thread replaced by a Compiler Interrupt
//     handler that runs the stack-loop body every interval (~2500
//     cycles), with no context switching and naturally batched packet
//     processing.
//
// Loss recovery is client-driven: every request generation arms a
// retransmission timer with exponential backoff (rtoBase doubling up
// to rtoMax); after maxRetries unanswered transmissions the client
// aborts the request and reconnects. The server stack discards
// corrupted packets at checksum time and duplicate (retransmitted but
// already-accepted) generations at sequence-check time, so spurious
// retransmits cost only receive-path cycles, never duplicate
// application work. An optional fault plan injects packet loss/
// corruption/reordering at the NIC, app-side stall spikes, and
// CI-handler overrun spikes; with Config.Adaptive the CI polling
// interval backs off multiplicatively under overruns and re-tightens
// additively when the handler meets its budget again (AIMD).
//
// The simulation runs one of the 16 server threads; reported
// throughput is aggregated across threads and capped by the 10 Gbps
// link.
package mtcp

import (
	"repro/internal/ci/ciruntime"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/overload"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Mode selects the server design.
type Mode int

const (
	// Kernel is standard Linux networking.
	Kernel Mode = iota
	// Orig is stock mTCP (helper thread).
	Orig
	// CI is mTCP driven by Compiler Interrupts.
	CI
)

var modeNames = [...]string{Kernel: "kernel", Orig: "orig", CI: "CI"}

// String names the mode as the paper's legend does.
func (m Mode) String() string { return modeNames[m] }

// Cost constants (cycles at the 2.6 GHz model clock).
const (
	stackFixed = 1500  // per stack run: epoll/doorbell/timer bookkeeping
	stackPerRx = 3500  // user-level TCP receive path per packet
	stackPerTx = 3000  // user-level TCP transmit path per packet
	appPerReq  = 9000  // epserver parse + response construction
	ciHandler  = 60    // CI handler invocation overhead
	ctxSwitch  = 4000  // thread context switch
	appWake    = 15000 // futex wake + scheduler latency for a blocked app
	origPerReq = 60000 // orig: per-request locking, condvar/futex notification and
	// cache bouncing between app and helper threads (calibrated so stock
	// mTCP lands at the roughly-half-of-CI throughput the paper measured)
	helperPickup = 300       // helper poll-loop granularity when idle
	kIRQBase     = 18000     // kernel per-packet IRQ + softirq + skb path, uncontended
	kSyscall     = 9000      // recv/send syscall path
	quantum      = 2_600_000 // 1 ms scheduler quantum
	think        = 500       // client think time between response and next request
	reqBytes     = 128
	respBytes    = 1100 // 1 kB payload + headers
	ringSize     = 64
	numThreads   = 16

	// Client retransmission: exponential backoff from rtoBase, capped
	// at rtoMax, aborting after maxRetries unanswered transmissions.
	rtoBase    = 13_000_000  // 5 ms initial retransmission timeout
	rtoMax     = 104_000_000 // 40 ms backoff cap
	maxRetries = 6

	// Overload-plane constants (CI mode with Config.Overload): a
	// rejected request is answered with a tiny NACK instead of a full
	// response; its client backs off before reissuing. Brownout defers
	// packets of connections with at least deferRetxThreshold observed
	// retransmits by one poll, giving fresh traffic the stack first.
	rejectNACKCycles   = 500
	nackBytes          = 64
	rejectBackoff      = 200_000 // client-side back-off after a NACK (~77 µs)
	deferRetxThreshold = 2
)

// ciAppSlowdownPct models the CI instrumentation overhead on the
// application code (per Figure 9's CI column).
const ciAppSlowdownPct = 4

// Config parameterizes one run.
type Config struct {
	Mode Mode
	// Conns is the number of concurrent connections served by this
	// core.
	Conns int
	// WorkCycles is per-request server compute (Figure 5 uses a 1M
	// iteration empty loop ≈ 1M cycles; Figure 4 uses 0).
	WorkCycles int64
	// IntervalCycles is the CI polling interval (default 2500).
	IntervalCycles int64
	// DurationCycles is the simulated time (default 26M ≈ 10 ms).
	DurationCycles int64
	Seed           uint64
	// FaultPlan optionally injects network faults (loss, corruption,
	// reordering), application stall spikes, and CI handler-overrun
	// spikes. Nil runs fault-free.
	FaultPlan *faults.Plan
	// Obs, when enabled, receives CI-poll spans, poll-cost histograms
	// and interval-adaptation instants on the "mtcp" trace category.
	Obs *obs.Scope
	// Adaptive enables AIMD adaptation of the CI polling interval
	// under handler overruns (CI mode only): overruns double the
	// interval up to 8x the configured value; sustained on-budget
	// polls re-tighten it additively: the classic AIMD quantum policy
	// (strict 1x overrun classification). Brownout and breaker events
	// override and reset its interval.
	Adaptive bool
	// Overload optionally enables the overload-control plane (CI mode
	// only), actuated from the CI poll: admission with deadline
	// propagation over the app-work backlog, NACKed rejections the
	// clients back off from, brownout that cancels the AIMD backoff
	// (polling *more* under pressure) and defers retransmit-heavy
	// connections by one poll, and a breaker whose trip resets the
	// adaptive interval to its base. Nil keeps the run bit-identical to
	// the pre-overload model.
	Overload *overload.Config
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Conns <= 0 {
		out.Conns = 1
	}
	if out.IntervalCycles <= 0 {
		out.IntervalCycles = 2500
	}
	if out.DurationCycles <= 0 {
		out.DurationCycles = 52_000_000
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// Result reports one run's metrics.
type Result struct {
	Mode      Mode
	Conns     int
	Completed int64
	// ThroughputGbps is the 16-thread aggregate download throughput,
	// capped by the 10 Gbps link.
	ThroughputGbps float64
	// Latency percentiles in microseconds (request send to full
	// response).
	MeanLatencyUs, MedianLatencyUs, P99LatencyUs float64
	Drops, Retransmits                           int64
	// Issued counts client requests (unique generations, not
	// retransmits); Aborted counts requests given up after maxRetries;
	// Rejects counts requests the overload plane answered with a NACK
	// (0 with the plane disabled); Outstanding is the requests still in
	// flight at the end of the run.
	// Issued = CompletedAll + Aborted + Rejects + Outstanding, and
	// Outstanding never exceeds Conns (the closed loop keeps at most
	// one request per connection in flight).
	Issued, Aborted, Rejects, Outstanding int64
	// CompletedAll counts completions including the warmup window
	// (Completed excludes it).
	CompletedAll int64
	// Injected-fault accounting: Lost packets (wire ate them),
	// corrupted packets discarded at checksum, duplicate generations
	// discarded at sequence check, and kernel softirq backlog drops.
	Lost, CorruptDiscards, DupDiscards, BacklogDrops int64
	// Overruns counts CI polls whose handler cost exceeded the current
	// interval; FinalIntervalCycles is the AIMD interval at run end.
	Overruns            int64
	FinalIntervalCycles int64
	// Crashes counts whole-server crash/restart windows (CI mode, from
	// the fault plan's crash stream); CrashFailedPkts counts packets —
	// including in-flight retransmits — destroyed by a crash: wiped
	// from the dead ring or arriving while the server was down. They
	// are failed, not lost: the conservation identity stays exact
	// because every such packet's request is still resolved by its
	// client's RTO (retransmit or abort).
	Crashes, CrashFailedPkts int64
	// Overload is the admission plane's accounting (zero when the plane
	// is disabled).
	Overload overload.Snapshot
}

type request struct {
	conn      int
	gen       int64
	remaining int64
	// Overload-plane fields: the propagated deadline (0 = none) and
	// whether service has started (deadline-gated on first touch).
	deadline int64
	started  bool
}

type response struct {
	conn int
	gen  int64
}

type server struct {
	cfg  Config
	eng  *sim.Engine
	rng  *sim.RNG
	link *link
	nic  *nic

	appInj   *faults.Injector // app-side stall spikes
	ciInj    *faults.Injector // handler-overrun spikes
	crashInj *faults.Injector // whole-server crash/restart windows

	// Crash state (CI mode): while down the stack is dead — arriving
	// packets fail at the dead NIC (accounted, never silently lost) and
	// no polls run until the restart.
	down            bool
	crashes         int64
	crashFailedPkts int64
	crashNotStarted int64 // admitted-not-started requests killed by a crash

	appQ []request
	txQ  []response

	// Per-connection client state: current request generation, last
	// generation completed or aborted, and first-send time of the
	// current generation (for latency).
	gen      []int64
	ackedGen []int64
	sendTime []int64
	// Per-connection server state: last generation accepted by the
	// stack (duplicate suppression).
	seenGen []int64

	latencies    []int64
	completed    int64
	completedAll int64
	issued       int64
	aborted      int64
	retx         int64
	softDrops    int64
	corruptDisc  int64
	dupDisc      int64
	warmup       int64

	// CI-mode adaptive polling state: the installed quantum policy
	// (nil = fixed interval) and the interval currently in force.
	quantum     ciruntime.QuantumPolicy
	curInterval int64
	overruns    int64

	// CI-mode overload-plane state.
	ctl        *overload.Controller // nil = plane disabled
	deadline   int64                // Overload.DeadlineCycles (0 when off)
	appBacklog int64                // queued app work in cycles
	admitSeq   int64                // admission counter for priority tagging
	rejects    int64                // client-observed NACKs
	connRetx   []int64              // observed retransmits per connection
	deferQ     []packet             // brownout-deferred packets (one poll)
	procBuf    []packet             // scratch: deferred + fresh merge

	// orig-mode state
	serverIdle bool

	// kernel-mode state
	coreFree      int64
	kernelPending int64
}

// Run simulates one configuration and returns its metrics.
func Run(cfg Config) Result {
	r, _ := RunChecked(cfg)
	return r
}

// RunChecked is Run with a progress deadline on the event loop: a
// model bug or fault interaction that livelocks returns
// sim.ErrNoProgress (with partial metrics) instead of hanging.
func RunChecked(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	s := &server{
		cfg:      cfg,
		eng:      sim.NewEngine(),
		rng:      sim.NewRNG(cfg.Seed),
		link:     &link{CyclesPerByte: cyclesPerByte10G, Propagation: 26000},
		nic:      newNIC(ringSize),
		appInj:   faults.New(cfg.FaultPlan, "mtcp/app"),
		ciInj:    faults.New(cfg.FaultPlan, "mtcp/ci"),
		gen:      make([]int64, cfg.Conns),
		ackedGen: make([]int64, cfg.Conns),
		sendTime: make([]int64, cfg.Conns),
		seenGen:  make([]int64, cfg.Conns),
		warmup:   cfg.DurationCycles / 4,
	}
	s.nic.Faults = faults.New(cfg.FaultPlan, "mtcp/net")
	s.curInterval = cfg.IntervalCycles
	if cfg.Adaptive {
		// The classic mtcp AIMD: strict 1x overrun classification
		// ("the handler cost exceeded its interval"), 8x cap, tighten
		// after 4 on-budget polls.
		s.quantum = &ciruntime.AIMD{OverrunFactor: 1}
		s.quantum.Reset(cfg.IntervalCycles)
	}
	s.serverIdle = true
	if cfg.Mode == CI {
		s.crashInj = faults.New(cfg.FaultPlan, "mtcp/crash")
		if gap, down, ok := s.crashInj.NextCrash(); ok {
			s.eng.At(gap, func() { s.crashNow(down) })
		}
	}
	if cfg.Overload != nil && cfg.Mode == CI {
		oc := *cfg.Overload
		if oc.Name == "" {
			oc.Name = "mtcp/overload"
		}
		if oc.Obs == nil {
			oc.Obs = cfg.Obs
		}
		// A breaker trip means the regime changed: the backoff the
		// quantum policy learned under the old regime must not persist
		// into recovery.
		userHook := oc.OnStateChange
		oc.OnStateChange = func(from, to overload.State, now int64) {
			if to == overload.Open && s.quantum != nil {
				s.curInterval = cfg.IntervalCycles
				s.quantum.Reset(cfg.IntervalCycles)
			}
			if userHook != nil {
				userHook(from, to, now)
			}
		}
		s.ctl = overload.New(&oc)
		s.deadline = oc.DeadlineCycles
		s.connRetx = make([]int64, cfg.Conns)
	}
	// Clients open their connections spread over the first ~20 µs.
	for c := 0; c < cfg.Conns; c++ {
		conn := c
		start := s.rng.Intn(50_000)
		s.eng.At(start, func() { s.sendRequest(conn) })
	}
	if cfg.Mode == CI {
		s.eng.At(cfg.IntervalCycles, func() { s.ciPoll() })
	}
	_, err := s.eng.RunDeadline(cfg.DurationCycles, sim.Deadline{
		MaxEvents:   max(cfg.DurationCycles/10, 1_000_000),
		MaxSameTime: 1 << 17,
	})
	if err == nil {
		notStarted := s.crashNotStarted
		for _, r := range s.appQ {
			if !r.started {
				notStarted++
			}
		}
		err = s.ctl.Invariants(notStarted)
	}
	return s.result(), err
}

// appCost is the server-side compute per request: inflated by the CI
// instrumentation overhead in CI mode; carrying the per-request queue
// locking and event-notification cost in orig mode; plus any injected
// stall spike (page fault / slow syscall).
func (s *server) appCost() int64 {
	c := appPerReq + s.cfg.WorkCycles
	switch s.cfg.Mode {
	case CI:
		c += c * ciAppSlowdownPct / 100
	case Orig:
		c += origPerReq
	}
	return c + s.appInj.Stall()
}

// sendRequest issues the connection's next request from the client and
// arms its retransmission timer.
func (s *server) sendRequest(conn int) {
	now := s.eng.Now()
	s.issued++
	s.gen[conn]++
	g := s.gen[conn]
	s.sendTime[conn] = now
	s.transmit(conn, g, false)
	s.armRTO(conn, g, 0)
}

// transmit puts one request packet on the wire. Loss (injected or
// ring overflow) is silent; the client's RTO timer recovers. A packet
// reaching a crashed server fails at the dead NIC — explicitly
// accounted as crash-failed, never folded into wire loss.
func (s *server) transmit(conn int, gen int64, isRetx bool) {
	at := s.eng.Now() + s.link.Delay(reqBytes)
	s.eng.At(at, func() {
		if s.down {
			s.crashFailedPkts++
			return
		}
		ok := s.nic.Push(packet{
			Arrival: s.eng.Now(), Conn: conn, Seq: gen,
			Bytes: reqBytes, Retransmit: isRetx,
		})
		if ok && s.cfg.Mode != CI {
			s.onRxActivity()
		}
	})
}

// crashNow kills the server process (CI mode): every packet in the
// ring — in-flight retransmits included — and all queued application
// and transmit work dies with it, each explicitly accounted so the
// conservation identity stays exact. The server restarts cold after
// the down window: connection state (duplicate-suppression
// generations) is gone, so post-restart retransmits of already-served
// generations are re-served and discarded client-side.
func (s *server) crashNow(downCycles int64) {
	now := s.eng.Now()
	s.crashes++
	s.crashFailedPkts += s.nic.Wipe() + int64(len(s.deferQ))
	s.deferQ = s.deferQ[:0]
	s.txQ = s.txQ[:0]
	for _, r := range s.appQ {
		if !r.started {
			s.crashNotStarted++
		}
	}
	s.appQ = s.appQ[:0]
	s.appBacklog = 0
	for i := range s.seenGen {
		s.seenGen[i] = 0
	}
	s.down = true
	s.eng.At(now+downCycles, func() { s.restart() })
	if gap, down, ok := s.crashInj.NextCrash(); ok {
		s.eng.At(now+downCycles+gap, func() { s.crashNow(down) })
	}
}

// restart brings the server back cold: polling resumes at the base
// interval, one interval after the process is up.
func (s *server) restart() {
	s.down = false
	s.curInterval = s.cfg.IntervalCycles
	if s.quantum != nil {
		s.quantum.Reset(s.cfg.IntervalCycles)
	}
	s.eng.At(s.eng.Now()+s.curInterval, func() { s.ciPoll() })
}

// rtoFor is the exponential-backoff timeout for the given attempt.
func rtoFor(attempt int) int64 {
	t := int64(rtoBase) << uint(attempt)
	if t > rtoMax || t <= 0 {
		t = rtoMax
	}
	return t
}

// armRTO schedules the retransmission timer for one transmission of
// (conn, gen). If the response arrives first the timer is a no-op;
// otherwise it retransmits with doubled backoff, and after maxRetries
// aborts the request and reconnects.
func (s *server) armRTO(conn int, gen int64, attempt int) {
	s.eng.After(rtoFor(attempt), func() {
		if s.ackedGen[conn] >= gen {
			return // answered (or already aborted)
		}
		if attempt >= maxRetries {
			s.aborted++
			s.ackedGen[conn] = gen
			now := s.eng.Now()
			s.ctl.Observe(now, now-s.sendTime[conn], true)
			// The client closes the connection and reopens: the
			// closed loop continues with a fresh request.
			s.eng.After(think, func() { s.sendRequest(conn) })
			return
		}
		s.retx++
		s.transmit(conn, gen, true)
		s.armRTO(conn, gen, attempt+1)
	})
}

// admit filters drained packets through checksum and duplicate
// suppression, returning the packets the stack accepts as new
// requests. Discards still cost receive-path cycles at the caller.
func (s *server) admit(pkts []packet) []packet {
	out := pkts[:0]
	for _, p := range pkts {
		if p.Corrupt {
			s.corruptDisc++
			continue
		}
		if p.Seq <= s.seenGen[p.Conn] {
			s.dupDisc++
			continue
		}
		s.seenGen[p.Conn] = p.Seq
		out = append(out, p)
	}
	return out
}

// deliverResponse completes a request at the client and starts the
// next one (closed loop). Stale responses (duplicate server work or a
// response overtaking an abort) are dropped at the client.
func (s *server) deliverResponse(conn int, gen int64, txDone int64) {
	arrive := txDone + s.link.Delay(respBytes)
	s.eng.At(arrive, func() {
		if s.ackedGen[conn] >= gen {
			return
		}
		s.ackedGen[conn] = gen
		now := s.eng.Now()
		s.ctl.Observe(now, now-s.sendTime[conn], false)
		s.completedAll++
		if now > s.warmup {
			s.latencies = append(s.latencies, now-s.sendTime[conn])
			s.completed++
		}
		s.eng.At(now+think, func() { s.sendRequest(conn) })
	})
}

// deliverReject answers a refused request with a tiny NACK: the client
// finishes the generation (so its RTO timer stands down), backs off,
// then continues the closed loop. Rejections are not service outcomes,
// so they feed neither the latency series nor the breaker window.
func (s *server) deliverReject(conn int, gen int64, txDone int64) {
	arrive := txDone + s.link.Delay(nackBytes)
	s.eng.At(arrive, func() {
		if s.ackedGen[conn] >= gen {
			return
		}
		s.ackedGen[conn] = gen
		s.rejects++
		now := s.eng.Now()
		s.eng.At(now+think+rejectBackoff, func() { s.sendRequest(conn) })
	})
}

// ciPoll is the CI-mode stack run: the interrupt handler executes the
// mTCP stack-loop body, then the application consumes the remainder of
// the interval. Under Config.Adaptive the polling interval reacts to
// handler overruns with AIMD; with the overload plane enabled the poll
// is also the control-loop tick — admission, brownout and breaker
// decisions all ride the CI handler's cadence.
func (s *server) ciPoll() {
	if s.down {
		return // the process died; restart schedules a fresh poll
	}
	t := s.eng.Now()
	s.ctl.Poll(t, s.appBacklog)
	cost := int64(ciHandler)
	cost += s.ciInj.Overrun() // injected handler-overrun spike
	pkts := s.nic.Drain(t, 0)
	if len(pkts) > 0 || len(s.txQ) > 0 || len(s.deferQ) > 0 {
		cost += stackFixed
	}
	cost += int64(len(pkts)) * stackPerRx
	proc := pkts
	if s.ctl.Enabled() {
		// Brownout deferral: previously deferred packets run first and
		// are never deferred twice; fresh packets from retransmit-heavy
		// connections wait one poll so fresh traffic gets the stack.
		proc = append(s.procBuf[:0], s.deferQ...)
		s.deferQ = s.deferQ[:0]
		brownout := s.ctl.BrownoutLevel() >= 1
		for _, p := range pkts {
			if p.Retransmit && !p.Corrupt {
				s.connRetx[p.Conn]++
			}
			if brownout && p.Retransmit && !p.Corrupt && s.connRetx[p.Conn] >= deferRetxThreshold {
				s.deferQ = append(s.deferQ, p)
				s.ctl.NoteDeferred()
				continue
			}
			proc = append(proc, p)
		}
		s.procBuf = proc
	}
	var nacks []response
	for _, p := range s.admit(proc) {
		if !s.ctl.Enabled() {
			s.appQ = append(s.appQ, request{conn: p.Conn, gen: p.Seq, remaining: s.appCost()})
			continue
		}
		ac := s.appCost()
		// The completion estimate dilutes the backlog by the app's duty
		// cycle: it only runs interval-out-of-every-period.
		est := s.appBacklog + ac
		if pe := s.ctl.PeriodEstCycles(); pe > s.curInterval {
			est = int64(float64(est) * float64(pe) / float64(s.curInterval))
		}
		v := s.ctl.Admit(t, overload.Request{
			Arrival: p.Arrival, EstDelayCycles: est,
			Prio: overload.PriorityOf(s.admitSeq),
		})
		s.admitSeq++
		if !v.Admitted() {
			cost += rejectNACKCycles
			nacks = append(nacks, response{conn: p.Conn, gen: p.Seq})
			continue
		}
		s.appQ = append(s.appQ, request{
			conn: p.Conn, gen: p.Seq, remaining: ac,
			deadline: p.Arrival + s.deadline,
		})
		s.appBacklog += ac
	}
	cost += int64(len(s.txQ)) * stackPerTx
	tEnd := t + cost
	for _, r := range s.txQ {
		s.deliverResponse(r.conn, r.gen, tEnd)
	}
	s.txQ = s.txQ[:0]
	for _, r := range nacks {
		s.deliverReject(r.conn, r.gen, tEnd)
	}
	// Application budget until the next interrupt.
	budget := s.curInterval
	s.runApp(&budget, tEnd)
	if s.quantum != nil {
		s.adaptInterval(cost)
	}
	s.brownoutInterval()
	if sc := s.cfg.Obs; sc != nil {
		sc.Span("mtcp", "ci-poll", 0, t, tEnd,
			obs.I("rx_pkts", int64(len(pkts))), obs.I("cost", cost))
		sc.Observe("mtcp/poll_cost_cycles", cost)
		sc.Count("mtcp/polls", 1)
		if cost > s.curInterval {
			sc.Count("mtcp/poll_overruns", 1)
		}
	}
	s.eng.At(tEnd+s.curInterval, func() { s.ciPoll() })
}

// brownoutInterval overrides the policy interval under brownout:
// pressure means polling *more* often, not less — level 1 cancels any
// learned backoff, level 2 halves the base interval so the stack
// drains queues at twice the cadence while the plane sheds load. The
// policy is reset alongside so it relearns from the new regime
// instead of carrying a stale streak.
func (s *server) brownoutInterval() {
	if !s.ctl.Enabled() || s.quantum == nil {
		return
	}
	base := s.cfg.IntervalCycles
	switch lvl := s.ctl.BrownoutLevel(); {
	case lvl >= 2:
		if s.curInterval != base/2 {
			s.curInterval = base / 2
			s.quantum.Reset(base)
		}
	case lvl == 1:
		if s.curInterval > base {
			s.curInterval = base
			s.quantum.Reset(base)
		}
	}
}

// adaptInterval feeds one poll's handler cost to the quantum policy
// as the observed gap and applies the interval it answers with. With
// the classic AIMD policy this reproduces the old private controller
// exactly: an overrunning handler doubles the interval (up to the 8x
// cap); consecutive on-budget polls shrink it additively back toward
// the target.
func (s *server) adaptInterval(handlerCost int64) {
	prev := s.curInterval
	next, overrun := s.quantum.Observe(handlerCost, s.curInterval)
	if overrun {
		s.overruns++
	}
	s.curInterval = next
	if sc := s.cfg.Obs; sc != nil && s.curInterval != prev {
		sc.Instant("mtcp", "adapt-interval", 0, s.eng.Now(),
			obs.I("from", prev), obs.I("to", s.curInterval))
		sc.Count("mtcp/interval_adaptations", 1)
	}
}

// runApp consumes application work from the queue within budget. With
// the overload plane enabled, service start is deadline-gated: a
// request whose head-of-queue turn comes more than one poll period
// past its propagated deadline is expired with a NACK instead of
// burning app cycles on a dead answer.
func (s *server) runApp(budget *int64, now int64) {
	for *budget > 0 && len(s.appQ) > 0 {
		r := &s.appQ[0]
		if !r.started {
			slack := s.curInterval
			if pe := s.ctl.PeriodEstCycles(); pe > slack {
				slack = pe
			}
			if !s.ctl.StartOrExpire(now, r.deadline, slack) {
				s.appBacklog -= r.remaining
				conn, gen := r.conn, r.gen
				s.appQ = s.appQ[:copy(s.appQ, s.appQ[1:])]
				s.deliverReject(conn, gen, now+rejectNACKCycles)
				continue
			}
			r.started = true
		}
		use := r.remaining
		if use > *budget {
			use = *budget
		}
		r.remaining -= use
		*budget -= use
		if s.ctl.Enabled() {
			s.appBacklog -= use
		}
		if r.remaining == 0 {
			s.txQ = append(s.txQ, response{conn: r.conn, gen: r.gen})
			s.appQ = s.appQ[:copy(s.appQ, s.appQ[1:])]
		}
	}
}

// onRxActivity wakes the orig-mode helper / kernel-mode IRQ path.
func (s *server) onRxActivity() {
	switch s.cfg.Mode {
	case Orig:
		if s.serverIdle {
			s.serverIdle = false
			s.eng.After(helperPickup, func() { s.helperStep() })
		}
	case Kernel:
		s.kernelRx()
	}
}

// helperStep is one run of the mTCP helper thread (orig mode).
func (s *server) helperStep() {
	t := s.eng.Now()
	cost := int64(stackFixed)
	pkts := s.nic.Drain(t, 0)
	cost += int64(len(pkts)) * stackPerRx
	for _, p := range s.admit(pkts) {
		s.appQ = append(s.appQ, request{conn: p.Conn, gen: p.Seq, remaining: s.appCost()})
	}
	cost += int64(len(s.txQ)) * stackPerTx
	tEnd := t + cost
	for _, r := range s.txQ {
		s.deliverResponse(r.conn, r.gen, tEnd)
	}
	s.txQ = s.txQ[:0]
	if len(s.appQ) == 0 {
		if s.nic.Pending() > 0 {
			s.eng.At(tEnd+helperPickup, func() { s.helperStep() })
		} else {
			// Helper spins on the NIC; the next arrival reschedules it.
			s.serverIdle = true
		}
		return
	}
	// Hand the core to the application: context switch plus the futex
	// wake + scheduler latency of unblocking it from epoll_wait.
	s.eng.At(tEnd+ctxSwitch+appWake, func() { s.appStep() })
}

// appStep runs the application for up to one scheduler quantum (orig
// mode). If the application exhausts its quantum with work remaining,
// the (always-runnable, spinning) helper thread receives its own fair
// CFS slice before the application resumes — a CPU-heavy application
// only ever gets ~half the core under stock mTCP.
func (s *server) appStep() {
	t := s.eng.Now()
	budget := int64(quantum)
	used := int64(quantum)
	s.runApp(&budget, t)
	used -= budget
	if len(s.appQ) > 0 {
		// Preempted: the helper gets a full slice.
		s.eng.At(t+used+ctxSwitch, func() { s.helperSlice() })
		return
	}
	// Blocked: the helper runs event-driven.
	s.eng.At(t+used+ctxSwitch, func() { s.helperStep() })
}

// helperSlice is the helper thread's fair scheduler slice while the
// application remains runnable: it drains the NIC and transmits, then
// spins out the remainder of its quantum.
func (s *server) helperSlice() {
	t := s.eng.Now()
	cost := int64(stackFixed)
	pkts := s.nic.Drain(t, 0)
	cost += int64(len(pkts)) * stackPerRx
	for _, p := range s.admit(pkts) {
		s.appQ = append(s.appQ, request{conn: p.Conn, gen: p.Seq, remaining: s.appCost()})
	}
	cost += int64(len(s.txQ)) * stackPerTx
	tEnd := t + cost
	for _, r := range s.txQ {
		s.deliverResponse(r.conn, r.gen, tEnd)
	}
	s.txQ = s.txQ[:0]
	s.eng.At(t+quantum+ctxSwitch, func() { s.appStep() })
}

// kernelRx charges the per-packet IRQ/softirq path and chains the
// request through the (FIFO) core. The IRQ cost grows with the
// connection count: the NIC steers flows onto 8 IRQ cores whose
// contention with the application cores collapses at high concurrency
// (the paper attributes the kernel curve's shape to exactly this).
func (s *server) kernelRx() {
	factor := 1 + float64(s.cfg.Conns*s.cfg.Conns)/(4*4)
	if factor > 12 {
		factor = 12
	}
	irq := int64(float64(kIRQBase) * factor)
	pkts := s.nic.Drain(s.eng.Now(), 0)
	for _, p := range s.admit(pkts) {
		conn, gen := p.Conn, p.Seq
		if s.kernelPending > int64(ringSize) {
			// Softirq backlog overflow: the packet is lost and the
			// client's RTO timer retransmits after its backoff.
			s.softDrops++
			continue
		}
		s.kernelPending++
		s.coreTask(irq, func(int64) {
			appCost := 2*kSyscall + s.appCost() + stackPerTx
			s.coreTask(appCost, func(end int64) {
				s.kernelPending--
				s.deliverResponse(conn, gen, end)
			})
		})
	}
}

// coreTask serializes work on the single server core (kernel mode).
func (s *server) coreTask(cost int64, done func(end int64)) {
	start := s.eng.Now()
	if s.coreFree > start {
		start = s.coreFree
	}
	end := start + cost
	s.coreFree = end
	s.eng.At(end, func() { done(end) })
}

func (s *server) result() Result {
	cfg := s.cfg
	window := cfg.DurationCycles - s.warmup
	seconds := float64(window) / 2.6e9
	gbps := float64(s.completed) * respBytes * 8 * numThreads / seconds / 1e9
	if gbps > 9.4 {
		gbps = 9.4 // the 10 Gbps link (minus framing) is the ceiling
	}
	res := Result{
		Mode:                cfg.Mode,
		Conns:               cfg.Conns,
		Completed:           s.completed,
		ThroughputGbps:      gbps,
		Drops:               s.nic.Dropped + s.softDrops,
		Retransmits:         s.retx,
		Issued:              s.issued,
		Aborted:             s.aborted,
		Rejects:             s.rejects,
		Outstanding:         s.issued - s.completedAll - s.aborted - s.rejects,
		CompletedAll:        s.completedAll,
		Lost:                s.nic.Lost,
		CorruptDiscards:     s.corruptDisc,
		DupDiscards:         s.dupDisc,
		BacklogDrops:        s.softDrops,
		Overruns:            s.overruns,
		FinalIntervalCycles: s.curInterval,
		Crashes:             s.crashes,
		CrashFailedPkts:     s.crashFailedPkts,
		Overload:            s.ctl.Snapshot(),
	}
	if len(s.latencies) > 0 {
		toUs := func(c int64) float64 { return float64(c) / 2600 }
		res.MeanLatencyUs = toUs(int64(stats.Mean(s.latencies)))
		res.MedianLatencyUs = toUs(stats.Median(s.latencies))
		res.P99LatencyUs = toUs(stats.Percentile(s.latencies, 99))
	}
	return res
}
