package overload

import (
	"repro/internal/obs"
	"repro/internal/stats"
)

// State is a circuit-breaker state.
type State int

const (
	// Closed admits normally while watching the rolling window.
	Closed State = iota
	// Open rejects everything until the cooldown elapses.
	Open
	// HalfOpen admits a bounded number of probe requests; one failure
	// reopens, a full set of successes closes.
	HalfOpen
)

var stateNames = [...]string{Closed: "closed", Open: "open", HalfOpen: "half-open"}

// String names the state.
func (s State) String() string { return stateNames[s] }

// BreakerConfig tunes the circuit breaker. Zero fields take the
// documented defaults.
type BreakerConfig struct {
	// Disabled turns the breaker off entirely: it admits everything
	// and records nothing.
	Disabled bool
	// ErrFracTrip trips the breaker when a full window's failure
	// fraction exceeds it (default 0.5).
	ErrFracTrip float64
	// LatencyP99Cycles additionally trips the breaker when a window's
	// p99 latency (stats.LogHist resolution, see breaker) exceeds it
	// (0 = latency does not trip).
	LatencyP99Cycles int64
	// MinSamples is the minimum window population before the window is
	// judged at all (default 16).
	MinSamples int64
	// CooldownCycles is how long the breaker stays Open before probing
	// (default 4 × Config.WindowCycles).
	CooldownCycles int64
	// HalfOpenProbes is how many probe requests HalfOpen admits
	// (default 8).
	HalfOpenProbes int64
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	out := c
	if out.ErrFracTrip <= 0 {
		out.ErrFracTrip = 0.5
	}
	if out.MinSamples <= 0 {
		out.MinSamples = 16
	}
	if out.HalfOpenProbes <= 0 {
		out.HalfOpenProbes = 8
	}
	return out
}

// breaker is the controller-internal circuit breaker: rolling
// error/latency windows judged at rotation time, Open with a cooldown,
// HalfOpen probing. All transitions happen on caller timestamps, so the
// breaker is as deterministic as the rest of the plane.
//
// A window keeps its first winCap successful latencies inline and
// takes its p99 with stats.LogHistQuantile, which answers exactly as a
// stats.LogHist of the same samples would. A window that sees more
// moves them into the spill histogram, allocated on the first such
// window and kept for the later ones. The fleet's health-check
// breakers take one probe per poll over a five-poll window and never
// spill; the apps' request-driven breakers do.
type breaker struct {
	cfg BreakerConfig

	state      State
	stateSince int64

	// current window accumulators, rotated by the controller's Poll
	// every WindowCycles.
	winStart int64
	winErr   int64
	winTotal int64
	winLat   [winCap]int64  // the first winCap successes' latencies
	winHist  *stats.LogHist // every success once a window spills; nil until then

	probesLeft   int64
	probeSuccess int64
}

// winCap is how many successful latencies a window keeps inline.
const winCap = 8

// successes is how many latencies the current window holds: each
// sample counted in winTotal that was not an error.
func (b *breaker) successes() int64 { return b.winTotal - b.winErr }

// record keeps a success's latency, already counted in winTotal:
// inline while the window has room, in the spill histogram after.
func (b *breaker) record(latency int64) {
	n := b.successes()
	if n <= winCap {
		b.winLat[n-1] = latency
		return
	}
	if n == winCap+1 {
		if b.winHist == nil {
			b.winHist = new(stats.LogHist)
		}
		for _, v := range b.winLat {
			b.winHist.Add(v)
		}
	}
	b.winHist.Add(latency)
}

// p99 is the window's p99 latency, as a stats.LogHist of its
// successes reports it.
func (b *breaker) p99() int64 {
	if n := b.successes(); n <= winCap {
		return stats.LogHistQuantile(b.winLat[:n], 99)
	}
	return b.winHist.Quantile(99)
}

// cooldown resolves the configured or defaulted open duration.
func (b *breaker) cooldown(c *Controller) int64 {
	if b.cfg.CooldownCycles > 0 {
		return b.cfg.CooldownCycles
	}
	return 4 * c.cfg.WindowCycles
}

// transition moves the breaker, emitting the span of the state being
// left plus a transition instant, and counting trips.
func (b *breaker) transition(c *Controller, to State, now int64) {
	from := b.state
	if from == to {
		return
	}
	c.sc.Span("overload", c.names.breakerSpan[from], 0, b.stateSince, now)
	c.sc.Instant("overload", c.names.breaker, 0, now,
		obs.S("from", from.String()), obs.S("to", to.String()))
	if to == Open {
		c.snap.BreakerTrips++
		c.sc.Count(c.names.breakerTrips, 1)
	}
	b.state = to
	b.stateSince = now
	if to == HalfOpen {
		b.probesLeft = b.cfg.HalfOpenProbes
		b.probeSuccess = 0
	}
	if fn := c.cfg.OnStateChange; fn != nil {
		fn(from, to, now)
	}
}

// breakerTick runs the breaker's time-driven transitions and window
// rotation; called from Controller.Poll.
func (c *Controller) breakerTick(now int64) {
	b := &c.breaker
	if b.cfg.Disabled {
		return
	}
	if b.state == Open && now-b.stateSince >= b.cooldown(c) {
		b.transition(c, HalfOpen, now)
	}
	if b.state != Closed {
		// Only Closed judges windows; Open/HalfOpen discard the
		// accumulators so stale samples never re-trip on close.
		b.resetWindow(now)
		return
	}
	if now-b.winStart < c.cfg.WindowCycles {
		return
	}
	if b.winTotal >= b.cfg.MinSamples {
		errFrac := float64(b.winErr) / float64(b.winTotal)
		lat := b.p99()
		if errFrac > b.cfg.ErrFracTrip ||
			(b.cfg.LatencyP99Cycles > 0 && lat > b.cfg.LatencyP99Cycles) {
			b.transition(c, Open, now)
		}
	}
	b.resetWindow(now)
}

// resetWindow starts a fresh window at now. Only a window that spilled
// has a histogram to clear; the inline latencies past successes() are
// never read.
func (b *breaker) resetWindow(now int64) {
	b.winStart = now
	if b.successes() > winCap {
		*b.winHist = stats.LogHist{}
	}
	b.winErr = 0
	b.winTotal = 0
}

// allow is the breaker's admission gate: Closed admits, Open rejects,
// HalfOpen admits while probe slots remain. probe reports that the
// admitted request is a half-open probe: probes are the breaker's own
// measurement traffic, so the controller must not additionally charge
// them to the token bucket (double-charging a probe both skews the
// reject fraction near the brownout boundary and can starve the probe
// set entirely when the bucket is empty — which is exactly when the
// breaker is trying to find out whether the backend recovered).
func (b *breaker) allow(c *Controller, now int64) (ok, probe bool) {
	if b.cfg.Disabled {
		return true, false
	}
	switch b.state {
	case Open:
		// Admission can arrive between polls; honor an elapsed cooldown
		// immediately so the first post-cooldown request probes.
		if now-b.stateSince >= b.cooldown(c) {
			b.transition(c, HalfOpen, now)
			return b.allow(c, now)
		}
		return false, false
	case HalfOpen:
		if b.probesLeft <= 0 {
			return false, false
		}
		b.probesLeft--
		return true, true
	default:
		return true, false
	}
}

// observe feeds one outcome into the window (Closed) or the probing
// verdict (HalfOpen).
func (b *breaker) observe(c *Controller, now, latency int64, failed bool) {
	if b.cfg.Disabled {
		return
	}
	switch b.state {
	case HalfOpen:
		if failed {
			b.transition(c, Open, now)
			return
		}
		b.probeSuccess++
		if b.probeSuccess >= b.cfg.HalfOpenProbes {
			b.transition(c, Closed, now)
		}
	case Closed:
		b.winTotal++
		if failed {
			b.winErr++
		} else {
			b.record(latency)
		}
	}
}
