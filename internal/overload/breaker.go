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
	// Disabled turns the breaker off entirely: it admits everything,
	// records nothing and carries no window histogram, which makes its
	// controller ~32 KB smaller.
	Disabled bool
	// ErrFracTrip trips the breaker when a full window's failure
	// fraction exceeds it (default 0.5).
	ErrFracTrip float64
	// LatencyP99Cycles additionally trips the breaker when a window's
	// p99 latency (from the window's stats.LogHist) exceeds it
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
// A disabled breaker never records a sample (breakerTick, allow and
// observe return first), so it has no window histogram: winHist is nil,
// and New allocates the ~31 KB LogHist only for an enabled breaker.
// A fleet runs most of its controllers (replica admission, tenant
// gates) with the breaker off.
type breaker struct {
	cfg BreakerConfig

	state      State
	stateSince int64

	// current window accumulators, rotated by the controller's Poll
	// every WindowCycles.
	winStart int64
	winErr   int64
	winTotal int64
	winHist  *stats.LogHist // nil when cfg.Disabled

	probesLeft   int64
	probeSuccess int64
}

// init configures the breaker; hist is its window histogram, nil
// exactly when cfg.Disabled.
func (b *breaker) init(cfg BreakerConfig, hist *stats.LogHist) {
	b.cfg = cfg
	b.winHist = hist
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
		lat := b.winHist.Quantile(99)
		if errFrac > b.cfg.ErrFracTrip ||
			(b.cfg.LatencyP99Cycles > 0 && lat > b.cfg.LatencyP99Cycles) {
			b.transition(c, Open, now)
		}
	}
	b.resetWindow(now)
}

// resetWindow starts a fresh window at now. Every sample the histogram
// holds was counted in winTotal, so an empty window (every poll of an
// Open or HalfOpen breaker, every idle rotation) has nothing to clear.
func (b *breaker) resetWindow(now int64) {
	b.winStart = now
	if b.winTotal == 0 {
		return
	}
	b.winErr = 0
	b.winTotal = 0
	*b.winHist = stats.LogHist{}
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
			b.winHist.Add(latency)
		}
	}
}
