// Quantum policies: pluggable per-ciid interval control. The paper
// fixes one probe interval per run; LibPreemptible-style systems want
// the preemption quantum to adapt to the observed delivery error, per
// request class. QuantumPolicy is the seam: the runtime reports every
// inter-fire gap to the handler's installed policy and applies the
// interval the policy answers with. Policies are pure interval
// controllers — overrun counting, IR-gate recomputation and the
// first-fire skip stay in the runtime.

package ciruntime

import "repro/internal/stats"

// QuantumPolicy controls one handler's target interval. Reset is
// called when the policy is installed and whenever an external actor
// (an overload breaker, an app restart) snaps the handler back to its
// registered base interval; Observe is called once per fire (except
// the first, whose gap is meaningless) with the observed gap and the
// interval that was in force, and returns the interval to use next
// plus whether this fire classifies as a handler overrun.
//
// Policies must be deterministic: given the same Reset/Observe call
// sequence they must return the same intervals. The experiment engine
// relies on this for byte-identical reports at any worker count.
type QuantumPolicy interface {
	Reset(baseCycles int64)
	Observe(gapCycles, curCycles int64) (nextCycles int64, overrun bool)
}

// Fixed is the identity policy: the interval never moves and no fire
// is classified as an overrun. It exists so callers can thread "no
// adaptation" through the same plumbing as the adaptive policies.
type Fixed struct{}

// Reset implements QuantumPolicy.
func (Fixed) Reset(int64) {}

// Observe implements QuantumPolicy.
func (Fixed) Observe(_, cur int64) (int64, bool) { return cur, false }

// AIMD is the additive-increase/multiplicative-decrease controller:
// every overrun (a gap past OverrunFactor × the current interval)
// doubles the interval up to MaxBackoffMult × base — backing the
// polling rate off a thread that cannot keep up — and TightenAfter
// consecutive on-time fires shrink it additively (base/8 per step)
// back toward base. Zero fields take the documented defaults; a
// positive OverrunFactor ≤ 1 is honored (mtcp's strict "cost >
// interval" classification is factor 1).
type AIMD struct {
	// OverrunFactor classifies a fire as an overrun when its gap
	// exceeds factor × the current interval (default 2).
	OverrunFactor float64
	// MaxBackoffMult caps the backed-off interval at mult × base
	// (default 8).
	MaxBackoffMult int64
	// TightenAfter is the number of consecutive on-time fires before
	// the interval re-tightens additively (default 4).
	TightenAfter int64

	base   int64
	streak int64
}

// Reset implements QuantumPolicy: rebase and clear the on-time streak.
func (p *AIMD) Reset(base int64) {
	p.base = base
	p.streak = 0
}

// Observe implements QuantumPolicy. Its trajectories are pinned in
// testdata/aimd_trajectories.golden.
func (p *AIMD) Observe(gap, cur int64) (int64, bool) {
	factor := p.OverrunFactor
	if factor <= 0 {
		factor = 2
	}
	mult := p.MaxBackoffMult
	if mult < 1 {
		mult = 8
	}
	after := p.TightenAfter
	if after <= 0 {
		after = 4
	}
	if float64(gap) > factor*float64(cur) {
		p.streak = 0
		next := cur * 2
		if cap := p.base * mult; next > cap {
			next = cap
		}
		return next, true
	}
	p.streak++
	if p.streak >= after && cur > p.base {
		p.streak = 0
		next := cur - p.base/8
		if next < p.base {
			next = p.base
		}
		return next, false
	}
	return cur, false
}

// FeedbackPID defaults.
const (
	pidDefaultQuantile = 99.9
	pidDefaultGain     = 0.5
	pidDefaultIGain    = 0.1
	pidDefaultWindow   = 32
	pidDefaultMinFrac  = 0.25
)

// FeedbackPID is a feedback controller on the delivery-error tail:
// it accumulates observed inter-fire gaps into per-request-class
// log-scaled histograms (stats.LogHist, the same accumulator behind
// the obs interval-error metrics) and, once per Window observations,
// steers the interval so the worst class's Quantile of the gap lands
// on the registered base interval. Probe quantization and handler
// cost make delivery systematically late — the tail gap always sits
// above the target — so the controller converges below base, polling
// slightly more often to compensate exactly the measured lateness.
// That is what lets it beat a fixed interval on p99.9 gap error under
// mixed request classes: the fixed design eats the full lateness of
// the most expensive class, the controller subtracts it.
//
// The controller is a PI loop (Gain × error + IGain × ∑error) on the
// relative tail error (tailGap − base)/base, clamped to
// [MinFrac × base, MaxBackoffMult × base]. All state is self-contained
// and deterministic.
type FeedbackPID struct {
	// Quantile is the gap percentile steered onto the base interval,
	// in LogHist's 0..100 scale (default 99.9).
	Quantile float64
	// Gain and IGain are the proportional and integral coefficients
	// (defaults 0.5 and 0.1).
	Gain  float64
	IGain float64
	// Window is how many observations feed one control step
	// (default 32); each step drains the window histograms.
	Window int
	// MaxBackoffMult caps the interval at mult × base (default 8),
	// MinFrac floors it at frac × base (default 0.25).
	MaxBackoffMult int64
	MinFrac        float64
	// ClassOf, when non-nil, names the request class of the next
	// observation (small dense ints); each class gets its own window
	// histogram and the worst class drives the step. Nil means one
	// class.
	ClassOf func() int

	base     int64
	hists    []*stats.LogHist
	pending  int
	integral float64
	cur      float64 // continuous interval state, avoids quantization stalls
}

// Reset implements QuantumPolicy: rebase, drop window state and the
// integral term.
func (p *FeedbackPID) Reset(base int64) {
	p.base = base
	p.hists = nil
	p.pending = 0
	p.integral = 0
	p.cur = float64(base)
}

// Observe implements QuantumPolicy.
func (p *FeedbackPID) Observe(gap, cur int64) (int64, bool) {
	if p.base <= 0 { // installed without Reset; adopt the live interval
		p.Reset(cur)
	}
	// Overrun classification matches the AIMD default (gap > 2×cur) so
	// Overruns() stays meaningful across policies.
	overrun := float64(gap) > 2*float64(cur)

	class := 0
	if p.ClassOf != nil {
		class = p.ClassOf()
		if class < 0 {
			class = 0
		}
	}
	for len(p.hists) <= class {
		p.hists = append(p.hists, nil)
	}
	if p.hists[class] == nil {
		p.hists[class] = &stats.LogHist{}
	}
	p.hists[class].Add(gap)
	p.pending++

	window := p.Window
	if window <= 0 {
		window = pidDefaultWindow
	}
	if p.pending < window {
		return cur, overrun
	}
	p.pending = 0

	q := p.Quantile
	if q <= 0 {
		q = pidDefaultQuantile
	}
	// The worst class's tail gap drives the setpoint: adapting to the
	// mean would let one expensive class blow the shared thread's tail.
	var worst int64
	for _, h := range p.hists {
		if h == nil || h.N() == 0 {
			continue
		}
		if t := h.Quantile(q); t > worst {
			worst = t
		}
	}
	for i, h := range p.hists {
		if h != nil && h.N() > 0 {
			p.hists[i] = &stats.LogHist{}
		}
	}
	if worst == 0 {
		return cur, overrun
	}

	gain := p.Gain
	if gain <= 0 {
		gain = pidDefaultGain
	}
	igain := p.IGain
	if igain <= 0 {
		igain = pidDefaultIGain
	}
	err := (float64(worst) - float64(p.base)) / float64(p.base)
	p.integral += err
	ctrl := gain*err + igain*p.integral

	minFrac := p.MinFrac
	if minFrac <= 0 {
		minFrac = pidDefaultMinFrac
	}
	mult := p.MaxBackoffMult
	if mult < 1 {
		mult = 8
	}
	p.cur = float64(p.base) * (1 - ctrl)
	if floor := minFrac * float64(p.base); p.cur < floor {
		p.cur = floor
		// Anti-windup: the integral must not keep growing while the
		// actuator is pinned at the floor.
		p.integral -= err
	}
	if cap := float64(p.base * mult); p.cur > cap {
		p.cur = cap
		p.integral -= err
	}
	next := int64(p.cur)
	if next < 1 {
		next = 1
	}
	return next, overrun
}
