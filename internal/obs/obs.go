// Package obs is the unified observability layer: a ring-buffered
// event tracer that renders Chrome trace_event JSON, composable named
// counters and log-scaled histograms built on internal/stats, and
// profiling hooks that attribute fired probes back to their IR
// function/block.
//
// One *Scope is threaded through the VM, the experiment engine and the
// application models. The zero value of the *pointer* is the disabled
// scope: every method is nil-receiver safe and a nil scope does
// nothing, so layers hold a plain *Scope field and call it
// unconditionally. Hot paths that would otherwise build variadic
// argument slices must still guard with s.Enabled() — the nil-receiver
// no-op does not stop the caller from allocating the arguments.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// maxEventArgs is the per-event argument capacity. Events carry a
// fixed-size array so recording never allocates per event once the
// ring exists; excess arguments are dropped.
const maxEventArgs = 4

// DefaultRingCap is the event-ring capacity used when New is given a
// non-positive one. At ~100 bytes/event this bounds a scope to a few
// MB while keeping the tail of a full figure sweep.
const DefaultRingCap = 1 << 16

// Arg is one key/value annotation on an event. Exactly one of Str
// (IsStr=true) or Val is meaningful.
type Arg struct {
	Key   string
	Str   string
	Val   int64
	IsStr bool
}

// I builds an integer-valued Arg.
func I(key string, v int64) Arg { return Arg{Key: key, Val: v} }

// S builds a string-valued Arg.
func S(key, v string) Arg { return Arg{Key: key, Str: v, IsStr: true} }

// Event is one trace entry. Ph follows the Chrome trace_event phase
// codes used here: 'X' complete (span with Dur), 'i' instant.
type Event struct {
	Cat  string
	Name string
	Ph   byte
	TS   int64
	Dur  int64
	TID  int32
	NArg int8
	Args [maxEventArgs]Arg
}

// siteKey identifies a probe site by its IR coordinates. It is a
// comparable struct so the hot-path map lookup needs no string
// concatenation.
type siteKey struct {
	Fn, Block string
}

// SiteStat is the per-probe-site profile: how often the site's probe
// executed and how often it actually fired the handler.
type SiteStat struct {
	Fn, Block   string
	Hits, Fired int64
}

// Scope is one observability session. All methods are safe for
// concurrent use and safe on a nil receiver (nil = disabled).
type Scope struct {
	mu      sync.Mutex
	ring    []Event
	next    int // ring write cursor
	wrapped bool
	dropped int64

	counters map[string]int64
	hists    map[string]*stats.LogHist
	sites    map[siteKey]*SiteStat

	clock atomic.Int64
}

// New returns an enabled Scope whose event ring keeps the most recent
// ringCap events (DefaultRingCap if ringCap <= 0). Counters,
// histograms and site profiles are unbounded by the ring.
func New(ringCap int) *Scope {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Scope{
		ring:     make([]Event, 0, ringCap),
		counters: map[string]int64{},
		hists:    map[string]*stats.LogHist{},
		sites:    map[siteKey]*SiteStat{},
	}
}

// Enabled reports whether the scope records anything. Hot paths use
// this to skip building event arguments entirely.
func (s *Scope) Enabled() bool { return s != nil }

// Tick returns a fresh monotonically increasing timestamp for layers
// that have no virtual clock of their own (engine cache, CLI startup).
// Ticks share the event timeline, so clockless events still order
// correctly among themselves. Returns 0 on a disabled scope.
func (s *Scope) Tick() int64 {
	if s == nil {
		return 0
	}
	return s.clock.Add(1)
}

// Advance moves the tick clock to at least ts, so subsequent Tick
// values sort after events stamped from a virtual clock.
func (s *Scope) Advance(ts int64) {
	if s == nil {
		return
	}
	for {
		cur := s.clock.Load()
		if cur >= ts || s.clock.CompareAndSwap(cur, ts) {
			return
		}
	}
}

func (s *Scope) record(ev Event) {
	s.mu.Lock()
	if len(s.ring) < cap(s.ring) {
		s.ring = append(s.ring, ev)
	} else if cap(s.ring) > 0 {
		// Full: overwrite the oldest event.
		s.ring[s.next] = ev
		s.next++
		if s.next == cap(s.ring) {
			s.next = 0
		}
		s.wrapped = true
		s.dropped++
	}
	s.mu.Unlock()
}

func fillArgs(ev *Event, args []Arg) {
	n := len(args)
	if n > maxEventArgs {
		n = maxEventArgs
	}
	ev.NArg = int8(n)
	copy(ev.Args[:], args[:n])
}

// Instant records a point event ('i') at virtual time ts.
func (s *Scope) Instant(cat, name string, tid int32, ts int64, args ...Arg) {
	if s == nil {
		return
	}
	ev := Event{Cat: cat, Name: name, Ph: 'i', TS: ts, TID: tid}
	fillArgs(&ev, args)
	s.record(ev)
}

// Span records a complete event ('X') covering [ts, end].
func (s *Scope) Span(cat, name string, tid int32, ts, end int64, args ...Arg) {
	if s == nil {
		return
	}
	dur := end - ts
	if dur < 0 {
		dur = 0
	}
	ev := Event{Cat: cat, Name: name, Ph: 'X', TS: ts, Dur: dur, TID: tid}
	fillArgs(&ev, args)
	s.record(ev)
}

// Count adds delta to the named counter.
func (s *Scope) Count(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.counters[name] += delta
	s.mu.Unlock()
}

// Counter returns the current value of the named counter.
func (s *Scope) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Observe records one sample into the named log-scaled histogram.
func (s *Scope) Observe(name string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	h := s.hists[name]
	if h == nil {
		h = &stats.LogHist{}
		s.hists[name] = h
	}
	h.Add(v)
	s.mu.Unlock()
}

// Hist returns a snapshot copy of the named histogram, or nil if no
// sample was ever observed under that name.
func (s *Scope) Hist(name string) *stats.LogHist {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.hists[name]
	if h == nil {
		return nil
	}
	cp := *h
	return &cp
}

// SiteHit attributes one probe execution to IR site fn/block; fired
// marks executions that actually invoked the interrupt handler. The
// fn/block strings come from long-lived IR structures, so recording
// them allocates only on the first hit of a new site.
func (s *Scope) SiteHit(fn, block string, fired bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	st := s.sites[siteKey{fn, block}]
	if st == nil {
		st = &SiteStat{Fn: fn, Block: block}
		s.sites[siteKey{fn, block}] = st
	}
	st.Hits++
	if fired {
		st.Fired++
	}
	s.mu.Unlock()
}

// HotSites returns up to n probe sites ordered by descending hit
// count, ties broken by fn/block name for determinism. n <= 0 returns
// all sites.
func (s *Scope) HotSites(n int) []SiteStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]SiteStat, 0, len(s.sites))
	for _, st := range s.sites {
		out = append(out, *st)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		if out[i].Fn != out[j].Fn {
			return out[i].Fn < out[j].Fn
		}
		return out[i].Block < out[j].Block
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Dropped returns how many events were overwritten by ring wraparound.
func (s *Scope) Dropped() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Events returns the retained events oldest-first (a copy).
func (s *Scope) Events() []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eventsLocked()
}

func (s *Scope) eventsLocked() []Event {
	if !s.wrapped {
		return append([]Event(nil), s.ring...)
	}
	out := make([]Event, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	out = append(out, s.ring[:s.next]...)
	return out
}
