// Package sim provides the discrete-event simulation kernel shared by
// the application models (mTCP, Shenango, FFWD): a deterministic RNG,
// an event queue in virtual cycles, and distribution helpers.
package sim

import (
	"container/heap"
	"errors"
	"math"
)

// RNG is a deterministic splitmix64 generator.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n).
func (r *RNG) Intn(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean,
// in integer cycles (at least 1).
func (r *RNG) Exp(mean float64) int64 {
	u := r.Float64()
	if u <= 0 {
		u = 1e-12
	}
	v := int64(-mean * math.Log(1-u))
	if v < 1 {
		v = 1
	}
	return v
}

// Event is a scheduled callback.
type Event struct {
	Time int64
	Fn   func()
	// seq breaks ties deterministically (FIFO at equal times).
	seq uint64
}

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Engine is a deterministic discrete-event simulator over virtual
// cycles.
type Engine struct {
	now   int64
	seq   uint64
	queue eventHeap
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in cycles.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn at absolute time t (clamped to now).
func (e *Engine) At(t int64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.queue, &Event{Time: t, Fn: fn, seq: e.seq})
}

// After schedules fn delay cycles from now.
func (e *Engine) After(delay int64, fn func()) { e.At(e.now+delay, fn) }

// Run processes events until the queue is empty or time reaches limit.
// Returns the number of events processed.
func (e *Engine) Run(limit int64) int {
	n, _ := e.RunDeadline(limit, Deadline{})
	return n
}

// ErrNoProgress reports an event loop that exceeded its progress
// deadline: either too many events in total, or too many events at a
// single instant (a livelock — callbacks rescheduling each other with
// zero delay never advance virtual time, so a plain Run would spin
// forever).
var ErrNoProgress = errors.New("sim: event loop exceeded its progress deadline")

// Deadline bounds an event-loop run so that a faulty model returns an
// error instead of hanging. Zero fields are unlimited.
type Deadline struct {
	// MaxEvents caps the total number of events processed.
	MaxEvents int64
	// MaxSameTime caps consecutive events processed without virtual
	// time advancing.
	MaxSameTime int64
}

// RunDeadline is Run with a progress deadline: it stops with
// ErrNoProgress as soon as either bound is exceeded, leaving the
// engine's queue and clock where they were (so the caller can report
// partial state).
func (e *Engine) RunDeadline(limit int64, d Deadline) (int, error) {
	n := 0
	var sameTime int64
	for len(e.queue) > 0 {
		ev := e.queue[0]
		if ev.Time > limit {
			break
		}
		if d.MaxEvents > 0 && int64(n) >= d.MaxEvents {
			return n, ErrNoProgress
		}
		if ev.Time == e.now {
			sameTime++
			if d.MaxSameTime > 0 && sameTime > d.MaxSameTime {
				return n, ErrNoProgress
			}
		} else {
			sameTime = 0
		}
		heap.Pop(&e.queue)
		e.now = ev.Time
		ev.Fn()
		n++
	}
	if e.now < limit {
		e.now = limit
	}
	return n, nil
}
