package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans are recorded from the
// harness, around public calls; nothing inside the program is
// instrumented.
type span struct {
	// Name is "layer.call", e.g. "ir.Parse"; the layer is the prefix.
	Name string
	// Start and End are offsets from the tracer's origin.
	Start, End time.Duration
	// Parent is the index of the span that caused this one, or -1.
	Parent int
	// Req identifies the request (program or run index) the span
	// belongs to; spans of one request share it.
	Req int
	// Detached marks a child that was timed separately on the same
	// input after its parent returned, to decompose a layer hidden
	// inside one public call. Its whole duration counts against the
	// parent's self time although the intervals do not overlap.
	Detached bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer returns the span's layer: the name up to the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so one rep function serves the traced and the
// untraced run.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, req, parent int, detached bool) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Detached: detached})
	id := len(t.spans) - 1
	t.spans[id].Start = time.Since(t.origin)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin)
}

// total sums the durations of the spans named name, from index from on.
func (t *tracer) total(name string, from int) time.Duration {
	var d time.Duration
	for _, s := range t.spans[from:] {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that nested children cover (their union, so
// overlapping children are not subtracted twice) and minus the full
// duration of detached children. Noise can make separately timed
// children add up to more than the parent; self time is floored at 0.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ a, b time.Duration }
	nested := make(map[int][]iv)
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Detached {
			self[s.Parent] -= s.dur()
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if b > a {
			nested[s.Parent] = append(nested[s.Parent], iv{a, b})
		}
	}
	for p, ivs := range nested {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		cur := ivs[0]
		for _, v := range ivs[1:] {
			if v.a <= cur.b {
				cur.b = max(cur.b, v.b)
				continue
			}
			self[p] -= cur.b - cur.a
			cur = v
		}
		self[p] -= cur.b - cur.a
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerGroups are the three groups every workload's rep wall is split
// over.
var layerGroups = map[string]string{
	"ir": "compiler", "cfg": "compiler", "opt": "compiler", "analysis": "compiler", "instrument": "compiler", "core": "compiler",
	"vm": "vm", "ciruntime": "vm",
	"fleet": "fleet", "overload": "fleet", "faults": "fleet", "stats": "fleet",
}

// groupShares splits wall over the layer groups by the self time of
// spans[from:].
func groupShares(spans []span, from int, wall time.Duration) map[string]float64 {
	shares := map[string]float64{"compiler": 0, "vm": 0, "fleet": 0}
	self := selfTimes(spans)
	for i := from; i < len(spans); i++ {
		if g, ok := layerGroups[spans[i].layer()]; ok {
			shares[g] += float64(self[i]) / float64(wall)
		}
	}
	return shares
}

// chromeEvent is one Chrome trace_event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as a Chrome trace_event document
// (microsecond timestamps) that `ciexp tracecheck` accepts.
func (t *tracer) writeChrome(w io.Writer) error {
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "req": s.Req, "detached": s.Detached},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}

// checkChromeTrace applies the checks of `ciexp tracecheck`: valid
// JSON, a traceEvents array, and a name and a one-character phase on
// every event. It returns the number of events.
func checkChromeTrace(data []byte) (int, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("trace: missing traceEvents array")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || len(ev.Ph) != 1 {
			return 0, fmt.Errorf("trace: event %d malformed (name=%q ph=%q)", i, ev.Name, ev.Ph)
		}
	}
	return len(doc.TraceEvents), nil
}
