package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScope builds a deterministic scope exercising every event
// shape the trace writer handles: spans, instants, string and integer
// args, escaping, multiple categories and threads.
func goldenScope() *obs.Scope {
	s := obs.New(0)
	s.Span("vm", "run/main", 0, 0, 12500, obs.I("instrs", 5000), obs.I("probes", 20))
	s.Span("vm", "probe-fire", 0, 250, 310, obs.S("fn", "main"), obs.S("block", "loop"), obs.I("fired", 1))
	s.Instant("vm", "hw-interrupt", 1, 4000, obs.I("cost", 4800))
	s.Instant("engine", "cache-miss", 0, 1, obs.S("key", `mod/"quoted"\path`))
	s.Instant("engine", "cache-hit", 0, 2, obs.S("key", "mod/plain"))
	s.Span("mtcp", "ci-poll", 0, 5000, 7600, obs.I("rx_pkts", 3), obs.I("cost", 2600))
	s.Instant("compile", "stage/instrument", 0, 3)
	// More args than the per-event capacity: the excess is dropped.
	s.Instant("vm", "overfull", 2, 9000,
		obs.I("a", 1), obs.I("b", 2), obs.I("c", 3), obs.I("d", 4), obs.I("e", 5))
	return s
}

func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenScope().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// The emitted document must be valid JSON in the Chrome trace_event
// schema: a traceEvents array whose entries carry name/ph/ts/pid/tid,
// with dur on complete events.
func TestWriteTraceIsValidChromeJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenScope().WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("not valid JSON:\n%s", buf.Bytes())
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		OtherData       map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if doc.OtherData["dropped_events"] != "0" {
		t.Errorf("dropped_events = %q", doc.OtherData["dropped_events"])
	}
	var spans, instants, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur == nil {
				t.Errorf("span %q lacks dur", ev.Name)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		if ev.Name == "" || ev.TS == nil && ev.Ph != "M" {
			t.Errorf("malformed event %+v", ev)
		}
	}
	if spans != 3 || instants != 5 || meta == 0 {
		t.Errorf("spans=%d instants=%d meta=%d", spans, instants, meta)
	}
	// Events of the same category share a pid; different categories get
	// different pids (category = trace process).
	pids := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if p, ok := pids[ev.Cat]; ok && p != ev.PID {
			t.Errorf("category %q spans pids %d and %d", ev.Cat, p, ev.PID)
		}
		pids[ev.Cat] = ev.PID
	}
	if len(pids) != 4 {
		t.Errorf("got %d categories, want 4", len(pids))
	}
	// Arg overflow is truncated to capacity, not dropped entirely.
	for _, ev := range doc.TraceEvents {
		if ev.Name == "overfull" && len(ev.Args) != 4 {
			t.Errorf("overfull event kept %d args, want 4", len(ev.Args))
		}
	}
}

func TestWriteTraceNilScope(t *testing.T) {
	var buf bytes.Buffer
	if err := (*obs.Scope)(nil).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil-scope trace is not valid JSON: %s", buf.Bytes())
	}
}

func TestWriteTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := goldenScope().WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Error("trace file is not valid JSON")
	}
}
