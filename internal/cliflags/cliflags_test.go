package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ci/instrument"
)

func newFlags(t *testing.T, add func(f *Flags) *Flags, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := add(New(fs))
	if err := f.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestParseDesignAcceptsAllSpellings(t *testing.T) {
	for name, want := range DesignByName {
		got, err := ParseDesign(name)
		if err != nil || got != want {
			t.Errorf("ParseDesign(%q) = %v, %v", name, got, err)
		}
		// Case-insensitive.
		if got, err := ParseDesign(strings.ToUpper(name)); err != nil || got != want {
			t.Errorf("ParseDesign(%q) = %v, %v", strings.ToUpper(name), got, err)
		}
	}
	if _, err := ParseDesign("bogus"); err == nil || !strings.Contains(err.Error(), "ci") {
		t.Errorf("ParseDesign(bogus) error should list valid names, got %v", err)
	}
}

func TestSharedDefaults(t *testing.T) {
	f := newFlags(t, func(f *Flags) *Flags {
		return f.AddDesign().AddCompile().AddEngine().AddSeed().AddScale().AddObs()
	})
	if f.Design != "ci" || f.ProbeInterval != 250 || f.AllowableError != 0 {
		t.Errorf("compile defaults: %+v", f)
	}
	if f.Workers != 0 {
		t.Errorf("engine defaults: %+v", f)
	}
	if f.Seed != 1 || f.Scale != 1 {
		t.Errorf("seed/scale defaults: %+v", f)
	}
	if f.TracePath != "" || f.Metrics {
		t.Errorf("obs defaults: %+v", f)
	}
	d, err := f.ParseDesign()
	if err != nil || d != instrument.CI {
		t.Errorf("default design = %v, %v", d, err)
	}
}

func TestScopeDisabledWithoutObsFlags(t *testing.T) {
	f := newFlags(t, func(f *Flags) *Flags { return f.AddObs() })
	if f.Scope().Enabled() {
		t.Error("scope enabled without -trace/-metrics")
	}
}

func TestScopeEnabledAndMemoized(t *testing.T) {
	f := newFlags(t, func(f *Flags) *Flags { return f.AddObs() }, "-metrics")
	s := f.Scope()
	if !s.Enabled() {
		t.Fatal("-metrics should enable the scope")
	}
	if f.Scope() != s {
		t.Error("Scope not memoized")
	}
	f2 := newFlags(t, func(f *Flags) *Flags { return f.AddObs() }, "-trace", "/tmp/x.json")
	if !f2.Scope().Enabled() {
		t.Error("-trace should enable the scope")
	}
}

func TestEngineWiresScopeObserver(t *testing.T) {
	f := newFlags(t, func(f *Flags) *Flags { return f.AddEngine().AddObs() },
		"-workers", "1", "-metrics")
	eng := f.Engine()
	if eng.Obs != f.Scope() {
		t.Error("engine not attached to the CLI scope")
	}
	// A cache lookup must land in the scope's counters.
	if _, err := eng.Cache.Get("k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Cache.Get("k", func() (any, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if f.Scope().Counter("engine/cache_miss") != 1 || f.Scope().Counter("engine/cache_hit") != 1 {
		t.Errorf("cache counters: miss=%d hit=%d",
			f.Scope().Counter("engine/cache_miss"), f.Scope().Counter("engine/cache_hit"))
	}
}

func TestFinishWritesTraceAndMetrics(t *testing.T) {
	path := t.TempDir() + "/t.json"
	f := newFlags(t, func(f *Flags) *Flags { return f.AddObs() },
		"-trace", path, "-metrics")
	f.Scope().Count("x", 1)
	var sb, errb strings.Builder
	if err := f.Finish(&sb, &errb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "x") {
		t.Errorf("metrics output lacks counter: %q", sb.String())
	}
	if want := "trace: wrote " + path + " ("; !strings.HasPrefix(errb.String(), want) {
		t.Errorf("stderr = %q, want a line starting %q", errb.String(), want)
	}
}

func TestSLOFlags(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		p999      float64
		maxReject float64
		soak      int64
	}{
		{"defaults", nil, 500, 0.1, 26_000_000},
		{"tightened", []string{"-slo-p999us", "150", "-max-reject", "0.02"}, 150, 0.02, 26_000_000},
		{"disabled guard", []string{"-slo-p999us", "0", "-max-reject", "0"}, 0, 0, 26_000_000},
		{"long soak", []string{"-soak-duration", "520000000"}, 500, 0.1, 520_000_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFlags(t, func(f *Flags) *Flags { return f.AddSLO() }, tc.args...)
			if f.SLOP999Us != tc.p999 || f.MaxReject != tc.maxReject || f.SoakDuration != tc.soak {
				t.Errorf("parsed %+v, want p999=%v maxReject=%v soak=%v",
					f, tc.p999, tc.maxReject, tc.soak)
			}
			slo := f.SLO()
			if slo.P999Us != tc.p999 || slo.MaxRejectFrac != tc.maxReject {
				t.Errorf("SLO() = %+v", slo)
			}
		})
	}
}

// -bound outside 1-3 fails at parse time with the usage, for every tool
// that registers it; in range it parses.
func TestBoundRange(t *testing.T) {
	for _, tc := range []struct {
		arg string
		ok  bool
	}{{"0", false}, {"1", true}, {"3", true}, {"4", false}, {"7", false}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		var out strings.Builder
		fs.SetOutput(&out)
		f := New(fs).AddBound()
		err := f.Parse([]string{"-bound", tc.arg})
		switch {
		case tc.ok && err != nil:
			t.Errorf("-bound %s: %v", tc.arg, err)
		case tc.ok && f.Bound != int(tc.arg[0]-'0'):
			t.Errorf("-bound %s parsed as %d", tc.arg, f.Bound)
		case !tc.ok && err == nil:
			t.Errorf("-bound %s accepted, want a parse error", tc.arg)
		case !tc.ok && !strings.Contains(out.String(), "context bound"):
			t.Errorf("-bound %s: no usage printed:\n%s", tc.arg, out.String())
		}
	}
	// A tool without -bound leaves Bound at 0, which is no error.
	newFlags(t, func(f *Flags) *Flags { return f.AddSeed() })
}

func TestFleetZoneFlags(t *testing.T) {
	f := newFlags(t, func(f *Flags) *Flags { return f.AddFleet() })
	if f.Zones != 1 || f.Migrate {
		t.Errorf("fleet defaults: zones=%d migrate=%t, want 1/false", f.Zones, f.Migrate)
	}
	cfg, err := f.FleetConfig(26_000_000)
	if err != nil || cfg.Zones != 1 || cfg.Migrate {
		t.Errorf("default FleetConfig: %+v, %v", cfg, err)
	}

	f = newFlags(t, func(f *Flags) *Flags { return f.AddFleet() },
		"-zones", "4", "-migrate", "-replicas", "16")
	cfg, err = f.FleetConfig(26_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Zones != 4 || !cfg.Migrate || cfg.Replicas != 16 {
		t.Errorf("FleetConfig = %+v, want zones=4 migrate=true replicas=16", cfg)
	}
}

func TestQuantumFlag(t *testing.T) {
	f := newFlags(t, func(f *Flags) *Flags { return f.AddQuantum() })
	if qp, err := f.ParseQuantum(); err != nil || qp != nil {
		t.Errorf("default -quantum-policy should resolve to a nil factory (err %v, nil=%t)", err, qp == nil)
	}
	for _, name := range []string{"aimd", "feedback", "AIMD"} {
		f := newFlags(t, func(f *Flags) *Flags { return f.AddQuantum() }, "-quantum-policy", name)
		qp, err := f.ParseQuantum()
		if err != nil || qp == nil {
			t.Errorf("-quantum-policy %s: nil=%t, err=%v", name, qp == nil, err)
			continue
		}
		if qp() == nil {
			t.Errorf("-quantum-policy %s: factory returned nil policy", name)
		}
	}
	if _, err := ParseQuantum("bogus"); err == nil {
		t.Error("ParseQuantum accepted an unknown policy")
	}
}

func TestProfileFlags(t *testing.T) {
	cases := []struct {
		name     string
		cpu, mem bool
	}{
		{"neither", false, false},
		{"cpu only", true, false},
		{"mem only", false, true},
		{"both", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpuPath, memPath := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
			var args []string
			if tc.cpu {
				args = append(args, "-cpuprofile", cpuPath)
			}
			if tc.mem {
				args = append(args, "-memprofile", memPath)
			}
			f := newFlags(t, func(f *Flags) *Flags { return f.AddProfile() }, args...)
			stop, err := f.StartProfile()
			if err != nil {
				t.Fatal(err)
			}
			sink = make([]byte, 1<<20) // something for the allocation profile to hold
			if err := stop(); err != nil {
				t.Fatal(err)
			}
			if err := stop(); err != nil {
				t.Errorf("second stop: %v", err)
			}
			for path, want := range map[string]bool{cpuPath: tc.cpu, memPath: tc.mem} {
				st, err := os.Stat(path)
				switch {
				case want && err != nil:
					t.Errorf("%s: %v", filepath.Base(path), err)
				case want && st.Size() == 0:
					t.Errorf("%s is empty", filepath.Base(path))
				case !want && err == nil:
					t.Errorf("%s was created without its flag", filepath.Base(path))
				}
			}
		})
	}
	t.Run("unwritable path", func(t *testing.T) {
		bad := filepath.Join(t.TempDir(), "missing", "cpu.prof")
		f := newFlags(t, func(f *Flags) *Flags { return f.AddProfile() }, "-cpuprofile", bad)
		if _, err := f.StartProfile(); err == nil {
			t.Error("StartProfile succeeded on a path it cannot create")
		}
	})
}

var sink []byte
