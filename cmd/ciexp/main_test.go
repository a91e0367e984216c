package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata from the current tool")

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from %s (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// The -h text is ciexp's CLI surface: the usage line generated from
// experiments.Figures plus every flag's default. A flag or subcommand
// that vanishes, or a default that moves, shows up here.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("ciexp", flag.ContinueOnError)
	newFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.Usage()
	checkGolden(t, "help.golden", got.Bytes())
}

// The output contract: every figure at -quick, the fleet sweep in the
// two shapes its flags change, and two runs whose gates fail, byte for
// byte, with their exit status and stderr. The goldens are written from
// a serial run (-workers 1) and checked at -workers 4, so a pass also
// says that no printed row depends on the worker count. Refresh with
// go test ./cmd/ciexp -update after an intended change.
func TestOutputGolden(t *testing.T) {
	workers := "4"
	if *update {
		workers = "1"
	}
	for _, tc := range []struct {
		golden string
		args   []string
		code   int
		stderr string
	}{
		{"quick_all.golden", []string{"-quick", "all"}, 0, ""},
		{"fleet_replicas4.golden", []string{"-quick", "-replicas", "4", "fleet"}, 0, ""},
		{"fleet_zones2_migrate.golden", []string{"-quick", "-zones", "2", "-migrate", "fleet"}, 0, ""},
		// A 1 µs p99.9 bound fails every admission row of the ramp and
		// every soak phase; each figure's error reaches stderr, named once.
		{"gate_violations.golden", []string{"-quick", "-slo-p999us", "1", "ramp", "soak"}, 1,
			"ciexp: ramp: 4 SLO violation(s)\nciexp: soak: 2 guard violation(s)\n"},
		// A 1 ms horizon is too short for the crash and zone plans to
		// play out, so both fleet pairs fail their guards.
		{"fleet_gate_violations.golden", []string{"-quick", "-soak-duration", "2600000", "fleet"}, 1,
			"ciexp: fleet: 3 resilience violation(s)\n"},
		// An unknown balancer policy fails the figure before it runs a
		// cell: nothing on stdout, and stderr names the figure once.
		{"fleet_bad_lb.golden", []string{"-quick", "-lb", "bad", "fleet"}, 1,
			"ciexp: fleet: unknown balancer policy \"bad\" (want rr, least, or p2c)\n"},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(append([]string{"-workers", workers}, tc.args...), &stdout, &stderr)
			if code != tc.code || stderr.String() != tc.stderr {
				t.Fatalf("exit %d, want %d; stderr:\n%s\nwant:\n%s", code, tc.code, stderr.Bytes(), tc.stderr)
			}
			checkGolden(t, tc.golden, stdout.Bytes())
		})
	}
}

// -trace reports the file it wrote on the stderr run was given, not on
// the process's, so an in-process caller sees it.
func TestTraceLineOnToolStderr(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-trace", path, "allowable"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.Bytes())
	}
	if want := "trace: wrote " + path + " ("; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr = %q, want a line starting %q", stderr.String(), want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error(err)
	}
}

// Every named figure runs, once and in experiments.Figures order; an
// unknown name rejects the whole command line before anything runs.
func TestSelectFigures(t *testing.T) {
	var every []string
	for _, fig := range experiments.Figures {
		every = append(every, fig.Name)
	}
	for _, tc := range []struct {
		args []string
		want []string // nil: rejected
	}{
		{[]string{"fig7"}, []string{"fig7"}},
		{[]string{"fig8", "fig4", "fig8"}, []string{"fig4", "fig8"}},
		{[]string{"all"}, every},
		{[]string{"fig7", "all"}, every},
		{[]string{"fig7", "nosuchfigure"}, nil},
		{[]string{"tracecheck"}, nil},
	} {
		figs, err := selectFigures(tc.args)
		var got []string
		for _, fig := range figs {
			got = append(got, fig.Name)
		}
		switch {
		case tc.want == nil && err == nil:
			t.Errorf("%v: selected %v, want an error", tc.args, got)
		case tc.want != nil && err != nil:
			t.Errorf("%v: %v", tc.args, err)
		case !slices.Equal(got, tc.want):
			t.Errorf("%v: selected %v, want %v", tc.args, got, tc.want)
		}
	}
}

// fleetplan prints the fault schedule ciexp fleet's cells replay, at
// the -soak-duration horizon those cells run.
func TestFleetPlanGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-zones", "4", "-migrate", "fleetplan"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.Bytes())
	}
	golden := filepath.Join("..", "..", "internal", "experiments", "testdata", "fleet_plan.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("fleetplan drifted from %s:\ngot:\n%s\nwant:\n%s", golden, stdout.Bytes(), want)
	}
}

// A command line naming no subcommand, an unknown one, or a subcommand
// with the wrong operands exits 2 before anything runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nosuchfigure"},
		{"fig7", "nosuchfigure"},
		{"tracecheck"},
		{"fleetplan", "extra"},
		{"-bound", "9", "fig7"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, stdout.String())
		}
	}
}
