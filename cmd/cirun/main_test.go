package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/workloads"
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

// The -h text is cirun's CLI surface: every flag and its default.
func TestHelpGolden(t *testing.T) {
	fs := flag.NewFlagSet("cirun", flag.ContinueOnError)
	newFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.Usage()
	checkGolden(t, "help.golden", got.Bytes())
}

// writeProgram writes src to a fresh file and returns its path.
func writeProgram(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// Every mode's output on the repository's own programs: the Table-7
// radix workload, a translation-validation reproducer and the
// interleaving verifier's lost-update reproducer.
func TestModeGoldens(t *testing.T) {
	radix := writeProgram(t, "radix.ir", workloads.ByName("radix").Build(1).String())
	diamond := filepath.Join("..", "..", "internal", "sanitize", "testdata", "repro", "branch-diamond.ir")
	lostUpdate := filepath.Join("..", "..", "internal", "interleave", "testdata", "repro", "lost_update.ir")
	for _, tc := range []struct {
		golden string
		args   []string
		exit   int
	}{
		{"run.golden", []string{"-args", "0", radix}, 0},
		{"hot.golden", []string{"-hot", "5", "-args", "0", radix}, 0},
		{"print.golden", []string{"-print", diamond}, 0},
		{"costs.golden", []string{"-costs", radix}, 0},
		{"dump.golden", []string{"-dump", radix}, 0},
		{"interleave.golden", []string{"-interleave", "-probe-interval", "2", "-bound", "1", lostUpdate}, 1},
		// The oracle runs main(0), as the workloads are run; its
		// default argument, 4095, indexes past a Table-7 program's
		// memory.
		{"sanitize.golden", []string{"-sanitize", "-args", "0", radix}, 0},
		// -limit is the oracle's step budget: 1000 steps end every
		// design's runs early, which is inconclusive and fails the
		// check, not ok.
		{"sanitize_budget.golden", []string{"-sanitize", "-limit", "1000", "-args", "0", radix}, 1},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".golden"), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.exit {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.exit, stderr.Bytes())
			}
			checkGolden(t, tc.golden, stdout.Bytes())
		})
	}
}

// -trace reports the file it wrote on the stderr run was given, not on
// the process's, so an in-process caller sees it.
func TestTraceLineOnToolStderr(t *testing.T) {
	radix := writeProgram(t, "radix.ir", workloads.ByName("radix").Build(1).String())
	path := filepath.Join(t.TempDir(), "trace.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trace", path, "-args", "0", radix}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.Bytes())
	}
	if want := "trace: wrote " + path + " ("; !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr = %q, want a line starting %q", stderr.String(), want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error(err)
	}
}

// A program that fails to parse or to verify exits 1 with the parser's
// message in every mode, before any mode does its work.
func TestMalformedInput(t *testing.T) {
	for name, src := range map[string]string{
		"syntax": "func @main( {\n",
		"verify": "func @main() {\nentry:\n  %x = call @nosuch()\n  ret %x\n}\n",
	} {
		_, perr := ir.Parse(src)
		if perr == nil {
			t.Fatalf("%s: input parses", name)
		}
		want := "cirun: " + perr.Error() + "\n"
		path := writeProgram(t, name+".ir", src)
		for _, mode := range [][]string{nil, {"-hot", "5"}, {"-print"}, {"-costs"}, {"-dump"}, {"-interleave"}, {"-sanitize"}} {
			var stdout, stderr bytes.Buffer
			code := run(append(mode, path), &stdout, &stderr)
			if code != 1 || stdout.Len() != 0 || stderr.String() != want {
				t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 1 and %q", name, mode, code, stdout.String(), stderr.String(), want)
			}
		}
	}
}

// Command-line mistakes exit 2 with the usage; -h exits 0; a failed
// cadence gate exits 1.
func TestExitCodes(t *testing.T) {
	radix := writeProgram(t, "radix.ir", workloads.ByName("radix").Build(1).String())
	for _, tc := range []struct {
		args []string
		exit int
	}{
		{[]string{"-h"}, 0},
		{nil, 2},
		{[]string{radix, radix}, 2},
		{[]string{"-print", "-dump", radix}, 2},
		{[]string{"-hot", "3", "-sanitize", radix}, 2},
		{[]string{"-bound", "9", radix}, 2},
		{[]string{"-nosuchflag", radix}, 2},
		{[]string{"-args", "x", radix}, 1},
		{[]string{"-design", "bogus", radix}, 1},
		{[]string{filepath.Join(t.TempDir(), "missing.ir")}, 1},
		{[]string{"-slo-maxus", "5", "-args", "0", radix}, 1},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.exit {
			t.Errorf("%v: exit %d, want %d; stderr:\n%s", tc.args, code, tc.exit, stderr.Bytes())
		}
	}
}

func TestParseArgs(t *testing.T) {
	got, err := parseArgs("1, -2,3")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 3 {
		t.Errorf("parseArgs = %v, %v", got, err)
	}
	if got, err := parseArgs(""); err != nil || got != nil {
		t.Errorf("parseArgs(empty) = %v, %v", got, err)
	}
	if _, err := parseArgs("1,x"); err == nil {
		t.Error("parseArgs accepted a non-integer")
	}
}
