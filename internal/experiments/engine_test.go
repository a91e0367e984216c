package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from current output")

// checkGolden compares got with testdata/name, or under -update
// rewrites the file with it.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted (rerun with -update if intended):\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// detSubset is the workload selection the determinism tests sweep, the
// regression cells': big enough to exercise cross-cell cache
// sharing, small enough to run on every `go test`.
func detSubset(t *testing.T) []*workloads.Workload {
	t.Helper()
	sel, err := workloadsByName(baselineNames)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func renderOverheadSubset(t *testing.T, eng *engine.Engine) string {
	t.Helper()
	fig := measureFigureOverheadSel(eng, 1, 1, baselineDesigns, detSubset(t))
	var buf bytes.Buffer
	if err := overheadTable(fig, Inputs{}).render(&buf, "fig9", nil, fig.Errs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A cell that writes to a shared cached module instead of cloning it
// fails VerifyCache, which names the entry.
func TestVerifyCacheCatchesMutation(t *testing.T) {
	eng := testEngine()
	prog, err := compileCached(eng, workloads.ByName("histogram"), 1, core.WithDesign(instrument.CI))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCache(eng); err != nil {
		t.Fatalf("clean cache: %v", err)
	}
	prog.Mod.Funcs[0].Blocks[0].Instrs[0].Imm++
	if err := VerifyCache(eng); err == nil || !strings.Contains(err.Error(), "prog/histogram/s1/CI/") {
		t.Fatalf("err = %v, want the mutated program's entry", err)
	}
}

// The tentpole determinism claim: the sweep's rendered output is
// byte-identical at every worker count, and no cached module is
// mutated along the way.
func TestEngineWorkerDeterminism(t *testing.T) {
	var outputs []string
	for _, workers := range []int{1, 8, 3} {
		eng := engine.New(workers)
		outputs = append(outputs, renderOverheadSubset(t, eng))
		if err := VerifyCache(eng); err != nil {
			t.Errorf("workers=%d: %v", workers, err)
		}
	}
	for i, out := range outputs[1:] {
		if out != outputs[0] {
			t.Errorf("output at workers=%d differs from workers=1:\n%s\nvs\n%s",
				[]int{8, 3}[i], out, outputs[0])
		}
	}

	// ...and identical to the committed golden file, so the serial
	// pipeline's exact numbers are pinned across refactors. Refresh
	// with: go test ./internal/experiments/ -run Determinism -update
	checkGolden(t, "overhead_subset.golden", outputs[0])
}

// faultingWorkload builds a program whose main immediately loads from
// address -1: compilation succeeds, every VM run faults.
func faultingWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name:  "boom",
		Suite: "synthetic",
		Build: func(scale int) *ir.Module {
			m := ir.NewModule("boom")
			m.MemWords = 8
			f := m.NewFunc("main", 1)
			b := ir.NewBuilder(f)
			addr := b.Mov(-1)
			v := b.Load(addr, 0)
			b.Ret(v)
			f.Reindex()
			if err := m.Verify(); err != nil {
				panic(err)
			}
			return m
		},
	}
}

// One failing cell must cost exactly its own row: the rest of the
// sweep completes, the error is reported per cell, and the footer only
// appears when something actually failed.
func TestSweepPartialFailure(t *testing.T) {
	good, err := workloadsByName([]string{"radix", "histogram"})
	if err != nil {
		t.Fatal(err)
	}
	sel := []*workloads.Workload{good[0], faultingWorkload(), good[1]}
	designs := []instrument.Design{instrument.CI, instrument.Naive}
	fig := measureFigureOverheadSel(engine.New(4), 1, 1, designs, sel)

	if len(fig.Errs) != 1 {
		t.Fatalf("cell errors = %v, want exactly one", fig.Errs)
	}
	if ce := fig.Errs[0]; !strings.Contains(ce.Cell, "boom") || ce.Err == "" {
		t.Errorf("cell error %+v does not identify the failing cell", ce)
	}
	if len(fig.Rows) != 2 {
		t.Fatalf("rows = %v, want the two surviving workloads'", fig.Rows)
	}
	for i, name := range []string{"radix", "histogram"} {
		if rows := fig.Rows[i]; len(rows) != len(designs) || rows[0].Workload != name {
			t.Errorf("surviving workload %s lost its rows (%v)", name, rows)
		}
	}
	for _, m := range fig.Medians {
		if m <= 0 {
			t.Errorf("medians over surviving cells = %v, want positive", fig.Medians)
		}
	}

	var buf bytes.Buffer
	if err := overheadTable(fig, Inputs{}).render(&buf, "fig9", nil, fig.Errs); err == nil {
		t.Error("render must return an aggregate error for a failed sweep")
	}
	out := buf.String()
	if !strings.Contains(out, "1 sweep cell(s) failed") || !strings.Contains(out, "boom") {
		t.Errorf("error footer missing or anonymous:\n%s", out)
	}

	// A clean sweep writes no footer at all — that is what keeps
	// success output byte-identical to the legacy pipeline.
	var clean bytes.Buffer
	if err := overheadTable(fig, Inputs{}).render(&clean, "fig9", nil, nil); err != nil ||
		strings.Contains(clean.String(), "failed") {
		t.Errorf("clean sweep rendered a footer: err=%v output=%q", err, clean.String())
	}
}
