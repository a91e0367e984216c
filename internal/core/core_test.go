package core

import (
	"strings"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/vm"
	"repro/internal/workloads"
)

const loopSrc = `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`

func TestCompileTextAndRun(t *testing.T) {
	prog, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.CI), WithProbeInterval(200))
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	res, err := prog.Run("main",
		WithThreads(1),
		WithArgv(200000),
		WithInterval(5000),
		WithHandler(func(uint64) { fires++ }),
		WithLimit(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Returns[0] != 19999900000 {
		t.Errorf("result = %d", res.Returns[0])
	}
	if fires == 0 {
		t.Error("handler never fired")
	}
	if res.Stats[0].Probes == 0 {
		t.Error("no probes executed")
	}
}

func TestCompileDoesNotMutateSource(t *testing.T) {
	src := ir.MustParse(loopSrc)
	before := src.String()
	if _, err := Compile(src, WithDesign(instrument.CI), WithProbeInterval(100)); err != nil {
		t.Fatal(err)
	}
	if src.String() != before {
		t.Error("Compile mutated the source module")
	}
}

func TestCompileRejectsInvalidModule(t *testing.T) {
	m := ir.NewModule("bad")
	f := m.NewFunc("f", 0)
	f.NewBlock("entry") // unterminated
	if _, err := Compile(m); err == nil {
		t.Error("Compile accepted an invalid module")
	}
}

func TestExportCosts(t *testing.T) {
	prog, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.CI), WithProbeInterval(100))
	if err != nil {
		t.Fatal(err)
	}
	data, err := prog.ExportCosts()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "main") {
		t.Errorf("cost file lacks main: %s", data)
	}
	// Non-CI designs have no cost table.
	progN, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := progN.ExportCosts(); err == nil {
		t.Error("Naive design should not export costs")
	}
}

func TestRunMultiThreads(t *testing.T) {
	wl := workloads.ByName("histogram")
	prog, err := Compile(wl.Build(1), WithDesign(instrument.CI), WithProbeInterval(250))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run("main", WithThreads(4), WithInterval(5000), WithLimit(60_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != 4 {
		t.Fatalf("stats for %d threads", len(res.Stats))
	}
	for i, s := range res.Stats {
		if s.Instrs == 0 {
			t.Errorf("thread %d idle", i)
		}
	}
}

func TestRunRecordsIntervals(t *testing.T) {
	prog, err := Compile(ir.MustParse(loopSrc), WithDesign(instrument.CI), WithProbeInterval(200))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Run("main",
		WithArgv(500000),
		WithInterval(5000),
		WithRecordIntervals(true),
		WithLimit(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals[0]) < 10 {
		t.Errorf("only %d intervals recorded", len(res.Intervals[0]))
	}
}

func TestRunUnknownFunction(t *testing.T) {
	prog, err := Compile(ir.MustParse(loopSrc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Run("nosuch"); err == nil {
		t.Error("Run accepted unknown function")
	}
}

func TestCompileWithOptimizer(t *testing.T) {
	src := `
func @main(%n) {
entry:
  %a = mov 6
  %b = mul %a, 7
  %dead = add %b, 99
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %b
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`
	plain, err := Compile(ir.MustParse(src), WithDesign(instrument.CI), WithProbeInterval(200))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Compile(ir.MustParse(src), WithDesign(instrument.CI), WithProbeInterval(200), WithOptimize(true))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := plain.Run("main", WithArgv(1000), WithLimit(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	ro, err := opt.Run("main", WithArgv(1000), WithLimit(10_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if rp.Returns[0] != ro.Returns[0] {
		t.Errorf("optimizer changed result: %d vs %d", rp.Returns[0], ro.Returns[0])
	}
	if ro.Stats[0].Instrs >= rp.Stats[0].Instrs {
		t.Errorf("optimizer did not shrink execution: %d vs %d instrs",
			ro.Stats[0].Instrs, rp.Stats[0].Instrs)
	}
}

// End-to-end §2.6 modular compilation: a library unit is compiled with
// CIs and exports its cost file; the application unit imports the
// library's functions and costs, is compiled separately, and the two
// instrumented units link into one executable whose behavior matches a
// monolithic build.
func TestModularCompilationEndToEnd(t *testing.T) {
	libSrc := `
module libm
func @scale(%x) {
entry:
  %y = mul %x, 3
  %z = add %y, 1
  ret %z
}
func @heavy(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %s = add %s, %i
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`
	appSrc := `
module app
import @scale
import @heavy
func @main(%n) {
entry:
  %a = call @scale(%n)
  %b = call @heavy(%a)
  ret %b
}
`
	lib, err := Compile(ir.MustParse(libSrc),
		WithDesign(instrument.CI),
		WithProbeInterval(150))
	if err != nil {
		t.Fatal(err)
	}
	costData, err := lib.ExportCosts()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := analysis.ImportCosts(costData)
	if err != nil {
		t.Fatal(err)
	}
	// scale is tiny: it must be exported transparent (uninstrumented,
	// constant cost) so the app folds it at the call site; heavy must
	// be exported as self-instrumenting.
	if imported["scale"].Instrumented || !imported["scale"].Cost.IsConst() {
		t.Errorf("scale export = %+v, want transparent const", imported["scale"])
	}
	if !imported["heavy"].Instrumented {
		t.Errorf("heavy export = %+v, want instrumented", imported["heavy"])
	}
	app, err := Compile(ir.MustParse(appSrc),
		WithDesign(instrument.CI),
		WithProbeInterval(150),
		WithImportedCosts(imported))
	if err != nil {
		t.Fatal(err)
	}
	linked, err := ir.Link("prog", app.Mod, lib.Mod)
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(linked, nil, 1)
	machine.LimitInstrs = 50_000_000
	th := machine.NewThread(0)
	th.RT.RegisterCI(5000, func(uint64) {})
	got, err := th.Run("main", 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Monolithic reference.
	mono := ir.MustParse("module m\n" + libSrc[len("\nmodule libm\n"):] + appSrc[strings.Index(appSrc, "func @main"):])
	ref := vm.New(mono, nil, 1)
	ref.LimitInstrs = 50_000_000
	rth := ref.NewThread(0)
	want, err := rth.Run("main", 10000)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("linked result = %d, want %d", got, want)
	}
	// Counter fidelity must hold across the module boundary.
	ratio := float64(th.RT.InsCount()) / float64(th.Stats.Instrs)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("cross-module counter ratio = %.3f", ratio)
	}
}
