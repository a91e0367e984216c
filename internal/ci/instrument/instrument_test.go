package instrument

import (
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ir"
)

const loopProgram = `
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %t = call @work(%i)
  %s = add %s, %t
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
func @work(%x) {
entry:
  %y = mul %x, 3
  %z = add %y, 7
  ret %z
}
`

func countProbes(m *ir.Module) (total int, byKind map[ir.ProbeKind]int) {
	byKind = make(map[ir.ProbeKind]int)
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.OpProbe {
					total++
					byKind[b.Instrs[i].Kind]++
				}
			}
		}
	}
	return total, byKind
}

func instrumentSrc(t *testing.T, src string, d Design) (*ir.Module, *Result) {
	t.Helper()
	m := ir.MustParse(src)
	res, err := Instrument(m, Options{Design: d, Analysis: analysis.Options{ProbeInterval: 100}})
	if err != nil {
		t.Fatalf("Instrument(%v): %v", d, err)
	}
	return m, res
}

func TestCIInsertsLoopProbe(t *testing.T) {
	m, res := instrumentSrc(t, loopProgram, CI)
	total, kinds := countProbes(m)
	if total != res.Probes {
		t.Errorf("Probes=%d but module has %d", res.Probes, total)
	}
	if total == 0 {
		t.Fatal("CI inserted no probes")
	}
	if kinds[ir.ProbeIRLoop] == 0 {
		t.Errorf("CI on a parametric loop should use a loop probe; kinds=%v\n%s", kinds, m)
	}
	if kinds[ir.ProbeCycles] != 0 || kinds[ir.ProbeEvent] != 0 {
		t.Errorf("CI must use pure-IR probes; kinds=%v", kinds)
	}
}

func TestCICyclesUsesCycleProbes(t *testing.T) {
	m, _ := instrumentSrc(t, loopProgram, CICycles)
	_, kinds := countProbes(m)
	if kinds[ir.ProbeIR] != 0 || kinds[ir.ProbeIRLoop] != 0 {
		t.Errorf("CI-Cycles must not use pure IR probes; kinds=%v", kinds)
	}
	if kinds[ir.ProbeCycles]+kinds[ir.ProbeCyclesLoop] == 0 {
		t.Error("CI-Cycles inserted no cycle probes")
	}
}

func TestNaiveProbesEveryBlock(t *testing.T) {
	m, res := instrumentSrc(t, loopProgram, Naive)
	blocks := 0
	for _, f := range m.Funcs {
		blocks += len(f.Blocks)
	}
	if res.Probes != blocks {
		t.Errorf("Naive probes = %d, blocks = %d", res.Probes, blocks)
	}
}

func TestCDRemovesSomeProbes(t *testing.T) {
	// Straight-line blocks outside loops can be balanced away; loop
	// bodies keep their probes (CD stays close to Naive dynamically).
	src := `
func @main(%n) {
entry:
  %a = add %n, 1
  jmp second
second:
  %b = mul %a, 2
  jmp third
third:
  %d = add %b, 3
  jmp head
head:
  %i = add %d, 0
  %c = lt %i, %n
  br %c, body, exit
body:
  %d = add %d, 1
  jmp head
exit:
  ret %d
}
`
	mN, resN := instrumentSrc(t, src, Naive)
	mCD, resCD := instrumentSrc(t, src, CD)
	if resCD.Probes >= resN.Probes {
		t.Errorf("CD probes (%d) should be fewer than Naive (%d)\nnaive:\n%s\ncd:\n%s",
			resCD.Probes, resN.Probes, mN, mCD)
	}
	if resCD.Probes == 0 {
		t.Error("CD removed every probe")
	}
	// Loop blocks must keep their probes under CD.
	for _, name := range []string{"head", "body"} {
		b := mCD.FuncByName("main").BlockByName(name)
		found := false
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpProbe {
				found = true
			}
		}
		if !found {
			t.Errorf("CD removed the probe from loop block %q", name)
		}
	}
}

func TestCIFewerProbesThanCD(t *testing.T) {
	_, resCI := instrumentSrc(t, loopProgram, CI)
	_, resCD := instrumentSrc(t, loopProgram, CD)
	// Static probe count: CI uses the loop transform so its probe count
	// is small; CD probes most blocks.
	if resCI.Probes > resCD.Probes {
		t.Errorf("CI static probes (%d) > CD (%d)", resCI.Probes, resCD.Probes)
	}
}

func TestCnBProbesCallsAndBackedges(t *testing.T) {
	m, res := instrumentSrc(t, loopProgram, CnB)
	// One call site in body + one latch (body) = 2 probes in main; work
	// has neither.
	if res.Probes != 2 {
		t.Errorf("CnB probes = %d, want 2\n%s", res.Probes, m)
	}
	_, kinds := countProbes(m)
	if kinds[ir.ProbeEvent] != 2 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestCnBCyclesKind(t *testing.T) {
	m, _ := instrumentSrc(t, loopProgram, CnBCycles)
	_, kinds := countProbes(m)
	if kinds[ir.ProbeEventCycles] == 0 || kinds[ir.ProbeEvent] != 0 {
		t.Errorf("kinds = %v", kinds)
	}
}

func TestNoInstrumentRespectedByAllDesigns(t *testing.T) {
	src := `
func @f(%n) noinstrument {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %t = call @f(%i)
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`
	for _, d := range Designs {
		m := ir.MustParse(src)
		res, err := Instrument(m, Options{Design: d, Analysis: analysis.Options{ProbeInterval: 100}})
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if res.Probes != 0 {
			t.Errorf("%v instrumented a noinstrument function (%d probes)", d, res.Probes)
		}
	}
}

func TestAllDesignsVerify(t *testing.T) {
	for _, d := range Designs {
		m := ir.MustParse(loopProgram)
		if _, err := Instrument(m, Options{Design: d, Analysis: analysis.Options{ProbeInterval: 100}}); err != nil {
			t.Errorf("%v: %v", d, err)
		}
		if err := m.Verify(); err != nil {
			t.Errorf("%v output invalid: %v", d, err)
		}
	}
}

func TestStageHooksObservePipeline(t *testing.T) {
	m := ir.MustParse(loopProgram)
	var modStages, funcStages []string
	_, err := Instrument(m, Options{
		Design:    CI,
		Analysis:  analysis.Options{ProbeInterval: 100, StageHook: func(stage string, f *ir.Func) { funcStages = append(funcStages, stage) }},
		StageHook: func(stage string, mod *ir.Module) { modStages = append(modStages, stage) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(modStages) != 3 || modStages[0] != "input" || modStages[1] != "analysis" || modStages[2] != "probes" {
		t.Errorf("module stages = %v, want [input analysis probes]", modStages)
	}
	seen := map[string]bool{}
	for _, s := range funcStages {
		seen[s] = true
	}
	for _, want := range []string{"canonicalize", "loop-transform"} {
		if !seen[want] {
			t.Errorf("function stage %q never observed (got %v)", want, funcStages)
		}
	}
}

func TestDesignString(t *testing.T) {
	want := map[Design]string{CI: "CI", CICycles: "CI-Cycles", Naive: "Naive",
		NaiveCycles: "Naive-Cycles", CD: "CD", CnB: "CnB", CnBCycles: "CnB-Cycles"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), s)
		}
	}
}
