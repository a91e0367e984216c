package analysis

import (
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/ir"
)

// instrumentForSpacing runs the CI analysis+marks on a module and
// materializes the probes (the instrument package would normally do
// this; re-implemented here to avoid an import cycle).
func instrumentForSpacing(t *testing.T, m *ir.Module, probeInterval int64) {
	t.Helper()
	res := Analyze(m, Options{ProbeInterval: probeInterval})
	for _, f := range m.Funcs {
		fr := res.Funcs[f.Name]
		if fr == nil {
			continue
		}
		byBlock := make(map[*ir.Block][]Mark)
		for _, mk := range fr.Marks {
			byBlock[mk.Block] = append(byBlock[mk.Block], mk)
		}
		for b, ms := range byBlock {
			// Insert in descending index order.
			for i := 0; i < len(ms); i++ {
				for j := i + 1; j < len(ms); j++ {
					if ms[j].Index > ms[i].Index {
						ms[i], ms[j] = ms[j], ms[i]
					}
				}
			}
			for _, mk := range ms {
				kind := ir.ProbeIR
				if mk.Loop {
					kind = ir.ProbeIRLoop
				}
				pi := ir.ProbeInfo{Kind: kind, Inc: mk.Inc, IndVar: mk.IndVar, Base: mk.Base}
				if !mk.Loop {
					pi.IndVar, pi.Base = ir.NoReg, ir.NoReg
				}
				idx := mk.Index
				if idx > len(b.Instrs) {
					idx = len(b.Instrs)
				}
				b.Instrs = append(b.Instrs, ir.Instr{})
				copy(b.Instrs[idx+1:], b.Instrs[idx:])
				b.Instrs[idx] = ir.ProbeInstr(pi)
			}
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("instrumented module invalid: %v", err)
	}
}

// Every instrumented function of every fuzz program must satisfy the
// probe-spacing invariant the analysis is supposed to establish.
func TestCheckSpacingOnFuzzPrograms(t *testing.T) {
	const probeInterval = 200
	for seed := uint64(1); seed <= 25; seed++ {
		fresh := fuzz.Generate(seed, fuzz.Options{WithExterns: seed%2 == 0})
		instrumentForSpacing(t, fresh, probeInterval)
		for _, f := range fresh.Funcs {
			if f.NoInstrument {
				continue
			}
			// Transparent (small) functions carry no probes by design;
			// their cost is bounded by the interval, so skip them.
			hasProbe := false
			for _, b := range f.Blocks {
				for i := range b.Instrs {
					if b.Instrs[i].Op == ir.OpProbe {
						hasProbe = true
					}
				}
			}
			if !hasProbe {
				continue
			}
			if err := CheckSpacing(f, 100, probeInterval); err != nil {
				t.Errorf("seed %d, @%s: %v\n%s", seed, f.Name, err, f)
			}
		}
	}
}

func TestCheckSpacingCatchesViolations(t *testing.T) {
	// A long probe-free loop must be flagged.
	m := ir.MustParse(`
func @f(%n) {
entry:
  %i = mov 0
  jmp head
head:
  %c = lt %i, 100000
  br %c, body, exit
body:
  %i = add %i, 1
  jmp head
exit:
  probe ir 300000
  ret %i
}
`)
	if err := CheckSpacing(m.FuncByName("f"), 100, 200); err == nil {
		t.Error("unprobed big loop not flagged")
	}
	// A long straightline stretch must be flagged too.
	m2 := ir.NewModule("t")
	f := m2.NewFunc("g", 0)
	b := ir.NewBuilder(f)
	x := b.Mov(1)
	for i := 0; i < 600; i++ {
		x = b.BinI(ir.OpAdd, x, 1)
	}
	b.B.Instrs = append(b.B.Instrs, ir.ProbeInstr(ir.ProbeInfo{Kind: ir.ProbeIR, Inc: 600, IndVar: ir.NoReg, Base: ir.NoReg}))
	b.Ret(x)
	f.Reindex()
	if err := CheckSpacing(f, 100, 200); err == nil {
		t.Error("600-IR probe-free prefix not flagged at budget 200")
	}
}
