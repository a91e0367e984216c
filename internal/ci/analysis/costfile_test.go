package analysis_test

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/workloads"
)

// compileImporting compiles, under CI, a module whose main imports
// every function tbl names and calls each with one parameter and one
// constant argument, so every affine cost is substituted at a call.
func compileImporting(tbl analysis.CostTable) error {
	m := ir.NewModule("app")
	f := m.NewFunc("main", 1)
	b := ir.NewBuilder(f)
	k := b.Mov(7)
	acc := b.Mov(0)
	names := make([]string, 0, len(tbl))
	for name := range tbl {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m.DeclareImport(name)
		b.BinTo(acc, ir.OpAdd, acc, b.Call(name, ir.Reg(0), k))
	}
	b.Ret(acc)
	f.Reindex()
	_, err := core.Compile(m, core.WithDesign(instrument.CI), core.WithProbeInterval(250),
		core.WithImportedCosts(tbl))
	return err
}

// A cost file the analysis cannot use is rejected at the boundary
// (§2.6) instead of reaching the compiler: an affine cost of parameter
// -1 made the call-site substitution index its arguments at -1.
func TestImportCostsRejectsUnusable(t *testing.T) {
	for name, data := range map[string]string{
		"negative param": `{"version":1,"funcs":[{"name":"f","instrumented":false,"cost":{"Kind":2,"C":1,"Scale":3,"Param":-1}}]}`,
		"unknown kind":   `{"version":1,"funcs":[{"name":"f","instrumented":false,"cost":{"Kind":3,"C":1}}]}`,
		"duplicate name": `{"version":1,"funcs":[{"name":"f","cost":{"Kind":1,"C":1}},{"name":"f","cost":{"Kind":1,"C":9}}]}`,
	} {
		tbl, err := analysis.ImportCosts([]byte(data))
		if err == nil {
			t.Errorf("%s: imported without an error; compiling an importer gave %v", name, compileImporting(tbl))
		}
	}
}

// FuzzImportCosts holds the cost-file boundary: an import either fails,
// or its table round-trips through ExportCosts and a module importing
// every function it names compiles without a panic. The seeds are the
// Table-7 programs' exported cost files under CI.
func FuzzImportCosts(f *testing.F) {
	for _, wl := range workloads.All {
		prog, err := core.Compile(wl.Build(1), core.WithDesign(instrument.CI), core.WithProbeInterval(250))
		if err != nil {
			f.Fatal(err)
		}
		data, err := prog.ExportCosts()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, err := analysis.ImportCosts(data)
		if err != nil {
			return
		}
		out, err := analysis.ExportCosts(tbl)
		if err != nil {
			t.Fatalf("export of an imported table: %v", err)
		}
		back, err := analysis.ImportCosts(out)
		if err != nil {
			t.Fatalf("reimport: %v", err)
		}
		if !maps.Equal(back, tbl) {
			t.Fatalf("round trip changed the table:\n got %v\nwant %v", back, tbl)
		}
		_ = compileImporting(tbl) // an error is a verdict; only a panic fails
	})
}
