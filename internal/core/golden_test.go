package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfigs are the four configurations of the benchmark's
// compile_corpus workload.
var goldenConfigs = []struct {
	name string
	opts []Option
}{
	{"CI", []Option{WithDesign(instrument.CI), WithProbeInterval(250)}},
	{"CI-Cycles", []Option{WithDesign(instrument.CICycles), WithProbeInterval(250)}},
	{"Naive", []Option{WithDesign(instrument.Naive), WithProbeInterval(250)}},
	{"CI+opt", []Option{WithDesign(instrument.CI), WithProbeInterval(250), WithOptimize(true)}},
}

// goldenCorpus is the 28 Table-7 programs at scale 1 and 500 seeded
// fuzz programs: every second one with externs, the last 50 large.
func goldenCorpus() (names []string, mods []*ir.Module) {
	for _, w := range workloads.All {
		names = append(names, w.Name)
		mods = append(mods, w.Build(1))
	}
	for i := 0; i < 500; i++ {
		o := fuzz.Options{WithExterns: i%2 == 0}
		if i >= 450 {
			o = fuzz.Options{MaxDepth: 4, MaxStmts: 10, MaxFuncs: 8, WithExterns: true}
		}
		names = append(names, fmt.Sprintf("fuzz-%d", i+1))
		mods = append(mods, fuzz.Generate(uint64(i+1), o))
	}
	return names, mods
}

// TestCompileGoldens pins the compiler's output over the corpus: per
// program and config an FNV-64 of the instrumented module's text plus
// its probe count (compile_digest.golden), and an FNV-64 of every
// function's reduction, the Dump of each remaining region
// (reduction_digest.golden; "-" where the design runs no analysis). The
// input goes through Module.String and ir.Parse first, as text does in
// cirun and the benchmark, so the parser is under the same gate. A
// speed-only change to ir, cfg, opt, analysis or instrument must leave
// both files byte-identical.
func TestCompileGoldens(t *testing.T) {
	var out, red bytes.Buffer
	names, mods := goldenCorpus()
	for i, gen := range mods {
		m, err := ir.Parse(gen.String())
		if err != nil {
			t.Fatalf("%s: parse: %v", names[i], err)
		}
		fmt.Fprintf(&out, "%s", names[i])
		fmt.Fprintf(&red, "%s", names[i])
		for _, c := range goldenConfigs {
			p, err := Compile(m, c.opts...)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", names[i], c.name, err)
			}
			h := fnv.New64a()
			fmt.Fprintf(h, "%s%d", p.Mod.String(), p.Instr.Probes)
			fmt.Fprintf(&out, " %016x", h.Sum64())
			if p.Instr.Analysis == nil {
				red.WriteString(" -")
				continue
			}
			h = fnv.New64a()
			for _, f := range p.Mod.Funcs {
				fmt.Fprintf(h, "@%s\n", f.Name)
				for _, r := range p.Instr.Analysis.Funcs[f.Name].Reduction.Regions {
					h.Write([]byte(r.C.Dump()))
				}
			}
			fmt.Fprintf(&red, " %016x", h.Sum64())
		}
		out.WriteByte('\n')
		red.WriteByte('\n')
	}
	checkGolden(t, "compile_digest.golden", out.Bytes())
	checkGolden(t, "reduction_digest.golden", red.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/core -run TestCompileGoldens -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s line %d differs:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
}
