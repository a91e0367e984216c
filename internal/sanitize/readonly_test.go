package sanitize_test

import (
	"fmt"
	"testing"

	"repro/internal/ci/fuzz"
	"repro/internal/core"
	"repro/internal/sanitize"
)

// The oracles run the modules they are given in place, without a
// private copy: the VM only reads a module. Execute, DiffTrace and
// DiffTiers must leave each module printing as it did, also when
// several oracle runs share one module at once (go test -race sees the
// sharing).
func TestOraclesLeaveModulesUnchanged(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		src := fuzz.Generate(seed, fuzz.Options{WithExterns: seed%2 == 0, WithHandler: seed == 3})
		prog, err := core.Compile(src, core.WithDesign(oracleDesigns[seed%uint64(len(oracleDesigns))]),
			core.WithProbeInterval(250))
		if err != nil {
			t.Fatal(err)
		}
		wantSrc, wantProg := src.String(), prog.Mod.String()
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for run := 0; run < 2; run++ {
				t.Run(fmt.Sprint(run), func(t *testing.T) {
					t.Parallel()
					eo := sanitize.ExecOptions{LimitInstrs: 5_000_000}
					base, err := sanitize.Execute(src, eo)
					if err != nil {
						t.Fatal(err)
					}
					if err := sanitize.DiffTrace(base, prog.Mod, "ci", eo); err != nil {
						t.Fatal(err)
					}
					if err := sanitize.DiffTiers(prog.Mod, eo); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
		if got := src.String(); got != wantSrc {
			t.Errorf("seed %d: the oracles changed the source module:\n%s\nwant:\n%s", seed, got, wantSrc)
		}
		if got := prog.Mod.String(); got != wantProg {
			t.Errorf("seed %d: the oracles changed the instrumented module:\n%s\nwant:\n%s", seed, got, wantProg)
		}
	}
}
