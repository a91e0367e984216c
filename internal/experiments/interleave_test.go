package experiments

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/interleave"
	"repro/internal/shenango"
)

// TestInterleaveSpecs verifies the three app sharing-protocol models
// and shenango's racy steering variant at the verifier's default
// context bound, 2 (the figure's quick run uses 1): every shared word
// must get exactly its declared class, and only a module that declares
// a RACY word may fail the verifier.
func TestInterleaveSpecs(t *testing.T) {
	specs := append(appInterleaveSpecs(), shenango.InterleaveRacySpec())
	for i := range specs {
		spec := &specs[i]
		t.Run(spec.Name, func(t *testing.T) {
			opts := spec.Opts
			opts.ContextBound = 2
			rep, err := interleave.VerifyHandlers(spec.Mod, engine.Serial(), opts)
			if err != nil {
				t.Fatal(err)
			}
			var table bytes.Buffer
			rep.WriteTable(&table)
			if rep.FeasibleSites == 0 {
				t.Fatalf("no feasible fire sites: the model never exposes the handler\n%s", table.String())
			}
			for _, d := range spec.Diff(rep) {
				t.Error(d)
			}
			racy := false
			for _, w := range spec.Words {
				racy = racy || w.Class == interleave.ClassRacy
			}
			if got := errors.Is(rep.Err(), interleave.ErrRace); got != racy {
				t.Errorf("Err = %v, want a race %v\n%s", rep.Err(), racy, table.String())
			}
		})
	}
}
