package vm

// Allocation discipline of both tiers: once a thread has warmed its
// frame pool and its VM has grown memory over the words the program
// touches, a whole run — dispatch, probes, memory ops, nested calls —
// must be 0-alloc with observers disabled, and with an OnProbe hook
// attached. On the compiled tier, a per-probe hook moves the thread
// to the module's hooked form, which must keep stats exact.

import (
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
	"repro/internal/obs"
)

const compiledAllocSrc = `
mem 4096
func @leaf(%x) {
entry:
  %a = and %x, 1023
  %v = load %a, 0
  %v = add %v, %x
  store %a, 0, %v
  %y = mul %x, 3
  ret %y
}
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %w = call @leaf(%i)
  %s = add %s, %w
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`

func compiledAllocModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.MustParse(compiledAllocSrc)
	if _, err := instrument.Instrument(m, instrument.Options{
		Design:   instrument.CI,
		Analysis: analysis.Options{ProbeInterval: 100},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompiledFastPathZeroAlloc(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := compiledAllocModule(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 50_000_000
		th := v.NewThread(0)
		th.RT.RegisterCI(2000, func(uint64) {})
		// Plain, then with an OnProbe hook that forces nothing (the
		// compiled tier's hooked form). Each form's first run is a
		// warm-up: it compiles the form, grows the frame pool and grows
		// memory.
		for _, hook := range []func() int{nil, func() int { return 0 }} {
			th.OnProbe = hook
			if _, err := th.Run("main", 5000); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(20, func() {
				if _, err := th.Run("main", 5000); err != nil {
					t.Fatal(err)
				}
			})
			if n != 0 {
				t.Errorf("%s run allocated %.2f times (OnProbe set: %v), want 0", tier, n, hook != nil)
			}
		}
		if th.Stats.ProbesTaken == 0 || th.Stats.HandlerCalls == 0 {
			t.Fatalf("measurement missed the probe fire path: %+v", th.Stats)
		}
	})
}

// A thread with an enabled obs scope or an OnProbe hook runs the
// compiled tier's hooked form. Its run must produce exactly the stat
// deltas the interpreter produces under the same hook, and one thread
// moving between the hooked and the plain form across runs must show
// no drift in either direction.
func TestHookedCompiledKeepsStatsExact(t *testing.T) {
	const iters = 3000
	statDelta := func(t *testing.T, tier Tier, scope *obs.Scope) (Stats, int64) {
		t.Helper()
		m := compiledAllocModule(t)
		v := newVM(m, nil, 1, tier)
		v.Obs = scope
		v.LimitInstrs = 50_000_000
		th := v.NewThread(0)
		th.RT.RegisterCI(2000, func(uint64) {})
		rv, err := th.Run("main", iters)
		if err != nil {
			t.Fatal(err)
		}
		return th.Stats, rv
	}

	// obs-enabled compiled run: the hooked form must match the
	// interpreter's obs-enabled run exactly.
	refObs, refObsRV := statDelta(t, TierInterpreter, obs.New(0))
	gotObs, gotObsRV := statDelta(t, TierCompiled, obs.New(0))
	if gotObs != refObs || gotObsRV != refObsRV {
		t.Errorf("hooked compiled run drifted from interpreter:\n interp  %+v rv=%d\n compiled %+v rv=%d",
			refObs, refObsRV, gotObs, gotObsRV)
	}

	// A single thread must move hooked -> plain -> hooked without
	// stats corruption. Drive the identical phase sequence through an
	// interpreter thread and a compiled thread (whose middle phase runs
	// the plain form, and whose outer phases force a sweep at every
	// probe in the hooked form) and require byte-identical Stats at
	// every phase boundary: the CI runtime state carries across runs,
	// so equality here proves the transition leaves no residue.
	phases := func(t *testing.T, tier Tier) []Stats {
		t.Helper()
		m := compiledAllocModule(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 50_000_000
		th := v.NewThread(0)
		th.RT.RegisterCI(2000, func(uint64) {})
		var snaps []Stats
		for phase := 0; phase < 3; phase++ {
			if phase == 1 {
				th.OnProbe = nil // the plain form on the compiled tier
			} else {
				th.OnProbe = func() int { return 1 } // the hooked form
			}
			if _, err := th.Run("main", iters); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, th.Stats)
		}
		return snaps
	}
	want := phases(t, TierInterpreter)
	got := phases(t, TierCompiled)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase %d stats drift:\n interp  %+v\n compiled %+v", i, want[i], got[i])
		}
	}
}
