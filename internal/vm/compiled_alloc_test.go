package vm

// Allocation discipline of both tiers: once a thread has warmed its
// frame pool and its VM has grown memory over the words the program
// touches, a whole run — dispatch, probes, memory ops, nested calls —
// must be 0-alloc with observers disabled. On the compiled tier,
// attaching an observer surface deopts the thread to the interpreter
// and must not corrupt stats while doing so.

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
		// Warm up: the first run compiles the module, grows the frame
		// pool and grows memory.
		if _, err := th.Run("main", 5000); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := th.Run("main", 5000); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("%s run allocated %.2f times with observers disabled, want 0", tier, n)
		}
		if th.Stats.ProbesTaken == 0 || th.Stats.HandlerCalls == 0 {
			t.Fatalf("measurement missed the probe fire path: %+v", th.Stats)
		}
	})
}

// Enabling an observer surface mid-stream deopts the thread to the
// interpreter; the deopted run must produce exactly the stat deltas the
// interpreter produces, and detaching must return to the compiled tier
// with no drift in either direction.
func TestCompiledObserverDeoptKeepsStatsExact(t *testing.T) {
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

	// obs-enabled compiled run: deopts, and must match the interpreter's
	// obs-enabled run exactly (the interpreter is the reference for the
	// observer surfaces).
	refObs, refObsRV := statDelta(t, TierInterpreter, obs.New(0))
	gotObs, gotObsRV := statDelta(t, TierCompiled, obs.New(0))
	if gotObs != refObs || gotObsRV != refObsRV {
		t.Errorf("deopted compiled run drifted from interpreter:\n interp  %+v rv=%d\n compiled %+v rv=%d",
			refObs, refObsRV, gotObs, gotObsRV)
	}

	// A single thread must transition deopt -> fast path -> deopt
	// without stats corruption. Drive the identical phase sequence
	// through an interpreter thread and a compiled thread (whose middle
	// phase runs the fast path) and require byte-identical Stats at
	// every phase boundary — the CI runtime state carries across runs,
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
				th.OnProbe = nil // fast path on the compiled tier
			} else {
				th.OnProbe = func() int { return 1 } // forces the interpreter
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
