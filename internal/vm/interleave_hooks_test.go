package vm

// The interleaving verifier's VM surface: the OnLoad/OnAtomic access
// taps, the OnProbe forced-fire schedule driver, and CallHandler for
// handlers whose body is IR in the module. These tests pin the exact
// semantics internal/interleave builds on.

import (
	"errors"
	"testing"

	"repro/internal/ci/analysis"
	"repro/internal/ci/instrument"
	"repro/internal/ir"
)

func TestOnLoadObservesCommittedReads(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 16
func @main() {
entry:
  %v = mov 7
  %base = mov 2
  store %base, 1, %v
  %r = load %base, 1
  %r2 = load _, 9
  %s = add %r, %r2
  ret %s
}
`)
		v := newVM(m, nil, 1, tier)
		th := v.NewThread(0)
		type ev struct {
			fn, block string
			addr, val int64
		}
		var got []ev
		th.OnLoad = func(fn, block string, addr, val int64) {
			got = append(got, ev{fn, block, addr, val})
		}
		rv, err := th.Run("main")
		if err != nil {
			t.Fatal(err)
		}
		if rv != 7 {
			t.Fatalf("rv = %d, want 7", rv)
		}
		want := []ev{{"main", "entry", 3, 7}, {"main", "entry", 9, 0}}
		if len(got) != len(want) {
			t.Fatalf("OnLoad events = %+v, want %+v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}

func TestOnAtomicRefinesOnStoreForAtomicAdds(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 8
func @main() {
entry:
  %v = mov 5
  store _, 0, %v
  %old = aadd _, 0, %v
  %o2 = aadd _, 3, %v
  ret %old
}
`)
		v := newVM(m, nil, 1, tier)
		th := v.NewThread(0)
		var stores, atomics []int64
		th.OnStore = func(fn, block string, addr, val int64) {
			stores = append(stores, addr, val)
		}
		th.OnAtomic = func(fn, block string, addr, old, add int64) {
			atomics = append(atomics, addr, old, add)
		}
		if _, err := th.Run("main"); err != nil {
			t.Fatal(err)
		}
		// The plain store still reports via OnStore; both atomics report
		// old/add via OnAtomic and are absent from the OnStore stream.
		if len(stores) != 2 || stores[0] != 0 || stores[1] != 5 {
			t.Errorf("OnStore stream = %v, want only the plain store [0 5]", stores)
		}
		wantAtomics := []int64{0, 5, 5, 3, 0, 5}
		if len(atomics) != len(wantAtomics) {
			t.Fatalf("OnAtomic stream = %v, want %v", atomics, wantAtomics)
		}
		for i := range wantAtomics {
			if atomics[i] != wantAtomics[i] {
				t.Fatalf("OnAtomic stream = %v, want %v", atomics, wantAtomics)
			}
		}
	})
}

func TestOnStoreStillSeesAtomicsWithoutOnAtomic(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 8
func @main() {
entry:
  %v = mov 5
  %old = aadd _, 0, %v
  ret %old
}
`)
		v := newVM(m, nil, 1, tier)
		th := v.NewThread(0)
		var vals []int64
		th.OnStore = func(fn, block string, addr, val int64) { vals = append(vals, val) }
		if _, err := th.Run("main"); err != nil {
			t.Fatal(err)
		}
		if len(vals) != 1 || vals[0] != 5 {
			t.Errorf("OnStore without OnAtomic = %v, want committed value [5]", vals)
		}
	})
}

// Satellite: the load path must stay allocation-free when OnLoad is
// nil. A single frame allocation (the register file) is the whole
// budget for a run with thousands of loads — allocations must not
// scale with load count.
func TestLoadPathNoAllocsWhenOnLoadDisabled(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 4096
func @main(%n) {
entry:
  %s = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, %n
  br %c, body, exit
body:
  %v = load %i, 0
  %s = add %s, %v
  %i = add %i, 1
  jmp head
exit:
  ret %s
}
`)
		v := newVM(m, nil, 1, tier)
		th := v.NewThread(0)
		if _, err := th.Run("main", 4096); err != nil { // warm-up
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, err := th.Run("main", 4096); err != nil {
				t.Fatal(err)
			}
		})
		if n > 1 {
			t.Errorf("load-heavy run allocated %.2f times with OnLoad disabled, want <= 1 (the register frame)", n)
		}
	})
}

// interleaveProbeModule returns a CI-instrumented module whose main
// runs a plain compute loop, plus a @handler function that bumps a
// counter word at mem[0] through its own IR (which itself contains
// probes after instrumentation).
func interleaveProbeModule(t *testing.T) *ir.Module {
	t.Helper()
	m := ir.MustParse(`
mem 16
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
func @handler() {
entry:
  %one = mov 1
  %old = aadd _, 0, %one
  ret %old
}
`)
	if _, err := instrument.Instrument(m, instrument.Options{
		Design:   instrument.CI,
		Analysis: analysis.Options{ProbeInterval: 50},
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestOnProbeForcedFiresDriveSchedules(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := interleaveProbeModule(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		th := v.NewThread(0)

		fires := 0
		th.RT.RegisterCI(1<<40, func(uint64) { // cadence never due
			fires++
			if _, err := th.CallHandler("handler"); err != nil {
				t.Fatalf("CallHandler: %v", err)
			}
		})

		site := 0
		schedule := map[int]int{3: 1, 7: 2} // fire once at site 3, twice at site 7
		th.OnProbe = func() int {
			site++
			return schedule[site]
		}
		if _, err := th.Run("main", 2000); err != nil {
			t.Fatal(err)
		}
		if fires != 3 {
			t.Fatalf("forced fires = %d, want 3 (1 at site 3 + 2 at site 7)", fires)
		}
		if v.Memory()[0] != 3 {
			t.Errorf("handler IR ran %d times, want 3", v.Memory()[0])
		}
		if th.Stats.HandlerCalls != 3 || th.Stats.ProbesTaken != 2 {
			t.Errorf("stats = %+v, want 3 handler calls over 2 firing probes", th.Stats)
		}
		if site == 0 {
			t.Fatal("OnProbe never consulted")
		}
	})
}

func TestOnProbeNotConsultedFromHandlerContext(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := interleaveProbeModule(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		th := v.NewThread(0)

		inHandlerSites := 0
		firing := false
		th.RT.RegisterCI(1<<40, func(uint64) {
			firing = true
			// The handler body is IR with probes of its own; none of them
			// may advance the main-context site ordinal.
			if _, err := th.CallHandler("handler"); err != nil {
				t.Fatalf("CallHandler: %v", err)
			}
			firing = false
		})
		site := 0
		th.OnProbe = func() int {
			if firing {
				inHandlerSites++
			}
			site++
			if site == 5 {
				return 1
			}
			return 0
		}
		if _, err := th.Run("main", 2000); err != nil {
			t.Fatal(err)
		}
		if inHandlerSites != 0 {
			t.Errorf("OnProbe consulted %d times from handler context, want 0", inHandlerSites)
		}
	})
}

func TestForcedFiresRespectCiDisable(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := ir.MustParse(`
mem 16
extern @ci_disable cost 4
extern @ci_enable cost 4
func @main() {
entry:
  %ciid = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, 200
  br %c, body, exit
body:
  extcall @ci_disable(%ciid)
  %j = mov 0
  jmp inner
inner:
  %jc = lt %j, 20
  br %jc, ibody, idone
ibody:
  %j = add %j, 1
  jmp inner
idone:
  extcall @ci_enable(%ciid)
  %i = add %i, 1
  jmp head
exit:
  ret %i
}
`)
		if _, err := instrument.Instrument(m, instrument.Options{
			Design:   instrument.CI,
			Analysis: analysis.Options{ProbeInterval: 20},
		}); err != nil {
			t.Fatal(err)
		}
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		th := v.NewThread(0)
		fires := 0
		th.RT.RegisterCI(1<<40, func(uint64) { fires++ })
		feasible, infeasible := 0, 0
		th.OnProbe = func() int {
			if th.RT.CanFire() {
				feasible++
			} else {
				infeasible++
			}
			return 1 // ask for a forced fire everywhere; disabled regions must drop it
		}
		if _, err := th.Run("main"); err != nil {
			t.Fatal(err)
		}
		if infeasible == 0 {
			t.Fatal("no probe sites inside ci_disable regions; test module lost its critical sections")
		}
		if fires != feasible {
			t.Errorf("forced fires = %d, want exactly the %d feasible sites (%d infeasible dropped)",
				fires, feasible, infeasible)
		}
	})
}

func TestCallHandlerKeepsReentrancyGuard(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := interleaveProbeModule(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		th := v.NewThread(0)

		var runErr error
		called := false
		th.RT.RegisterCI(1<<40, func(uint64) {
			called = true
			if _, err := th.CallHandler("handler"); err != nil {
				t.Errorf("CallHandler from handler context: %v", err)
			}
			_, runErr = th.Run("handler") // full Run must still be refused
		})
		th.OnProbe = func() int { return 1 }
		if _, err := th.Run("main", 100); err != nil {
			t.Fatal(err)
		}
		if !called {
			t.Fatal("handler never fired")
		}
		if !errors.Is(runErr, ErrHandlerReentrancy) {
			t.Errorf("Run from handler = %v, want ErrHandlerReentrancy", runErr)
		}
	})
}

func TestCallHandlerRejectsUnknownAndArity(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := interleaveProbeModule(t)
		v := newVM(m, nil, 1, tier)
		th := v.NewThread(0)
		if _, err := th.CallHandler("nope"); err == nil {
			t.Error("CallHandler(unknown) succeeded")
		}
		if _, err := th.CallHandler("handler", 1, 2); err == nil {
			t.Error("CallHandler with wrong arity succeeded")
		}
	})
}

func TestForcedFireOverrunSurfaces(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier Tier) {
		m := interleaveProbeModule(t)
		v := newVM(m, nil, 1, tier)
		v.LimitInstrs = 1_000_000
		v.MaxHandlerCycles = 10
		th := v.NewThread(0)
		th.RT.RegisterCI(1<<40, func(uint64) { th.Charge(1000) })
		th.OnProbe = func() int { return 1 }
		_, err := th.Run("main", 2000)
		if !errors.Is(err, ErrHandlerOverrun) {
			t.Errorf("overrunning forced fire = %v, want ErrHandlerOverrun", err)
		}
	})
}
