package interleave

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/vm"
)

// Each classification scenario is a tiny module shaped around one
// sharing pattern; VerifyHandlers must land every shared address in
// the expected class and agree with the commutativity oracle.

func verify(t *testing.T, src string, opts Options) *Report {
	t.Helper()
	m := ir.MustParse(src)
	rep, err := VerifyHandlers(m, engine.Serial(), opts)
	if err != nil {
		t.Fatalf("VerifyHandlers: %v", err)
	}
	return rep
}

func classOf(t *testing.T, rep *Report, addr int64) Class {
	t.Helper()
	for _, a := range rep.Addrs {
		if a.Addr == addr {
			return a.Class
		}
	}
	t.Fatalf("addr %d not in report (addrs: %+v)", addr, rep.Addrs)
	return 0
}

// mainLoop wraps a per-iteration body into a bounded main function.
const mainHead = `
mem 64
func @main(%n) {
entry:
  %acc = and %n, 63
  %i = mov 0
  jmp head
head:
  %c = lt %i, 40
  br %c, body, exit
body:
`
const mainTail = `
  %i = add %i, 1
  jmp head
exit:
  ret %acc
}
`

func TestClassAtomicCounter(t *testing.T) {
	// Handler and main both aadd the same counter; main also reads it.
	// The final value is placement-independent: benign.
	src := mainHead + `
  %one = mov 1
  %old = aadd _, 0, %one
  %v = load _, 0
  %acc = add %acc, %v
  %acc = and %acc, 1023
` + mainTail + `
func @handler() {
entry:
  %one = mov 1
  %old = aadd _, 0, %one
  ret %old
}
`
	rep := verify(t, src, Options{RetOnly: true})
	if got := classOf(t, rep, 0); got != ClassAtomic {
		t.Errorf("counter class = %v, want atomic", got)
	}
	if rep.FeasibleSites == 0 || rep.Schedules == 0 {
		t.Errorf("exploration did not run: %+v", rep)
	}
	// Main reads the counter into its accumulator, so full equivalence
	// would rightly flag placement-dependence; RetOnly is also
	// placement-dependent here (acc folds the counter), so expect the
	// return value to differ — unless main's read is protected. This
	// scenario only pins the detection class.
}

func TestClassObservedAndCommutes(t *testing.T) {
	// Main writes a progress word; the handler only reads it and
	// tallies privately. Fully commutative: main's observable behavior
	// cannot depend on fire placement.
	src := mainHead + `
  %acc = add %acc, 3
  %acc = and %acc, 1023
  store _, 1, %acc
` + mainTail + `
func @handler() {
entry:
  %v = load _, 1
  %o = aadd _, 9, %v
  ret %v
}
`
	rep := verify(t, src, Options{})
	if got := classOf(t, rep, 1); got != ClassObserved {
		t.Errorf("progress word class = %v, want observed", got)
	}
	if len(rep.NonCommute) != 0 {
		t.Errorf("observed-only handler flagged non-commutative: %+v", rep.NonCommute)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("Err = %v, want nil", err)
	}
}

func TestClassSameValueStore(t *testing.T) {
	// The handler re-asserts a flag main set at startup — stores that
	// never change the value.
	src := `
mem 64
func @main(%n) {
entry:
  %one = mov 1
  store _, 2, %one
  %acc = and %n, 63
  %i = mov 0
  jmp head
head:
  %c = lt %i, 40
  br %c, body, exit
body:
  %acc = add %acc, 3
  %acc = and %acc, 1023
  %i = add %i, 1
  jmp head
exit:
  ret %acc
}
func @handler() {
entry:
  %one = mov 1
  store _, 2, %one
  ret %one
}
`
	rep := verify(t, src, Options{})
	if got := classOf(t, rep, 2); got != ClassSameValue {
		t.Errorf("flag class = %v, want same-value", got)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("Err = %v, want nil", err)
	}
}

func TestClassProtectedByCiDisable(t *testing.T) {
	// Main touches the shared word only inside ci_disable regions; the
	// handler plain-stores it freely. Every main access is ordered.
	src := `
mem 64
extern @ci_disable cost 4
extern @ci_enable cost 4
func @main(%n) {
entry:
  %ciid = mov 0
  %acc = and %n, 63
  %i = mov 0
  jmp head
head:
  %c = lt %i, 40
  br %c, body, exit
body:
  extcall @ci_disable(%ciid)
  %v = load _, 3
  %acc = add %acc, %v
  %acc = and %acc, 1023
  store _, 3, %acc
  extcall @ci_enable(%ciid)
  %i = add %i, 1
  jmp head
exit:
  ret %acc
}
func @handler(%ir) {
entry:
  store _, 3, %ir
  ret %ir
}
`
	rep := verify(t, src, Options{RetOnly: true, CheckRun: func(r *Run) error { return nil }})
	if got := classOf(t, rep, 3); got != ClassProtected {
		t.Errorf("word class = %v, want protected", got)
	}
}

func TestClassRacyAndNonCommute(t *testing.T) {
	// The textbook lost-update: main read-modify-writes a word with
	// plain ops; the handler stores a changing value into it. Detection
	// must flag the address and exploration must find placements where
	// main's outcome differs.
	src := mainHead + `
  %v = load _, 4
  %v = add %v, 1
  store _, 4, %v
  %acc = add %acc, %v
  %acc = and %acc, 1023
` + mainTail + `
func @handler(%ir) {
entry:
  store _, 4, %ir
  ret %ir
}
`
	rep := verify(t, src, Options{})
	if got := classOf(t, rep, 4); got != ClassRacy {
		t.Errorf("word class = %v, want RACY", got)
	}
	if len(rep.NonCommute) == 0 {
		t.Error("lost-update module explored as commutative")
	}
	if err := rep.Err(); err == nil || !errors.Is(err, ErrRace) {
		t.Errorf("Err = %v, want ErrRace", err)
	}
	if len(rep.Unclassified()) == 0 {
		t.Error("Unclassified() empty for a racy module")
	}
}

func TestHandlerWatchdogErrorsSurface(t *testing.T) {
	// A handler whose own IR faults (a store past the end of memory)
	// is an infrastructure error of the record run, not a finding.
	src := mainHead + `
  %acc = add %acc, 3
` + mainTail + `
func @handler() {
entry:
  %one = mov 1
  store _, 4096, %one
  ret %one
}
`
	m := ir.MustParse(src)
	_, err := VerifyHandlers(m, engine.Serial(), Options{
		IntervalCycles: 50, // fire on cadence within this short run
	})
	if !errors.Is(err, vm.ErrMemFault) {
		t.Errorf("VerifyHandlers with a faulting handler = %v, want ErrMemFault", err)
	}
}

func TestMissingHandlerAndEntry(t *testing.T) {
	m := ir.MustParse(`
func @main() {
entry:
  %z = mov 0
  ret %z
}
`)
	if _, err := VerifyHandlers(m, engine.Serial(), Options{}); !errors.Is(err, ErrNoHandler) {
		t.Errorf("missing handler: err = %v, want ErrNoHandler", err)
	}
	m2 := ir.MustParse(`
func @handler() {
entry:
  %z = mov 0
  ret %z
}
`)
	if _, err := VerifyHandlers(m2, engine.Serial(), Options{}); err == nil {
		t.Error("missing entry accepted")
	}
}

func TestCheckRunInvariantViolationReported(t *testing.T) {
	// A CheckRun that rejects any run with fires must show up as a
	// non-commutative finding (the fire-free baseline still passes).
	src := mainHead + `
  %acc = add %acc, 3
` + mainTail + `
func @handler() {
entry:
  %one = mov 1
  %o = aadd _, 9, %one
  ret %o
}
`
	m := ir.MustParse(src)
	rep, err := VerifyHandlers(m, engine.Serial(), Options{
		RetOnly: true,
		CheckRun: func(r *Run) error {
			if r.Fires > 0 {
				return errors.New("fired at all")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.NonCommute) == 0 {
		t.Error("CheckRun violations not reported")
	}
	found := false
	for _, nc := range rep.NonCommute {
		if strings.Contains(nc.Detail, "fired at all") {
			found = true
		}
	}
	if !found {
		t.Errorf("violation detail missing: %+v", rep.NonCommute)
	}
}
