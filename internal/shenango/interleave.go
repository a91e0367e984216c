package shenango

import (
	"fmt"

	"repro/internal/interleave"
	"repro/internal/ir"
)

// Interleave model: the CIHosted design runs the IOKernel poll body as
// a handler inside CPUMiner, so the words the two share are the
// steering counters and the liveness/progress beacons:
//
//	STEERED (0)  packets steered to workers — handler-side atomic
//	             add; the miner reads it when reporting.
//	ALIVE   (1)  IOKernel liveness beacon — main arms it, the handler
//	             refreshes it by rewriting the value it read
//	             (same-value by construction).
//	PROGRESS(2)  miner progress — main plain-writes, handler reads
//	             when deciding core reallocation.
//	POLLS   (3)  handler-private poll tally.
//
// InterleaveSpec declares these classes. The racy variant (see
// InterleaveRacySpec) steers with a load/add/store instead of the
// atomic add: the verifier must catch that lost-update — it is the
// bug the atomic in the production model exists to prevent.
const interleaveIR = `
module shenango-ci
mem 64

func @main(%n) {
entry:
  %one = mov 1
  store _, 1, %one
  %i = mov 0
  jmp head
head:
  %c = lt %i, 200
  br %c, body, exit
body:
  %h = mul %i, 2654435761
  %h = and %h, 1048575
  store _, 2, %i
  %i = add %i, 1
  jmp head
exit:
  %s = load _, 0
  %z = mov 0
  ret %z
}

func @handler(%ir) {
entry:
  %a = load _, 1
  store _, 1, %a
  %p = load _, 2
  %batch = and %ir, 3
  %o1 = aadd _, 0, %batch
  %one = mov 1
  %o2 = aadd _, 3, %one
  ret %p
}
`

// interleaveRacyIR is interleaveIR with the steering counter updated
// by a plain read-modify-write — the lost-update the verifier exists
// to catch when the miner (or a second fire) interleaves with it.
const interleaveRacyIR = `
module shenango-ci-racy
mem 64

func @main(%n) {
entry:
  %one = mov 1
  store _, 1, %one
  %i = mov 0
  jmp head
head:
  %c = lt %i, 200
  br %c, body, exit
body:
  %h = mul %i, 2654435761
  %h = and %h, 1048575
  store _, 2, %i
  %s = load _, 0
  %s = add %s, 1
  store _, 0, %s
  %i = add %i, 1
  jmp head
exit:
  %z = mov 0
  ret %z
}

func @handler(%ir) {
entry:
  %a = load _, 1
  store _, 1, %a
  %p = load _, 2
  %batch = and %ir, 3
  %s = load _, 0
  %s = add %s, %batch
  store _, 0, %s
  ret %p
}
`

// InterleaveSpec returns the CIHosted sharing-protocol model, its
// verifier options and the class of each shared word.
func InterleaveSpec() interleave.Spec {
	return interleave.Spec{Name: "shenango/iokernel", Mod: ir.MustParse(interleaveIR),
		Opts: interleave.Options{RetOnly: true, CheckRun: checkBeacons}, Words: sharedWords(interleave.ClassAtomic)}
}

// InterleaveRacySpec returns the deliberately-racy steering variant,
// whose word 0 the verifier must classify RACY. Kept as a permanent
// detection regression, not a production model.
func InterleaveRacySpec() interleave.Spec {
	return interleave.Spec{Name: "shenango/iokernel-racy", Mod: ir.MustParse(interleaveRacyIR),
		Opts: interleave.Options{RetOnly: true}, Words: sharedWords(interleave.ClassRacy)}
}

// sharedWords declares the model's shared words, STEERED as steered.
func sharedWords(steered interleave.Class) []interleave.Word {
	return []interleave.Word{
		{Addr: 0, Class: steered},
		{Addr: 1, Class: interleave.ClassSameValue},
		{Addr: 2, Class: interleave.ClassObserved},
	}
}

// checkBeacons validates one run's end state: the liveness beacon must
// still be armed, and the handler's poll tally must match delivered
// fires exactly (a fire that skipped its poll body would break the
// core-allocation loop).
func checkBeacons(r *interleave.Run) error {
	if r.Mem[1] != 1 {
		return fmt.Errorf("liveness beacon lost: alive=%d", r.Mem[1])
	}
	if r.Mem[3] != int64(r.Fires) {
		return fmt.Errorf("poll tally %d != fires %d", r.Mem[3], r.Fires)
	}
	return nil
}
