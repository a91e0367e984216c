package mtcp

import (
	"fmt"

	"repro/internal/interleave"
	"repro/internal/ir"
)

// interleaveIR is the IR model of the CI-mode sharing protocol that
// the interleaving verifier checks: the stack-loop handler produces
// received work into a single-producer single-consumer ring, and the
// application drains it. The full simulator is a discrete-event model,
// so the verifier runs this distilled protocol instead — the same
// word-level discipline mtcp's CI mode relies on:
//
//	HEAD    (0)  consumer cursor — main plain-writes it, but only
//	             inside ci_disable (the app's dequeue critical
//	             section); the handler reads it for occupancy.
//	TAIL    (1)  producer cursor — handler-side atomic add; main
//	             reads it under ci_disable when polling for work.
//	BACKLOG (2)  occupancy gauge — atomic adds from both sides.
//	RESULT  (3)  consumer-side accumulator (not shared).
//	ring (8..23) payload slots — handler plain-writes, main reads
//	             only under ci_disable (slots the consumer touches
//	             are outside the producer's window).
//
// InterleaveSpec declares these classes. Item k carries value 3k+1, so
// the CheckRun conservation law pins lost/duplicated items at any fire
// placement: RESULT must equal the exact sum of the HEAD items
// drained, and BACKLOG must equal TAIL-HEAD.
const interleaveIR = `
module mtcp-ci
mem 64
extern @ci_disable cost 4
extern @ci_enable cost 4

func @main(%n) {
entry:
  %ciid = mov 0
  %i = mov 0
  jmp head
head:
  %c = lt %i, 200
  br %c, body, exit
body:
  %w = mul %i, 17
  %w = and %w, 1023
  extcall @ci_disable(%ciid)
  %h = load _, 0
  %t = load _, 1
  %c2 = lt %h, %t
  br %c2, drain, cont
drain:
  %off = and %h, 15
  %slot = add %off, 8
  %v = load %slot, 0
  %o1 = aadd _, 3, %v
  %h1 = add %h, 1
  store _, 0, %h1
  %neg = mov -1
  %o2 = aadd _, 2, %neg
  jmp cont
cont:
  extcall @ci_enable(%ciid)
  %i = add %i, 1
  jmp head
exit:
  %z = mov 0
  ret %z
}

func @handler(%ir) {
entry:
  %h = load _, 0
  %t = load _, 1
  %occ = sub %t, %h
  %c = lt %occ, 16
  br %c, produce, done
produce:
  %off = and %t, 15
  %slot = add %off, 8
  %v = mul %t, 3
  %v = add %v, 1
  store %slot, 0, %v
  %one = mov 1
  %o1 = aadd _, 1, %one
  %o2 = aadd _, 2, %one
  jmp done
done:
  %z = mov 0
  ret %z
}
`

// InterleaveSpec returns the CI-mode sharing protocol model, its
// verifier options and the class of each shared word.
func InterleaveSpec() interleave.Spec {
	return interleave.Spec{
		Name: "mtcp/ring",
		Mod:  ir.MustParse(interleaveIR),
		// The ring protocol is placement-dependent by design (more fires
		// deliver more work), so equivalence is the constant return plus
		// the conservation law, not the store stream.
		Opts: interleave.Options{RetOnly: true, CheckRun: checkRing},
		Words: []interleave.Word{
			{Addr: 0, Class: interleave.ClassObserved},
			{Addr: 1, Class: interleave.ClassAtomic},
			{Addr: 2, Class: interleave.ClassAtomic},
			{Addr: 8, Last: 23, Class: interleave.ClassProtected},
		},
	}
}

// checkRing is the conservation law for one run of the ring model:
// every produced item is either still queued or drained exactly once,
// and drained values sum to the closed form of 3k+1 over k < HEAD.
func checkRing(r *interleave.Run) error {
	head, tail := r.Mem[0], r.Mem[1]
	backlog, result := r.Mem[2], r.Mem[3]
	if head < 0 || tail < head {
		return fmt.Errorf("cursors out of order: head %d tail %d", head, tail)
	}
	if backlog != tail-head {
		return fmt.Errorf("backlog %d != tail-head %d", backlog, tail-head)
	}
	if want := 3*head*(head-1)/2 + head; result != want {
		return fmt.Errorf("result %d != drained sum %d (items lost or duplicated)", result, want)
	}
	return nil
}
