package ffwd

import (
	"fmt"

	"repro/internal/interleave"
	"repro/internal/ir"
)

// Interleave model: the DelegationCI design runs the delegation-server
// loop as a handler on the designated thread, so the shared words are
// the per-client request line and the server's response/state:
//
//	REQ    (0)  request argument line — main plain-writes a new
//	            request, handler reads it (FFWD's client line).
//	REQSEQ (1)  request sequence — main-side atomic add publishes;
//	            handler reads it to find unserved work.
//	DONE   (2)  server completion watermark — handler plain-writes,
//	            and main reads/rewrites it only inside ci_disable
//	            (the client's reap step).
//	C      (3)  the delegated fetch-and-add counter — handler-side
//	            atomic adds; main reads it at the end.
//
// InterleaveSpec declares these classes. The CheckRun law is
// delegation conservation: every published request is served exactly
// once, so the counter equals the completion watermark and never
// exceeds the sequence.
const interleaveIR = `
module ffwd-ci
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
  store _, 0, %i
  %one = mov 1
  %o = aadd _, 1, %one
  %w = mul %i, 17
  %w = and %w, 1023
  extcall @ci_disable(%ciid)
  %d = load _, 2
  store _, 2, %d
  extcall @ci_enable(%ciid)
  %i = add %i, 1
  jmp head
exit:
  extcall @ci_disable(%ciid)
  %total = load _, 3
  extcall @ci_enable(%ciid)
  %z = mov 0
  ret %z
}

func @handler(%ir) {
entry:
  %r = load _, 0
  %s = load _, 1
  %d = load _, 2
  %c = lt %d, %s
  br %c, serve, done
serve:
  %todo = sub %s, %d
  %o1 = aadd _, 3, %todo
  store _, 2, %s
  jmp done
done:
  %z = mov 0
  ret %z
}
`

// InterleaveSpec returns the DelegationCI sharing-protocol model, its
// verifier options and the class of each shared word.
func InterleaveSpec() interleave.Spec {
	return interleave.Spec{
		Name: "ffwd/delegation",
		Mod:  ir.MustParse(interleaveIR),
		Opts: interleave.Options{RetOnly: true, CheckRun: checkDelegation},
		Words: []interleave.Word{
			{Addr: 0, Class: interleave.ClassObserved},
			{Addr: 1, Class: interleave.ClassObserved},
			{Addr: 2, Class: interleave.ClassProtected},
			{Addr: 3, Class: interleave.ClassAtomic},
		},
	}
}

// checkDelegation is the conservation law for one run: served work
// equals the completion watermark (nothing lost, nothing double-
// served) and the watermark never passes the published sequence.
func checkDelegation(r *interleave.Run) error {
	seq, done, counter := r.Mem[1], r.Mem[2], r.Mem[3]
	if done > seq {
		return fmt.Errorf("served past the published sequence: done %d seq %d", done, seq)
	}
	if counter != done {
		return fmt.Errorf("counter %d != completion watermark %d (requests lost or double-served)", counter, done)
	}
	return nil
}
