package fleet

import (
	"math/rand"
	"testing"
)

// The ring's contract: a live id is found with its contents whatever
// happened around it; a released id is gone for good (dueHedges relies
// on that to drop hedges of finished requests), even once its slot
// holds a later id; the ring only grows when the live window does.
func TestReqRing(t *testing.T) {
	t.Run("wrap-around without growth", func(t *testing.T) {
		r := newReqRing(4)
		for i := int64(1); i <= 1000; i++ {
			rq := r.add(i*10, i, int32(i%7))
			if rq.id != i || r.get(i) != rq {
				t.Fatalf("request %d stored as %d", i, rq.id)
			}
			if i > 2 { // two live at a time: ids i-1 and i
				old := r.get(i - 2)
				if old == nil || old.arrival != (i-2)*10 {
					t.Fatalf("live request %d lost or overwritten: %+v", i-2, old)
				}
				r.release(old)
				if r.get(i-2) != nil {
					t.Fatalf("released request %d still found", i-2)
				}
			}
		}
		if len(r.slots) != 4 {
			t.Fatalf("ring grew to %d slots with at most 3 live requests", len(r.slots))
		}
	})

	t.Run("growth while the oldest request is live", func(t *testing.T) {
		r := newReqRing(4)
		r.add(111, 222, 3) // id 1 outlives everything
		for i := int64(2); i <= 300; i++ {
			r.add(i, i, 0)
			if i%3 != 0 {
				r.release(r.get(i)) // ids far apart stay live: 3, 6, 9, ...
			}
		}
		if len(r.slots) < 300 {
			t.Fatalf("ring has %d slots for a live window of 300 ids", len(r.slots))
		}
		if rq := r.get(1); rq == nil || rq.arrival != 111 || rq.demand != 222 || rq.tenant != 3 {
			t.Fatalf("oldest request did not survive growth: %+v", rq)
		}
		for i := int64(2); i <= 300; i++ {
			rq := r.get(i)
			if live := i%3 == 0; (rq != nil) != live {
				t.Fatalf("request %d: found=%t, live=%t", i, rq != nil, live)
			} else if live && rq.arrival != i {
				t.Fatalf("request %d came back with another's contents: %+v", i, rq)
			}
		}
		// Releasing the oldest lets head jump over the gone ids.
		r.release(r.get(1))
		if r.head != 3 {
			t.Fatalf("head = %d after the oldest request left, want 3 (the next live id)", r.head)
		}
	})

	t.Run("gone means gone", func(t *testing.T) {
		r := newReqRing(4)
		if r.get(0) != nil || r.get(1) != nil || r.get(5) != nil {
			t.Fatal("an id never handed out was found")
		}
		r.release(r.add(1, 1, 0))
		for i := int64(2); i <= 9; i++ { // ids 5 and 9 reuse id 1's slot
			r.add(i, i, 0)
			if r.get(1) != nil {
				t.Fatalf("completed request 1 found again after request %d took its slot", i)
			}
			r.release(r.get(i))
		}
	})

	t.Run("random against a map", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		r := newReqRing(2)
		model := map[int64]int64{} // id -> arrival
		var ids []int64
		for step := 0; step < 20_000; step++ {
			if len(ids) == 0 || rng.Intn(100) < 52 {
				rq := r.add(rng.Int63(), 0, 0)
				model[rq.id] = rq.arrival
				ids = append(ids, rq.id)
			} else {
				k := rng.Intn(len(ids))
				if rng.Intn(4) > 0 {
					k = rng.Intn(min(len(ids), 8)) // mostly the oldest, like real requests
				}
				id := ids[k]
				ids = append(ids[:k], ids[k+1:]...)
				r.release(r.get(id))
				delete(model, id)
			}
			probe := 1 + rng.Int63n(r.last+2)
			want, live := model[probe]
			if rq := r.get(probe); (rq != nil) != live || live && rq.arrival != want {
				t.Fatalf("step %d: get(%d) = %+v, model says live=%t arrival=%d", step, probe, rq, live, want)
			}
		}
	})
}

// A third in-flight attempt cannot be recorded, and must not be
// dropped on the floor either: it is a typed error that reaches the
// Result and fails Conservation.
func TestInflightOverflowIsTypedError(t *testing.T) {
	cl := newClients(Config{Tenants: 1, Replicas: 1}.withDefaults())
	var b batch
	cl.arrivals(&b, 0, 100*EpochCycles)
	first := b.due[0]
	hedge, third := first, first
	hedge.id, hedge.kind = 1_000_001, kindHedge
	third.id, third.kind = 1_000_002, kindHedge
	cl.noteAttempt(&first)
	cl.noteAttempt(&hedge)
	if cl.overflow != nil {
		t.Fatalf("two attempts in flight reported as a violation: %v", cl.overflow)
	}
	cl.noteAttempt(&third)
	overflow := cl.overflow
	if overflow == nil || overflow.ReqID != first.reqID || overflow.AttemptID != third.id {
		t.Fatalf("third in-flight attempt gave %v, want an InflightOverflowError for request %d attempt %d",
			overflow, first.reqID, third.id)
	}
	if rq := cl.reqs.get(first.reqID); rq.nOut != maxInflight {
		t.Fatalf("request records %d in-flight attempts, want %d", rq.nOut, maxInflight)
	}
	res := &Result{}
	cl.fill(res)
	if len(res.InvariantErrs) != 1 || res.InvariantErrs[0] != overflow.Error() {
		t.Fatalf("InvariantErrs = %q, want the overflow", res.InvariantErrs)
	}
	if res.Conservation() == nil {
		t.Fatal("Conservation passed a run with an in-flight overflow")
	}
}

// The FIFO must behave like a slice under any mix of operations and
// stop growing once the live window does.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var q queue[int]
	var model []int
	next := 0
	for step := 0; step < 50_000; step++ {
		switch op := rng.Intn(100); {
		case op < 50 && len(model) < 40:
			q.push(next)
			model = append(model, next)
			next++
		case op < 90 && len(model) > 0:
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop = %d, want %d", step, got, model[0])
			}
			model = model[1:]
		case op < 97 && len(model) > 0:
			i := rng.Intn(len(model))
			q.remove(i)
			model = append(model[:i:i], model[i+1:]...)
		case op == 99:
			q.reset()
			model = nil
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len = %d, want %d", step, q.len(), len(model))
		}
		for i, v := range q.live() {
			if v != model[i] {
				t.Fatalf("step %d: live()[%d] = %d, want %d", step, i, v, model[i])
			}
		}
	}
	if cap(q.buf) > 4*40 {
		t.Fatalf("backing array grew to %d for at most 40 live elements", cap(q.buf))
	}
}
