package fleet

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The slab's contract: a live request is found through its handle with
// its contents whatever happened around it; a released request is gone
// for good (dueHedges relies on that to drop hedges of finished
// requests), even once its slot holds a later request; the slab only
// grows when the live set does.
func TestReqSlab(t *testing.T) {
	t.Run("reuse without growth", func(t *testing.T) {
		s := newReqSlab(4)
		hs := map[int64]reqHandle{}
		for i := int64(1); i <= 1000; i++ {
			h := s.add(i*10, i, int32(i%7))
			hs[i] = h
			if rq := s.get(h); rq == nil || rq.id != i || rq.arrival != i*10 {
				t.Fatalf("request %d stored as %+v", i, rq)
			}
			if i > 2 { // two live at a time: requests i-1 and i
				old := s.get(hs[i-2])
				if old == nil || old.id != i-2 || old.arrival != (i-2)*10 {
					t.Fatalf("live request %d lost or overwritten: %+v", i-2, old)
				}
				s.release(hs[i-2])
				if s.get(hs[i-2]) != nil {
					t.Fatalf("released request %d still found", i-2)
				}
			}
		}
		if cap(s.slots) != 4 || len(s.slots) != 3 {
			t.Fatalf("slab has %d of %d slots in use with at most 3 live requests", len(s.slots), cap(s.slots))
		}
	})

	t.Run("growth while the oldest request is live", func(t *testing.T) {
		s := newReqSlab(4)
		first := s.add(111, 222, 3) // outlives everything
		hs := []reqHandle{first}
		const n = 6000
		for i := int64(2); i <= n; i++ {
			h := s.add(i, i, int32(i%5))
			hs = append(hs, h)
			if i%3 != 0 {
				s.release(h) // 2 000 requests stay live: 3, 6, 9, ...
			}
		}
		if live := 1 + n/3; len(s.slots) != live || cap(s.slots) > 2*live {
			t.Fatalf("slab has %d of %d slots in use for %d live requests", len(s.slots), cap(s.slots), live)
		}
		if rq := s.get(first); rq == nil || rq.id != 1 || rq.arrival != 111 || rq.demand != 222 || rq.tenant != 3 {
			t.Fatalf("oldest request did not survive growth: %+v", rq)
		}
		for k, h := range hs[1:] {
			i := int64(k + 2)
			rq := s.get(h)
			if live := i%3 == 0; (rq != nil) != live {
				t.Fatalf("request %d: found=%t, live=%t", i, rq != nil, live)
			} else if live && (rq.id != i || rq.arrival != i || rq.tenant != int32(i%5)) {
				t.Fatalf("request %d came back with another's contents: %+v", i, rq)
			}
		}
	})

	t.Run("gone means gone", func(t *testing.T) {
		s := newReqSlab(4)
		if s.get(reqHandle{}) != nil || s.get(reqHandle{slot: 3, gen: 1}) != nil {
			t.Fatal("a handle never handed out was found")
		}
		h := s.add(1, 1, 0)
		s.release(h)
		if s.get(h) != nil {
			t.Fatal("released request 1 found")
		}
		for i := int64(2); i <= 9; i++ { // every one reuses request 1's slot
			h2 := s.add(i, i, 0)
			if h2.slot != h.slot {
				t.Fatalf("request %d took slot %d, not the freed slot %d", i, h2.slot, h.slot)
			}
			if s.get(h) != nil {
				t.Fatalf("released request 1 found again after request %d took its slot", i)
			}
			if rq := s.get(h2); rq == nil || rq.id != i {
				t.Fatalf("request %d not found through its own handle", i)
			}
			s.release(h2)
		}
	})

	t.Run("deterministic reuse", func(t *testing.T) {
		// Two slabs driven alike hand out the same handles, and freed
		// slots come back last freed, first reused.
		var slabs [2]reqSlab
		var got [2][]reqHandle
		for k := range slabs {
			s := &slabs[k]
			*s = newReqSlab(2)
			rng := rand.New(rand.NewSource(53))
			var live []reqHandle
			for step := 0; step < 5000; step++ {
				if len(live) == 0 || rng.Intn(2) == 0 {
					h := s.add(0, 0, 0)
					live = append(live, h)
					got[k] = append(got[k], h)
					continue
				}
				i := rng.Intn(len(live))
				s.release(live[i])
				live = append(live[:i], live[i+1:]...)
			}
		}
		if !slices.Equal(got[0], got[1]) {
			t.Fatal("two slabs driven alike handed out different handles")
		}
		s := newReqSlab(8)
		var hs []reqHandle
		for range 5 {
			hs = append(hs, s.add(0, 0, 0))
		}
		s.release(hs[1])
		s.release(hs[3])
		s.release(hs[0])
		for _, want := range []uint32{hs[0].slot, hs[3].slot, hs[1].slot, 5} {
			if h := s.add(0, 0, 0); h.slot != want {
				t.Fatalf("add took slot %d, want %d (last freed first, then a fresh slot)", h.slot, want)
			}
		}
	})

	t.Run("random against a map", func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		s := newReqSlab(2)
		model := map[int64]int64{} // sequence number -> arrival
		handles := map[int64]reqHandle{}
		var ids []int64
		for step := 0; step < 20_000; step++ {
			if len(ids) == 0 || rng.Intn(100) < 52 {
				h := s.add(rng.Int63(), 0, 0)
				rq := s.get(h)
				model[rq.id] = rq.arrival
				handles[rq.id] = h
				ids = append(ids, rq.id)
			} else {
				k := rng.Intn(len(ids))
				if rng.Intn(4) > 0 {
					k = rng.Intn(min(len(ids), 8)) // mostly the oldest, like real requests
				}
				id := ids[k]
				ids = append(ids[:k], ids[k+1:]...)
				s.release(handles[id])
				delete(model, id)
			}
			probe := 1 + rng.Int63n(s.seq)
			want, live := model[probe]
			if rq := s.get(handles[probe]); (rq != nil) != live || live && (rq.id != probe || rq.arrival != want) {
				t.Fatalf("step %d: request %d = %+v, model says live=%t arrival=%d", step, probe, rq, live, want)
			}
		}
	})
}

// A request is one cache line.
func TestRequestLayout(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n > 64 {
		t.Errorf("request is %d bytes, want at most 64", n)
	}
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
	rq := cl.reqs.get(first.req)
	if overflow == nil || overflow.ReqID != rq.id || overflow.AttemptID != third.id {
		t.Fatalf("third in-flight attempt gave %v, want an InflightOverflowError for request %d attempt %d",
			overflow, rq.id, third.id)
	}
	if rq.nOut != maxInflight {
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
