package fleet

import (
	"fmt"
	"slices"
)

// This file holds the barrier's reused data structures: the
// request slab, the epoch batch and its merge, the retry heap and the
// head-indexed FIFO. The package comment's "Execution" section says
// how an epoch uses them.

// maxInflight is how many attempts of one request can be in flight at
// once. A request starts with one; the only attempt ever added beside a
// live one is its single hedge, and a retry is scheduled by the failure
// that retires its predecessor — so two is a property of the client
// model, and a third is a bug (InflightOverflowError).
const maxInflight = 2

// request is one client request's settlement state, stored inline in
// the slab (64 bytes, one cache line). The in-flight attempts are
// out{ID,Replica}[:nOut], oldest first.
type request struct {
	id, arrival, demand int64 // id is the request's sequence number, from 1
	outID               [maxInflight]int64
	outReplica          [maxInflight]int32 // -1 until routed
	tenant              int32
	retries             int32
	gen                 uint32 // the slot's generation; see reqSlab
	live                int8   // attempts in flight or scheduled
	nOut                int8
	hedged, done        bool
}

// dropOut removes in-flight attempt id, keeping the others in order.
func (rq *request) dropOut(id int64) {
	for i := 0; i < int(rq.nOut); i++ {
		if rq.outID[i] == id {
			last := int(rq.nOut) - 1
			copy(rq.outID[i:last], rq.outID[i+1:last+1])
			copy(rq.outReplica[i:last], rq.outReplica[i+1:last+1])
			rq.nOut--
			return
		}
	}
}

// InflightOverflowError reports that an attempt was sent for a request
// that already had maxInflight attempts in flight. The client model
// cannot produce this (see maxInflight); it is surfaced through
// Result.InvariantErrs, and hence Conservation, instead of growing the
// request's record silently. The attempt itself still runs and settles;
// only its cancellation tracking is lost.
type InflightOverflowError struct {
	ReqID, AttemptID int64 // ReqID is the request's sequence number
}

func (e *InflightOverflowError) Error() string {
	return fmt.Sprintf("fleet: attempt %d of request %d would be in-flight attempt %d",
		e.AttemptID, e.ReqID, maxInflight+1)
}

// reqHandle names a request in the slab: its slot, and the slot's
// generation when the request took it.
type reqHandle struct {
	slot, gen uint32
}

// reqSlab stores the live requests, one slot each, so it is as long as
// the most requests ever live at once — not as long as the span of
// their sequence numbers, which a few slow requests stretch far
// further. Released slots go on a free list and are reused last in,
// first out; only when the list is empty does the slab take a fresh
// slot, doubling its array when that is full. There is no map and no
// per-request object.
//
// Release bumps the slot's generation, so a handle resolves only while
// its request lives: once the request is released, and after the slot
// is reused, get finds another generation and returns nil. Generations
// start at 1, so the zero handle
// is never live; they wrap after 2^32 reuses of one slot, and no handle
// outlives its request by anything near that. A *request is valid
// until the next add (growth moves the slots).
type reqSlab struct {
	slots []request
	free  []uint32 // released slots, the next one to reuse last; cap(free) == cap(slots)
	seq   int64    // sequence number of the last request added
}

// newReqSlab makes a slab with room for size > 0 live requests before
// its first growth.
func newReqSlab(size int) reqSlab {
	return reqSlab{slots: make([]request, 0, size), free: make([]uint32, 0, size)}
}

// add stores a new request, numbered seq+1, and returns its handle.
func (s *reqSlab) add(arrival, demand int64, tenant int32) reqHandle {
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slots) == cap(s.slots) {
			// The free list is empty, so it can be replaced.
			grown := make([]request, len(s.slots), 2*cap(s.slots))
			copy(grown, s.slots)
			s.slots = grown
			s.free = make([]uint32, 0, cap(grown))
		}
		i = uint32(len(s.slots))
		s.slots = s.slots[:i+1]
		s.slots[i].gen = 1
	}
	s.seq++
	rq := &s.slots[i]
	*rq = request{id: s.seq, arrival: arrival, demand: demand, tenant: tenant, gen: rq.gen}
	return reqHandle{slot: i, gen: rq.gen}
}

// get returns the request h names, or nil when it is gone: released,
// or never handed out.
func (s *reqSlab) get(h reqHandle) *request {
	if int(h.slot) < len(s.slots) {
		if rq := &s.slots[h.slot]; rq.gen == h.gen {
			return rq
		}
	}
	return nil
}

// release frees a finished request's slot for reuse; h stops
// resolving.
func (s *reqSlab) release(h reqHandle) {
	s.slots[h.slot].gen++
	s.free = append(s.free, h.slot)
}

// before is the total order the barrier routes attempts in: send
// time, then attempt id. Ids are unique, so the order is strict and any
// correct way of producing it produces the same sequence.
func before(a, b *attempt) bool {
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.id < b.id
}

// batch is one epoch's attempts, reused across epochs. The producers
// (fresh arrivals per tenant, due retries, due hedges) append runs that
// are each already in `before` order and close them with endRun; merged
// interleaves the runs instead of sorting the whole batch.
type batch struct {
	due   []attempt
	ends  []int32 // end offset in due of each run
	cur   []int32 // merged's scratch: next unread offset of each run
	order []int32 // merged's result
}

func (b *batch) reset() {
	b.due = b.due[:0]
	b.ends = b.ends[:0]
}

// endRun closes the run of attempts appended since the last endRun; an
// empty run is dropped.
func (b *batch) endRun() {
	start := int32(0)
	if len(b.ends) > 0 {
		start = b.ends[len(b.ends)-1]
	}
	if n := int32(len(b.due)); n > start {
		b.ends = append(b.ends, n)
	}
}

// merged returns the indices of due in `before` order: a k-way merge
// that takes the least head among the runs still unread. k is the
// tenant count plus two, so the scan over heads beats a heap.
func (b *batch) merged() []int32 {
	b.order = b.order[:0]
	b.cur = b.cur[:0]
	start := int32(0)
	for _, end := range b.ends {
		b.cur = append(b.cur, start)
		start = end
	}
	for range b.due {
		best := -1
		for r, c := range b.cur {
			if c < b.ends[r] && (best < 0 || before(&b.due[c], &b.due[b.cur[best]])) {
				best = r
			}
		}
		b.order = append(b.order, b.cur[best])
		b.cur[best]++
	}
	return b.order
}

// retryHeap is a binary min-heap of scheduled retries in `before`
// order (a retry's arrival is its send time), typed so that push and
// pop box nothing.
type retryHeap []attempt

func (h *retryHeap) push(a attempt) {
	s := append(*h, a)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if !before(&s[i], &s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *retryHeap) pop() attempt {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		least := 2*i + 1
		if least >= n {
			break
		}
		if r := least + 1; r < n && before(&s[r], &s[least]) {
			least = r
		}
		if !before(&s[least], &s[i]) {
			break
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
	return top
}

// queue is a FIFO over one reused backing array: pop advances a head
// index instead of re-slicing the front away (which sheds capacity and
// makes append reallocate for ever), and push moves the live window
// back to the front once at least half the array is dead, so a queue
// in steady state stops allocating.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

// live is the queued elements, oldest first; valid until the next push.
func (q *queue[T]) live() []T { return q.buf[q.head:] }

func (q *queue[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head*2 >= len(q.buf) && q.head > 0 {
		q.buf = q.buf[:copy(q.buf, q.buf[q.head:])]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.reset()
	}
	return v
}

// remove deletes live()[i], keeping the order of the rest.
func (q *queue[T]) remove(i int) {
	q.buf = slices.Delete(q.buf, q.head+i, q.head+i+1)
	if q.head == len(q.buf) {
		q.reset()
	}
}

func (q *queue[T]) reset() {
	q.buf = q.buf[:0]
	q.head = 0
}
