package mtcp

import (
	"testing"

	"repro/internal/faults"
)

func TestLinkDelay(t *testing.T) {
	const prop = 2600
	l := &link{CyclesPerByte: cyclesPerByte10G, Propagation: prop}
	d := l.Delay(1000)
	// 1000 bytes at ~2.08 cy/B plus propagation.
	if d < 2000+prop || d > 2200+prop {
		t.Errorf("Delay(1000) = %d", d)
	}
	if l.Delay(0) != prop {
		t.Errorf("zero-byte delay = %d, want propagation only", l.Delay(0))
	}
	if l.Delay(2000) <= l.Delay(1000) {
		t.Error("delay must grow with size")
	}
}

func TestNICPushDrainDrop(t *testing.T) {
	n := newNIC(3)
	for i := 0; i < 3; i++ {
		if !n.Push(packet{Arrival: int64(i), Conn: i}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if n.Push(packet{Arrival: 9}) {
		t.Error("push into full ring accepted")
	}
	if n.Dropped != 1 || n.Received != 3 {
		t.Errorf("dropped=%d received=%d", n.Dropped, n.Received)
	}
	if n.Pending() != 3 {
		t.Errorf("pending = %d", n.Pending())
	}
	// Drain respects arrival times.
	got := n.Drain(1, 0)
	if len(got) != 2 || got[0].Conn != 0 || got[1].Conn != 1 {
		t.Errorf("Drain(1) = %+v", got)
	}
	if n.Pending() != 1 {
		t.Errorf("pending after drain = %d", n.Pending())
	}
	// Now there is room again.
	if !n.Push(packet{Arrival: 5}) {
		t.Error("push after drain rejected")
	}
}

func TestNICDrainMax(t *testing.T) {
	n := newNIC(10)
	for i := 0; i < 6; i++ {
		n.Push(packet{Arrival: 0, Conn: i})
	}
	got := n.Drain(100, 4)
	if len(got) != 4 || got[3].Conn != 3 {
		t.Errorf("Drain max=4 returned %d packets", len(got))
	}
	got = n.Drain(100, 0)
	if len(got) != 2 || got[0].Conn != 4 {
		t.Errorf("second drain = %+v", got)
	}
}

func TestNICDrainPreservesFutureArrivals(t *testing.T) {
	n := newNIC(10)
	n.Push(packet{Arrival: 5})
	n.Push(packet{Arrival: 50})
	got := n.Drain(10, 0)
	if len(got) != 1 {
		t.Fatalf("drained %d, want 1", len(got))
	}
	if n.Pending() != 1 {
		t.Errorf("future packet lost")
	}
}

func TestNICInjectedLossIsCountedSeparately(t *testing.T) {
	n := newNIC(1000)
	n.Faults = faults.New(&faults.Plan{Seed: 5, DropProb: 0.5}, "net")
	pushes := 1000
	accepted := 0
	for i := 0; i < pushes; i++ {
		if n.Push(packet{Arrival: int64(i)}) {
			accepted++
		}
	}
	if n.Lost == 0 {
		t.Fatal("no injected loss at p=0.5")
	}
	if n.Dropped != 0 {
		t.Errorf("injected loss misattributed to ring overflow: %d", n.Dropped)
	}
	// Conservation: every push is accounted for exactly once.
	if n.Received+n.Lost+n.Dropped != int64(pushes) {
		t.Errorf("conservation: received=%d lost=%d dropped=%d pushes=%d",
			n.Received, n.Lost, n.Dropped, pushes)
	}
	if int64(accepted) != n.Received {
		t.Errorf("accepted=%d received=%d", accepted, n.Received)
	}
}

func TestNICCorruptionDeliversMarkedPackets(t *testing.T) {
	n := newNIC(100)
	n.Faults = faults.New(&faults.Plan{Seed: 9, CorruptProb: 1}, "net")
	for i := 0; i < 10; i++ {
		if !n.Push(packet{Arrival: int64(i)}) {
			t.Fatal("corruption must not drop the packet")
		}
	}
	got := n.Drain(100, 0)
	if len(got) != 10 || n.Corrupted != 10 {
		t.Fatalf("delivered %d corrupted=%d", len(got), n.Corrupted)
	}
	for _, p := range got {
		if !p.Corrupt {
			t.Fatal("corrupted packet not marked")
		}
	}
}

// A reordered (delayed) packet must not block packets pushed after it:
// the ring stays sorted by visible arrival time.
func TestNICReorderDoesNotBlockLaterPackets(t *testing.T) {
	n := newNIC(100)
	n.Faults = faults.New(&faults.Plan{Seed: 2, ReorderProb: 1, ReorderDelayCycles: 1 << 40}, "net")
	n.Push(packet{Arrival: 10, Conn: 0}) // delayed far into the future
	n.Faults = nil
	n.Push(packet{Arrival: 20, Conn: 1})
	got := n.Drain(1000, 0)
	if len(got) != 1 || got[0].Conn != 1 {
		t.Fatalf("Drain = %+v, want only the in-order packet", got)
	}
	if n.Pending() != 1 {
		t.Errorf("delayed packet lost")
	}
	if n.Reordered != 1 {
		t.Errorf("Reordered = %d", n.Reordered)
	}
}

func TestNICFaultsDeterministic(t *testing.T) {
	run := func() (int64, int64, int64) {
		n := newNIC(50)
		n.Faults = faults.New(faults.Uniform(77, 0.2), "net")
		for i := 0; i < 500; i++ {
			n.Push(packet{Arrival: int64(i)})
			n.Drain(int64(i), 4)
		}
		return n.Lost, n.Corrupted, n.Reordered
	}
	l1, c1, r1 := run()
	l2, c2, r2 := run()
	if l1 != l2 || c1 != c2 || r1 != r2 {
		t.Errorf("fault sequence not deterministic: %d/%d/%d vs %d/%d/%d", l1, c1, r1, l2, c2, r2)
	}
	if l1 == 0 || c1 == 0 || r1 == 0 {
		t.Errorf("expected all fault classes at rate 0.2: %d/%d/%d", l1, c1, r1)
	}
}
