package mtcp

// This file is the networking substrate of the mTCP model: a 10 Gbps
// link with serialization and propagation delay, and a NIC receive ring
// with finite capacity and drop accounting. An optional fault injector
// adds probabilistic packet loss, corruption and reordering on top of
// ring-overflow loss.

import "repro/internal/faults"

// cyclesPerByte10G is the serialization cost on a 10 Gbps link at the
// 2.6 GHz model clock: 2.6e9 cycles/s ÷ 1.25e9 bytes/s.
const cyclesPerByte10G = 2.08

// link is a point-to-point link with a fixed per-byte serialization
// cost and propagation delay.
type link struct {
	CyclesPerByte float64
	Propagation   int64
}

// Delay returns the one-way latency for a packet of the given size.
func (l *link) Delay(bytes int64) int64 {
	return int64(l.CyclesPerByte*float64(bytes)) + l.Propagation
}

// packet is a unit of network traffic.
type packet struct {
	// Arrival is the cycle the packet reached the NIC.
	Arrival int64
	// Conn identifies the connection.
	Conn int
	// Seq is a connection-local sequence number.
	Seq int64
	// Bytes is the wire size.
	Bytes int64
	// Retransmit marks a retransmitted packet.
	Retransmit bool
	// Corrupt marks a packet whose payload was damaged in flight; the
	// receiving stack discards it at checksum time.
	Corrupt bool
}

// nic is a receive ring of finite capacity.
type nic struct {
	// Capacity is the ring size in packets; pushes beyond it drop.
	Capacity int
	// Faults, when non-nil, injects probabilistic loss, corruption and
	// reordering on every push (on top of ring-overflow drops).
	Faults *faults.Injector
	ring   []packet
	// Dropped counts packets lost to ring overflow.
	Dropped int64
	// Lost counts packets removed by injected loss (the wire ate them
	// before the ring ever saw them).
	Lost int64
	// Corrupted counts packets delivered with damaged payloads.
	Corrupted int64
	// Reordered counts packets delivered late out of order.
	Reordered int64
	// Received counts all packets that entered the ring.
	Received int64
}

// newNIC returns a NIC with the given ring capacity.
func newNIC(capacity int) *nic {
	return &nic{Capacity: capacity}
}

// Push adds a packet to the ring; returns false (and counts a drop or
// an injected loss) when the packet does not make it in. Injected
// reordering delays the packet's visible arrival; the ring stays
// sorted by arrival so late packets do not block earlier ones.
func (n *nic) Push(p packet) bool {
	if n.Faults.Drop() {
		n.Lost++
		return false
	}
	if len(n.ring) >= n.Capacity {
		n.Dropped++
		return false
	}
	if n.Faults.Corrupt() {
		p.Corrupt = true
		n.Corrupted++
	}
	if d := n.Faults.Reorder(); d > 0 {
		p.Arrival += d
		n.Reordered++
	}
	n.ring = append(n.ring, p)
	// Keep arrival order: bubble a delayed packet past any it now
	// follows. A no-op when no reordering is injected (pushes arrive
	// in time order).
	for i := len(n.ring) - 1; i > 0 && n.ring[i-1].Arrival > n.ring[i].Arrival; i-- {
		n.ring[i-1], n.ring[i] = n.ring[i], n.ring[i-1]
	}
	n.Received++
	return true
}

// Pending returns the current ring occupancy.
func (n *nic) Pending() int { return len(n.ring) }

// Wipe empties the ring without touching the Dropped/Lost counters and
// returns how many packets were destroyed. It models the receiving
// host crashing: the packets were delivered to a process that died, so
// the caller accounts them as failed rather than lost on the wire.
func (n *nic) Wipe() int64 {
	wiped := int64(len(n.ring))
	n.ring = n.ring[:0]
	return wiped
}

// Drain removes and returns up to max packets that arrived at or
// before now (max <= 0 means no limit).
func (n *nic) Drain(now int64, max int) []packet {
	cut := 0
	for cut < len(n.ring) && n.ring[cut].Arrival <= now {
		cut++
		if max > 0 && cut == max {
			break
		}
	}
	out := append([]packet(nil), n.ring[:cut]...)
	n.ring = n.ring[:copy(n.ring, n.ring[cut:])]
	return out
}
