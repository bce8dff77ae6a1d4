package fabric

import (
	"repro/internal/sim"
	"repro/internal/topology"
)

// Packet is one RoCEv2 packet in flight. Packets are segmented from
// Messages at the source NIC and reassembled (counted) at the destination.
type Packet struct {
	Msg     *Message
	Seq     int
	Payload int
	Class   int
	// Path is the switch-level route chosen at the source switch; hop
	// indexes the next entry to visit.
	Path topology.Path
	hop  int
	// inPort is the upstream port whose input-buffer credit this packet
	// holds; the credit returns when the packet departs the current switch.
	inPort *outPort
	// ctrl marks protocol packets (RTS of the rendezvous handshake).
	ctrl      bool
	ecnMarked bool
	sentAt    sim.Time
}

// Message is an application-level transfer between two endpoints.
type Message struct {
	ID    int64
	Src   topology.NodeID
	Dst   topology.NodeID
	Bytes int64
	Class int
	// Tag is an arbitrary caller label (e.g. job ID) readable from taps.
	Tag int64

	// Rendezvous transfers exchange an RTS/CTS handshake before data.
	Rendezvous bool

	// OnDelivered fires at the destination when the last data packet
	// arrives. OnAcked fires at the source when the last end-to-end ack
	// returns (Put + flush semantics).
	OnDelivered func(at sim.Time)
	OnAcked     func(at sim.Time)

	// Injection state (owned by the source NIC).
	numPackets int
	nextSeq    int
	hostReady  sim.Time // host per-message overhead satisfied
	dataReady  bool     // rendezvous handshake completed (or not needed)
	rtsSent    bool
	// Completion state. seen0/seen form a per-Seq delivery bitmap: with
	// FrameBER>0 and end-to-end retries, a late original and its
	// retransmit may both arrive, and only the first may count. Messages
	// of up to 64 packets use the inline word (no allocation).
	delivered int
	acked     int
	seen0     uint64
	seen      []uint64
	// ackRTT is the latest packet's injection-to-ack round-trip sample,
	// set when the delivery schedules the ack and consumed by the source
	// NIC's congestion controller (delay-based CC, §II-D).
	ackRTT sim.Time

	// recycle marks an opted-in (SendOpts.Recycle) handle the fabric
	// returns to the Send free-list after its final completion event.
	recycle bool
	// flowLatency and flowAckLatency time a fluid message's completion:
	// delivery lands flowLatency after its flow drains, the ack
	// flowAckLatency after delivery (see flowTimes).
	flowLatency, flowAckLatency sim.Time

	SubmittedAt sim.Time
	DeliveredAt sim.Time
}

// Done reports whether all data packets have been delivered.
func (m *Message) Done() bool { return m.delivered >= m.numPackets }

// markDelivered records the first delivery of packet seq and reports
// whether it was new; a duplicate (late original plus retransmit) returns
// false and must not count again.
func (m *Message) markDelivered(seq int) bool {
	if seq < 0 || seq >= m.numPackets {
		return false
	}
	if m.numPackets <= 64 {
		bit := uint64(1) << seq
		if m.seen0&bit != 0 {
			return false
		}
		m.seen0 |= bit
		return true
	}
	if m.seen == nil {
		m.seen = make([]uint64, (m.numPackets+63)/64)
	}
	w, bit := seq/64, uint64(1)<<(seq%64)
	if m.seen[w]&bit != 0 {
		return false
	}
	m.seen[w] |= bit
	return true
}

// allocPacket returns a zeroed packet from the free-list (or a fresh
// one).
//
//simlint:hotpath
func (n *Network) allocPacket() *Packet {
	if k := len(n.pktFree); k > 0 {
		p := n.pktFree[k-1]
		n.pktFree[k-1] = nil
		n.pktFree = n.pktFree[:k-1]
		return p
	}
	return &Packet{} //simlint:allocok -- cold start; steady state recycles off the free-list
}

// freePacket recycles a terminated packet. Callers must guarantee no
// live references remain (delivery taps run before release and must not
// retain the packet). The struct is zeroed here, not at alloc, so idle
// free-list entries do not pin their last Message (and its completion
// closures) or Path.
//
//simlint:hotpath
func (n *Network) freePacket(p *Packet) {
	*p = Packet{}
	n.pktFree = append(n.pktFree, p) //simlint:retained -- this IS the packet free-list: the one sanctioned retention point (see freelist analyzer)
}
