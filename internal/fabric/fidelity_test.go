package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestParseFidelity(t *testing.T) {
	cases := []struct {
		in   string
		want Fidelity
		err  bool
	}{
		{"", FidelityPacket, false},
		{"packet", FidelityPacket, false},
		{"flow", FidelityFlow, false},
		{"hybrid", FidelityHybrid, false},
		{"fluid", 0, true},
		{"Packet", 0, true},
	}
	for _, c := range cases {
		got, err := ParseFidelity(c.in)
		if (err != nil) != c.err || (err == nil && got != c.want) {
			t.Errorf("ParseFidelity(%q) = %v, %v", c.in, got, err)
		}
	}
	for i, name := range FidelityNames() {
		if Fidelity(i).String() != name {
			t.Errorf("Fidelity(%d).String() = %q, want %q", i, Fidelity(i).String(), name)
		}
	}
}

// flowNet builds a quiet dragonfly at the requested fidelity.
func flowNet(t testing.TB, f Fidelity) *Network {
	t.Helper()
	n := quietNet(t, noJitter(SlingshotProfile()))
	n.SetFidelity(f)
	return n
}

func TestFlowFidelityCompletionCalibrated(t *testing.T) {
	// One bulk transfer on a quiet network: the fluid completion time
	// must track the packet engine within a tight bound (this is the
	// single-message end of the calibration story; harness has the
	// loaded-scenario half).
	for _, bytes := range []int64{128 << 10, 1 << 20, 8 << 20} {
		packet := sendAndWait(t, flowNet(t, FidelityPacket), 0, 63, bytes)
		fluid := sendAndWait(t, flowNet(t, FidelityFlow), 0, 63, bytes)
		rel := float64(fluid-packet) / float64(packet)
		if rel < 0 {
			rel = -rel
		}
		t.Logf("%8d B: packet %v fluid %v (err %.1f%%)", bytes, packet, fluid, 100*rel)
		if rel > 0.15 {
			t.Errorf("%d B: fluid completion %v vs packet %v, |err| %.1f%% > 15%%",
				bytes, fluid, packet, 100*rel)
		}
	}
}

func TestFlowFidelityFairSharing(t *testing.T) {
	// Two fluid transfers into one destination share its edge link: both
	// must take about twice as long as a lone transfer.
	n := flowNet(t, FidelityFlow)
	const bytes = 4 << 20
	var done [2]sim.Time
	n.Send(0, 63, bytes, SendOpts{OnDelivered: func(at sim.Time) { done[0] = at }})
	n.Send(4, 63, bytes, SendOpts{OnDelivered: func(at sim.Time) { done[1] = at }})
	n.Eng.RunWhile(func() bool { return done[0] == 0 || done[1] == 0 })
	lone := sendAndWait(t, flowNet(t, FidelityFlow), 0, 63, bytes)
	for i, d := range done {
		ratio := float64(d) / float64(lone)
		if ratio < 1.7 || ratio > 2.3 {
			t.Errorf("flow %d: shared completion %v vs lone %v (ratio %.2f, want ~2)", i, d, lone, ratio)
		}
	}
}

func TestHybridClassification(t *testing.T) {
	n := flowNet(t, FidelityHybrid)
	cb := SendOpts{}
	// Untagged traffic stays packet-level regardless of size.
	n.Send(0, 63, 1<<20, cb)
	if n.FlowsStarted() != 0 {
		t.Fatalf("untagged send took the fluid path")
	}
	// Small bulk stays packet-level.
	n.Send(0, 63, 4<<10, SendOpts{Bulk: true})
	if n.FlowsStarted() != 0 {
		t.Fatalf("small bulk send took the fluid path")
	}
	// Real bulk goes fluid.
	n.Send(0, 63, 1<<20, SendOpts{Bulk: true})
	if n.FlowsStarted() != 1 {
		t.Fatalf("bulk send stayed on the packet path")
	}
	// Fan-in guard: beyond hybridFanIn concurrent fluid flows into one
	// node, further bulk sends drop to the packet engine.
	for i := 1; i < 8; i++ {
		n.Send(topology.NodeID(4*i), 63, 1<<20, SendOpts{Bulk: true})
	}
	if got := n.FlowsStarted(); got != hybridFanIn {
		t.Fatalf("fluid admissions = %d, want fan-in cap %d", got, hybridFanIn)
	}
	// Self-sends stay local even at flow fidelity.
	nf := flowNet(t, FidelityFlow)
	nf.Send(0, 0, 1<<20, cb)
	if nf.FlowsStarted() != 0 {
		t.Fatalf("self send took the fluid path")
	}
}

func TestHybridBackgroundLoadVisible(t *testing.T) {
	n := flowNet(t, FidelityHybrid)
	// Saturate a destination's edge with fluid bulk, then check the
	// packet path's load views see the background.
	dst := topology.NodeID(63)
	for i := 0; i < hybridFanIn; i++ {
		n.Send(topology.NodeID(4*i), dst, 32<<20, SendOpts{Bulk: true})
	}
	n.RunFor(100 * sim.Microsecond)
	if got := n.QueuedAtEdge(dst); got == 0 {
		t.Errorf("QueuedAtEdge(%d) = 0 under fluid saturation; background load invisible", dst)
	}
	// The edge segment is saturated, so its equivalent should read deep.
	if got := n.QueuedAtEdge(dst); got < n.Prof.EcnThreshold {
		t.Errorf("QueuedAtEdge(%d) = %d, want >= ECN threshold %d under saturation",
			dst, got, n.Prof.EcnThreshold)
	}
	// A quiet node reads zero.
	if got := n.QueuedAtEdge(1); got != 0 {
		t.Errorf("QueuedAtEdge(quiet) = %d, want 0", got)
	}
}

func TestFlowAckFollowsDelivery(t *testing.T) {
	// A fluid message delivers, then its ack lands one reverse-path
	// latency later, as on the packet path's dedicated ack crossbars.
	n := flowNet(t, FidelityFlow)
	var delivered, acked sim.Time
	m := n.Send(0, 63, 1<<20, SendOpts{
		OnDelivered: func(at sim.Time) { delivered = at },
		OnAcked:     func(at sim.Time) { acked = at },
	})
	n.Run()
	if delivered == 0 || m.DeliveredAt != delivered {
		t.Fatalf("delivered at %v, DeliveredAt %v", delivered, m.DeliveredAt)
	}
	path := n.flowEng.Candidates(n.Topo.SwitchOf(0), n.Topo.SwitchOf(63))[0]
	if want := delivered + n.revLatency(path); acked != want {
		t.Fatalf("acked at %v, want DeliveredAt %v + reverse latency = %v", acked, delivered, want)
	}
}

// TestFlowWakesStayBounded pins the fluid path's event cost. Sends run
// from plain engine events, outside any fluid tick. Each costs the send
// event, one wake to fold in its start, one wake at its drain, its
// delivery and its ack: at most five engine steps per message. At most
// one fluid wake is ever pending.
func TestFlowWakesStayBounded(t *testing.T) {
	n := flowNet(t, FidelityFlow)
	const sends = 300
	nodes := n.Topo.Nodes()
	acked := 0
	for i := 0; i < sends; i++ {
		src := topology.NodeID(i % nodes)
		dst := topology.NodeID((i*7 + 5) % nodes) // never src: 6i+5 is odd
		n.Eng.ScheduleFunc(sim.Time(i)*50*sim.Nanosecond, func() {
			n.Send(src, dst, 64<<10, SendOpts{OnAcked: func(sim.Time) { acked++ }})
		})
	}
	// Every queued event is a send not yet run, the delivery of a drained
	// flow, an ack in flight, or a wake, so the wakes are what remains.
	maxWakes := 0
	n.RunWhile(func() bool {
		started, done := int(n.FlowsStarted()), int(n.FlowsCompleted())
		drained := started - n.flowEng.Active()
		wakes := n.Eng.Pending() - (sends - started) - (drained - done) - (done - acked)
		if wakes > maxWakes {
			maxWakes = wakes
		}
		return true
	})
	if acked != sends {
		t.Fatalf("acked %d of %d messages", acked, sends)
	}
	if maxWakes > 1 {
		t.Errorf("%d fluid wakes pending at once, want at most 1", maxWakes)
	}
	if steps := n.Eng.Steps(); steps > 5*sends {
		t.Errorf("%d engine steps for %d messages (%.1f each), want at most 5 each",
			steps, sends, float64(steps)/sends)
	}
}

// TestFlowBurstSolvesOnce: a burst of fluid sends at one instant costs
// one solve, run by the wake that follows it, however many sends the
// burst holds. The deliveries match a reference network that re-solves
// after every send: rates that last zero time move no bytes.
func TestFlowBurstSolvesOnce(t *testing.T) {
	const k = 12
	burst := func(solveEach bool) (solves int64, at []sim.Time) {
		n := flowNet(t, FidelityFlow)
		nodes := n.Topo.Nodes()
		at = make([]sim.Time, k)
		count := make([]int, k)
		before := n.flowEng.Solves()
		for i := 0; i < k; i++ {
			i := i
			// Twelve sources into three destinations, sizes staggered so
			// the flows share links and drain at different times.
			src, dst := topology.NodeID(i), topology.NodeID(nodes-1-i%3)
			n.Send(src, dst, int64(64+32*i)<<10, SendOpts{OnDelivered: func(t sim.Time) {
				at[i] = t
				count[i]++
			}})
			if solveEach {
				n.flowEng.Resolve()
			}
		}
		// The wake at the burst's instant is the next event.
		if next, ok := n.Eng.NextAt(); !ok || next != n.Eng.Now() {
			t.Fatalf("next event at %v (ok %v), want the burst's wake at %v", next, ok, n.Eng.Now())
		}
		n.Eng.Step()
		solves = n.flowEng.Solves() - before
		n.Run()
		for i, c := range count {
			if c != 1 {
				t.Errorf("message %d delivered %d times, want once", i, c)
			}
		}
		return solves, at
	}
	solves, got := burst(false)
	if solves != 1 {
		t.Errorf("a burst of %d sends at one instant ran %d solves, want 1", k, solves)
	}
	refSolves, want := burst(true)
	if refSolves != k {
		t.Fatalf("reference ran %d solves, want one per send (%d)", refSolves, k)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("message %d delivered at %v, want %v as when solving after every send", i, got[i], want[i])
		}
	}
}
