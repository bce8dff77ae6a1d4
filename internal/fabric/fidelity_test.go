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
