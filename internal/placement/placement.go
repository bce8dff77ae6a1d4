// Package placement implements the three victim/aggressor node-allocation
// policies of Fig. 7 in the paper: linear, interleaved, and random. The
// allocation determines how many switches and groups the two jobs share,
// which directly modulates how much the aggressor's congestion leaks into
// the victim.
package placement

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Policy selects how nodes are split between victim and aggressor.
type Policy int

const (
	// Linear assigns the first v nodes to the victim and the rest to the
	// aggressor.
	Linear Policy = iota
	// Interleaved alternates victim and aggressor nodes proportionally.
	Interleaved
	// Random assigns nodes to the victim uniformly at random.
	Random
)

func (p Policy) String() string {
	switch p {
	case Linear:
		return "linear"
	case Interleaved:
		return "interleaved"
	case Random:
		return "random"
	}
	return "unknown"
}

// ParsePolicy converts a string flag value to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "linear":
		return Linear, nil
	case "interleaved":
		return Interleaved, nil
	case "random":
		return Random, nil
	}
	return 0, fmt.Errorf("placement: unknown policy %q", s)
}

// Split divides the nodes [0, total) into a victim set of size victims and
// an aggressor set holding the remainder, according to the policy. rng is
// used only by Random (and may be nil for the other policies). The returned
// slices are sorted in the placement's natural order.
func Split(total, victims int, policy Policy, rng *sim.RNG) (victim, aggressor []topology.NodeID) {
	if victims < 0 {
		victims = 0
	}
	if victims > total {
		victims = total
	}
	victim = make([]topology.NodeID, 0, victims)
	aggressor = make([]topology.NodeID, 0, total-victims)
	switch policy {
	case Linear:
		for n := 0; n < total; n++ {
			if n < victims {
				victim = append(victim, topology.NodeID(n))
			} else {
				aggressor = append(aggressor, topology.NodeID(n))
			}
		}
	case Interleaved:
		// Proportional interleave: walk the nodes accumulating victim
		// credit so that any prefix holds ~victims/total victim nodes.
		acc := 0
		for n := 0; n < total; n++ {
			acc += victims
			if acc >= total && len(victim) < victims {
				acc -= total
				victim = append(victim, topology.NodeID(n))
			} else {
				aggressor = append(aggressor, topology.NodeID(n))
			}
		}
		// Rounding can leave a victim short; steal from the aggressor tail.
		for len(victim) < victims {
			last := aggressor[len(aggressor)-1]
			aggressor = aggressor[:len(aggressor)-1]
			victim = append(victim, last)
		}
	case Random:
		if rng == nil {
			rng = sim.NewRNG(0)
		}
		perm := rng.Perm(total)
		pick := make([]bool, total)
		for _, i := range perm[:victims] {
			pick[i] = true
		}
		for n := 0; n < total; n++ {
			if pick[n] {
				victim = append(victim, topology.NodeID(n))
			} else {
				aggressor = append(aggressor, topology.NodeID(n))
			}
		}
	}
	return victim, aggressor
}

// SharedSwitches counts the switches that host nodes from both sets — a
// proxy for how entangled the two jobs are. Switch IDs are dense
// (0..Switches()-1 by the Topology contract), so membership is two flat
// bitmaps indexed by SwitchID: no map iteration, no per-call hashing, and
// a deterministic scan order regardless of input order.
func SharedSwitches(t topology.Topology, a, b []topology.NodeID) int {
	marks := make([]bool, 2*t.Switches())
	inA, seen := marks[:t.Switches()], marks[t.Switches():]
	for _, n := range a {
		inA[t.SwitchOf(n)] = true
	}
	shared := 0
	for _, n := range b {
		s := t.SwitchOf(n)
		if inA[s] && !seen[s] {
			seen[s] = true
			shared++
		}
	}
	return shared
}
