// Traffic-class study (Figs. 13/14 in miniature): a latency-critical
// 8-byte Allreduce job shares a bandwidth-tapered system with a bulk
// 256 KiB Alltoall job — first in the same traffic class, then with the
// Allreduce in a high-priority class of its own. QoS keeps the collective
// fast regardless of the bulk traffic.
package main

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/results"
)

func main() {
	r := harness.Fig13TrafficClasses(harness.Options{Nodes: 24, Seed: 3})
	fmt.Println(results.TextString(r.Result()))
	fmt.Printf("protection factor: %.1fx\n", r.SameImpact/r.SeparateImpact)

	fmt.Println("\nminimum-bandwidth guarantees (Fig. 14):")
	b := harness.Fig14Bandwidth(harness.Options{Nodes: 24, Seed: 3})
	same, sep := b.OverlapShares()
	fmt.Printf("  same TC:      %.0f%% / %.0f%% while both jobs run\n", same[0]*100, same[1]*100)
	fmt.Printf("  separate TCs: %.0f%% / %.0f%% (configured min 80%% / min 10%% + spare)\n",
		sep[0]*100, sep[1]*100)
}
