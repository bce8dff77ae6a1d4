// Package repro's top-level benchmarks regenerate every table and figure
// of the paper's evaluation at reduced scale — one benchmark per figure —
// plus ablation benchmarks for the design choices called out in DESIGN.md
// (endpoint congestion control, adaptive routing, Ethernet enhancements),
// raw engine/fabric throughput benchmarks, and the hot-path rows with
// their alloc gate, TestHotPathAllocs.
//
// Figure benchmarks are dominated by one full harness run per iteration
// (they report the figure's headline metric via b.ReportMetric); with the
// default -benchtime they execute once. Paper-scale runs go through
// cmd/slingshot-sim instead.
package repro

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/congestion"
	"repro/internal/ethernet"
	"repro/internal/fabric"
	"repro/internal/flow"
	"repro/internal/harness"
	"repro/internal/mpi"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/workloads"
)

func BenchmarkFig2SwitchLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig2SwitchLatency(harness.Options{Nodes: 32, MaxIters: 300})
		b.ReportMetric(r.Samples.Mean(), "switch-ns")
	}
}

func BenchmarkFig3Topology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := topology.MaxSystem()
		d := topology.MustNew(topology.ShandyConfig())
		b.ReportMetric(float64(spec.Endpoints), "max-endpoints")
		b.ReportMetric(float64(d.BisectionLinks()), "shandy-bisection-links")
	}
}

func BenchmarkFig4Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig4Distance(harness.Options{Nodes: 32, MaxIters: 8})
		last := r.Rows[len(r.Rows)-1]
		b.ReportMetric(last.GBits, "4MiB-Gbps")
	}
}

func BenchmarkFig5Stacks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig5Stacks(harness.Options{Nodes: 32, MaxIters: 2})
		b.ReportMetric(r.Points[0].RTT2.Microseconds(), "verbs-8B-us")
	}
}

func BenchmarkFig6Bisection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig6Bisection(harness.Options{Nodes: 32, Seed: 2})
		for _, p := range r.Points {
			if p.Series == "bisection" && p.Size == 128*1024 {
				b.ReportMetric(p.PeakFrc, "bisection-peak-frac")
			}
		}
	}
}

func BenchmarkFig8Tailbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig8Tailbench(harness.Options{Nodes: 64, MaxIters: 10, Seed: 9})
		worst := 0.0
		for _, e := range r.Entries {
			if c := e.Congested.Mean() / e.Isolated.Mean(); c > worst {
				worst = c
			}
		}
		b.ReportMetric(worst, "worst-impact")
	}
}

func BenchmarkFig9Heatmap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig9Heatmap(harness.Options{
			Nodes: 32, MinIters: 2, MaxIters: 3, Seed: 11,
		}, harness.VictimsApps)
		max := r.Max()
		b.ReportMetric(max["Aries (Crystal)"], "aries-max-impact")
		b.ReportMetric(max["Slingshot (Shandy)"], "slingshot-max-impact")
	}
}

func BenchmarkFig10Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig10Distributions(harness.Options{
			Nodes: 24, MinIters: 2, MaxIters: 3, Seed: 17,
		}, harness.VictimsApps, "A")
		worst := 0.0
		for _, v := range r.Variants {
			if v.Max > worst {
				worst = v.Max
			}
		}
		b.ReportMetric(worst, "worst-impact")
	}
}

func BenchmarkFig11FullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig11FullScale(harness.Options{
			Nodes: 32, MinIters: 2, MaxIters: 3, Seed: 5,
		})
		worst := 0.0
		for _, row := range r.Rows {
			for _, c := range row.Cells {
				if !c.NA && c.Impact > worst {
					worst = c.Impact
				}
			}
		}
		b.ReportMetric(worst, "worst-impact")
	}
}

func BenchmarkFig12Bursty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig12Bursty(harness.Options{
			Nodes: 24, MinIters: 3, MaxIters: 6, Seed: 13,
		}, []int64{128 * 1024, 1 << 20}, []int{100, 10000}, []int64{1, 10000})
		b.ReportMetric(r.MaxImpact()[128*1024], "128KiB-max-impact")
	}
}

func BenchmarkFig13TrafficClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig13TrafficClasses(harness.Options{Nodes: 24, Seed: 3})
		b.ReportMetric(r.SameImpact, "sameTC-impact")
		b.ReportMetric(r.SeparateImpact, "separateTC-impact")
	}
}

func BenchmarkFig14Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.Fig14Bandwidth(harness.Options{Nodes: 24, Seed: 3})
		_, sep := r.OverlapShares()
		b.ReportMetric(sep[0], "tc1-share")
	}
}

func BenchmarkTableIApplications(b *testing.B) {
	topo := topology.MustNew(topology.ScaledConfig(16))
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	for i := 0; i < b.N; i++ {
		for _, app := range workloads.AppsScaled(0.01) {
			net := fabric.New(topo, prof, 1)
			nodes := make([]topology.NodeID, 8)
			for k := range nodes {
				nodes[k] = topology.NodeID(k)
			}
			j := mpi.NewJob(net, nodes, mpi.JobOpts{Stack: mpi.MPI})
			rng := sim.NewRNG(7)
			fin := false
			app.Iterate(j, rng, func() { fin = true })
			net.Eng.RunWhile(func() bool { return !fin })
			if !fin {
				b.Fatalf("%s did not finish", app.Name)
			}
		}
	}
}

// Ablation: how much of the victim protection comes from the congestion
// control algorithm (the DESIGN.md design-choice study). Everything is
// held constant — the Aries-style machine (grid groups, shallow buffers,
// noisy routing) where congestion trees can spread — and ONLY the endpoint
// CC algorithm changes. Expected ordering of victim impact:
// none >> ecn > slingshot.
func BenchmarkAblationCongestionControl(b *testing.B) {
	kinds := []struct {
		name string
		cc   congestion.Params
	}{
		{"slingshot", congestion.DefaultParams(congestion.Slingshot)},
		{"ecn", congestion.DefaultParams(congestion.ECNLike)},
		{"none", congestion.DefaultParams(congestion.None)},
	}
	base := harness.Crystal(72)
	for _, k := range kinds {
		k := k
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sys := base
				sys.Prof.CC = k.cc
				r := harness.RunCell(harness.CellSpec{
					Sys: sys, TotalNodes: 48, VictimFrac: 0.5,
					Aggressor: harness.IncastAggressor, AggrPPN: 1,
					Seed: 7, MinIters: 3, MaxIters: 6,
				}, harness.BenchVictim(workloads.AllreduceBench(8)))
				b.ReportMetric(r.Impact, "victim-impact")
			}
		})
	}
}

// Ablation: adaptive routing versus minimal-only under cross-group load.
func BenchmarkAblationAdaptiveRouting(b *testing.B) {
	for _, adaptive := range []bool{true, false} {
		name := "minimal"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof := fabric.SlingshotProfile()
				prof.SwitchJitter = false
				prof.AdaptiveRouting = adaptive
				topo := topology.MustNew(topology.Config{
					Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 1,
				})
				net := fabric.New(topo, prof, 3)
				done := 0
				for s := 0; s < 16; s++ {
					net.Send(topology.NodeID(s), topology.NodeID(16+s), 256*1024,
						fabric.SendOpts{OnDelivered: func(sim.Time) { done++ }})
				}
				net.Eng.RunWhile(func() bool { return done < 16 })
				b.ReportMetric(net.Now().Microseconds(), "completion-us")
			}
		})
	}
}

// Ablation: Slingshot's Ethernet enhancements (32 B min frame, headerless
// IP, no IPG, §II-F) versus standard framing, measured as 8-byte-message
// throughput across a single saturated global link. Host per-message costs
// are zeroed so the wire framing is the bottleneck (an 8 B RoCE frame is
// 84 wire bytes standard vs 52 enhanced).
func BenchmarkAblationEthernetMode(b *testing.B) {
	for _, enhanced := range []bool{true, false} {
		name := "standard"
		if enhanced {
			name = "enhanced"
		}
		mode := ethernet.Standard
		if enhanced {
			mode = ethernet.Enhanced
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prof := fabric.SlingshotProfile()
				prof.SwitchJitter = false
				prof.FabricMode = mode
				prof.HostGap = 0
				topo := topology.MustNew(topology.Config{
					Groups: 2, SwitchesPerGroup: 1, NodesPerSwitch: 8, GlobalPerPair: 1,
				})
				net := fabric.New(topo, prof, 4)
				stop := false
				var post func(src, dst topology.NodeID)
				post = func(src, dst topology.NodeID) {
					if stop {
						return
					}
					net.Send(src, dst, 8, fabric.SendOpts{OnDelivered: func(sim.Time) {
						post(src, dst)
					}})
				}
				for s := 0; s < 8; s++ {
					// Deep per-flow pipelines keep the shared global link
					// saturated so wire framing is the bottleneck.
					for w := 0; w < 96; w++ {
						post(topology.NodeID(s), topology.NodeID(8+s))
					}
				}
				net.RunFor(200 * sim.Microsecond)
				stop = true
				b.ReportMetric(float64(net.PacketsDelivered)/net.Now().Seconds()/1e6, "Mmsg-per-s")
			}
		})
	}
}

// The hot-path rows below share one shape: a set-up function builds its
// network once and returns run(n), which moves n more units of work
// (packets, flows, solver events, decisions, builds or cells) from where
// the previous call stopped. BenchmarkX times run(b.N); TestHotPathAllocs
// counts the allocations of fixed-size batches, which — unlike allocs/op
// at whatever b.N the machine's speed picks — is the same on every
// machine.

// packetBytes is the payload one delivered data packet simulates
// (full-size RoCE frames), the SetBytes figure of the packet rows.
const packetBytes = ethernet.MaxPayload

// packetStream keeps 8 flows x 4 outstanding 32 KiB eager messages (8
// packets each) in flight on net, reposting each message on delivery —
// busy without saturating the fabric into pathological queueing. run(n)
// advances until n more data packets are delivered.
func packetStream(net *fabric.Network) func(n int) {
	delivered := 0
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) { delivered++ }
	const msgBytes = 32 * 1024
	var post func(src, dst topology.NodeID)
	post = func(src, dst topology.NodeID) {
		net.Send(src, dst, msgBytes, fabric.SendOpts{
			NoRendezvous: true,
			OnDelivered:  func(sim.Time) { post(src, dst) },
		})
	}
	for i := 0; i < 8; i++ {
		for w := 0; w < 4; w++ {
			post(topology.NodeID(i), topology.NodeID(16+i)) // cross-group / cross-pod
		}
	}
	return runDelivered(net, &delivered)
}

// runDelivered returns a row's run: advance net until *delivered has
// grown by n.
func runDelivered(net *fabric.Network, delivered *int) func(n int) {
	return func(n int) {
		target := *delivered + n
		net.RunWhile(func() bool { return *delivered < target })
	}
}

// packetHotPath streams eager messages across a small two-group fabric
// (adaptive routing and Slingshot congestion control on, jitter off); a
// unit is one delivered data packet, so ns/op and allocs/op read as the
// per-packet hot-path cost: NIC injection, source-switch path choice,
// per-hop forwarding, DRR scheduling, credits and the end-to-end ack.
func packetHotPath() func(n int) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	return packetStream(fabric.New(topo, prof, 5))
}

// packetHotPathFatTree is packetHotPath on the fat-tree backend behind the
// same Topology interface: a 2-pod folded Clos with the paper's 100 Gb/s
// RoCE profile (jitter off), keeping the interface-dispatch cost visible
// per backend.
func packetHotPathFatTree() func(n int) {
	topo := topology.MustBuild(topology.FatTreeConfig{
		Pods: 2, EdgePerPod: 2, AggPerPod: 2, CorePerAgg: 2, NodesPerEdge: 8,
	})
	prof := fabric.FatTree100GProfile()
	prof.Topo = nil // the row supplies its own small instance
	prof.SwitchJitter = false
	return packetStream(fabric.New(topo, prof, 5))
}

// flowPoster reposts one (src, dst) bulk flow on each delivery through a
// callback bound once at construction, with SendOpts.Recycle returning
// each Message to the fabric's free-list: the fluid Send/solve/complete
// cycle is then 0 allocs/flow in steady state.
type flowPoster struct {
	net       *fabric.Network
	src, dst  topology.NodeID
	bytes     int64
	delivered *int
	cb        func(sim.Time)
}

func newFlowPoster(net *fabric.Network, src, dst topology.NodeID, bytes int64, delivered *int) *flowPoster {
	p := &flowPoster{net: net, src: src, dst: dst, bytes: bytes, delivered: delivered}
	p.cb = p.onDelivered
	return p
}

func (p *flowPoster) onDelivered(sim.Time) {
	*p.delivered++
	p.post()
}

func (p *flowPoster) post() {
	p.net.Send(p.src, p.dst, p.bytes, fabric.SendOpts{Bulk: true, Recycle: true, OnDelivered: p.cb})
}

// flowEngineBytes is the transfer size of one FlowEngine flow.
const flowEngineBytes = 8 << 20

// flowEngine streams bulk cross-group flows through the fluid engine
// (fabric.FidelityFlow): 8 flows with 4 outstanding 8 MiB transfers each,
// reposted on delivery. A unit is one delivered flow, so MB/s compares
// the fluid path's cost per simulated byte with the packet rows'. One
// window drains before run is returned, so the Message free-list and the
// solver's scratch arrays start in steady state: 0 allocs/flow.
func flowEngine() func(n int) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fabric.FidelityFlow)
	delivered := 0
	for i := 0; i < 8; i++ {
		p := newFlowPoster(net, topology.NodeID(i), topology.NodeID(16+i), flowEngineBytes, &delivered)
		for w := 0; w < 4; w++ {
			p.post()
		}
	}
	run := runDelivered(net, &delivered)
	run(64)
	return run
}

// nopFlowHooks discards completion callbacks: the solver row measures
// re-solve cost, not completion plumbing.
type nopFlowHooks struct{}

func (nopFlowHooks) FlowDrained(sim.Time, any) {}

// solverIncremental measures the fair-share solver's per-churn-event
// cost against a standing population of 10k long-lived flows: a unit
// starts one short flow and advances past its completion, so the solver
// folds one arrival and one departure. The background flows are
// intra-group (64 Dragonfly groups), so the max–min component each event
// touches is ~1/64th of the flow set — the locality the incremental
// dirty-component re-solve exploits. forceFull pins full progressive
// filling (SetForceFull) for the speedup ratio.
func solverIncremental(forceFull bool) func(n int) {
	topo := topology.MustNew(topology.Config{
		Groups: 64, SwitchesPerGroup: 8, NodesPerSwitch: 4, GlobalPerPair: 1,
	})
	eng := flow.NewEngine(topo, flow.Caps{
		EdgeBits: 200e9, LocalBits: 200e9, GlobalBits: 200e9, MaxPaths: 4,
	})
	eng.Hooks = nopFlowHooks{}
	eng.SetForceFull(forceFull)
	rng := sim.NewRNG(11)
	const npg = 8 * 4 // nodes per group
	pair := func(g int) (topology.NodeID, topology.NodeID) {
		src := rng.Intn(npg)
		dst := rng.Intn(npg - 1)
		if dst >= src {
			dst++
		}
		return topology.NodeID(g*npg + src), topology.NodeID(g*npg + dst)
	}
	for i := 0; i < 10000; i++ {
		src, dst := pair(i % 64)
		// Effectively infinite: the background population never drains.
		eng.Start(src, dst, 1<<50, flow.FlowOpts{})
	}
	eng.Resolve()
	at, i := sim.Time(0), 0
	return func(n int) {
		for end := i + n; i < end; i++ {
			src, dst := pair(i % 64)
			// 64 KiB at the group's shared edge rate completes well inside
			// the 1 ms step, so every unit is exactly one start fold plus
			// one completion fold.
			eng.Start(src, dst, 64<<10, flow.FlowOpts{})
			at += sim.Millisecond
			eng.Advance(at)
		}
	}
}

// hybridRun measures the packet-level victim path while fluid bulk
// aggressor flows load the same hybrid-fidelity fabric: 4 victim flows
// stream 32 KiB eager messages packet by packet, 4 bulk pairs keep 2
// outstanding 1 MiB fluid transfers each. A unit is one delivered victim
// data packet — the packet engine plus the background-load bookkeeping
// the fluid flows impose on it.
func hybridRun() func(n int) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fabric.FidelityHybrid)
	delivered := 0
	net.Taps.OnPacketDelivered = func(p *fabric.Packet, _ sim.Time) { delivered++ }

	const victimBytes = 32 * 1024
	const bulkBytes = 1 << 20
	var postVictim func(src, dst topology.NodeID)
	postVictim = func(src, dst topology.NodeID) {
		net.Send(src, dst, victimBytes, fabric.SendOpts{
			NoRendezvous: true,
			OnDelivered:  func(sim.Time) { postVictim(src, dst) },
		})
	}
	var postBulk func(src, dst topology.NodeID)
	postBulk = func(src, dst topology.NodeID) {
		net.Send(src, dst, bulkBytes, fabric.SendOpts{
			Bulk:        true,
			OnDelivered: func(sim.Time) { postBulk(src, dst) },
		})
	}
	for i := 0; i < 4; i++ {
		for w := 0; w < 4; w++ {
			postVictim(topology.NodeID(i), topology.NodeID(16+i))
		}
		for w := 0; w < 2; w++ {
			postBulk(topology.NodeID(4+i), topology.NodeID(20+i))
		}
	}
	return runDelivered(net, &delivered)
}

// choosePath returns a row for one source-switch routing decision under
// the named policy on a warm network (minimal-path cache populated,
// fabric idle). The flow ID varies per unit so hash policies exercise
// every bucket. On this cached-minimal path every policy stays at 0
// allocs/decision, which keeps routing off the packet budget.
func choosePath(policy string) func() func(n int) {
	return func() func(n int) {
		topo := topology.MustNew(topology.Config{
			Groups: 4, SwitchesPerGroup: 4, NodesPerSwitch: 4, GlobalPerPair: 2,
		})
		prof := fabric.SlingshotProfile()
		prof.SwitchJitter = false
		builder, err := routing.ByName(policy)
		if err != nil {
			panic(err)
		}
		prof.Routing = builder
		net := fabric.New(topo, prof, 5)
		src, dst := topology.NodeID(0), topology.NodeID(topo.Nodes()-1)
		if len(net.ChoosePath(src, dst, 0, 0)) == 0 { // warm the cache
			panic("no path")
		}
		flowID := int64(0)
		return func(n int) {
			for end := flowID + int64(n); flowID < end; flowID++ {
				if p := net.ChoosePath(src, dst, flowID, 0); len(p) == 0 {
					panic("no path")
				}
			}
		}
	}
}

// topoBuild constructs one ~64-node instance of every backend (Dragonfly,
// fat-tree and HyperX) per unit: the per-grid-cell set-up work every
// experiment pays before the first packet moves.
func topoBuild() func(n int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			d := topology.MustBuild(topology.ScaledConfig(64))
			f := topology.MustBuild(topology.FatTreeFor(64))
			h := topology.MustBuild(topology.HyperXFor(64))
			if d.Nodes() < 64 || f.Nodes() < 64 || h.Nodes() < 64 {
				panic("backend under-built")
			}
		}
	}
}

// runCell runs one full congestion-grid cell per unit — the unit of work
// the Fig. 9-14 grids scale by (build network, measure the victim
// isolated, start the aggressor, measure congested), at reduced scale.
func runCell() func(n int) {
	sys := harness.Shandy(32)
	return func(n int) {
		for i := 0; i < n; i++ {
			r := harness.RunCell(harness.CellSpec{
				Sys: sys, TotalNodes: 32, VictimFrac: 0.5,
				Aggressor: harness.IncastAggressor, AggrPPN: 1,
				Seed: 7, MinIters: 2, MaxIters: 3,
			}, harness.BenchVictim(workloads.AllreduceBench(8)))
			if r.NA {
				panic("cell unexpectedly N.A.")
			}
		}
	}
}

// flowScaleBytes is the transfer size of one FlowScale1M flow.
const flowScaleBytes = 16 << 20

// scale1M caches the million-endpoint row across benchmark re-runs: the
// ~10 s build (65536 switches, 1M NICs) would otherwise repeat on every
// b.N ramp. Its flows stay in flight between calls, and steady-state
// flow cost does not depend on accumulated sim time.
var scale1M func(n int)

// flowScale1M drives bisection traffic across a 1,048,576-endpoint
// Dragonfly (1024 groups of 64 Aries-style 8x8 grid switches, 16 nodes
// each) at flow fidelity: 1024 concurrent 16 MiB transfers from group g
// to group g+512, reposted on delivery. A unit is one delivered flow, at
// the scale the incremental component solver exists for (a full
// re-solve touches 4M segments, the component around one bisection flow
// a few hundred).
func flowScale1M() func(n int) {
	if scale1M != nil {
		return scale1M
	}
	topo := topology.MustNew(topology.Config{
		Groups: 1024, SwitchesPerGroup: 64, NodesPerSwitch: 16, GlobalPerPair: 1,
		Shape: topology.Grid2D, GridRows: 8,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	net.SetFidelity(fabric.FidelityFlow)
	nodes := topo.Nodes()
	delivered := 0
	for i := 0; i < 1024; i++ {
		src := topology.NodeID(i * 1024)
		dst := topology.NodeID((i*1024 + nodes/2) % nodes)
		newFlowPoster(net, src, dst, flowScaleBytes, &delivered).post()
	}
	scale1M = runDelivered(net, &delivered)
	return scale1M
}

// allocRow is one alloc-gate row: after warm units, testing.AllocsPerRun
// over allocRuns batches of batch units must read want allocations per
// batch, within allocBand either way, so the table stays a true record of
// the hot path rather than a loose ceiling.
type allocRow struct {
	name        string
	setup       func() func(n int)
	warm, batch int
	want        float64
}

// allocRuns is the AllocsPerRun count of every row. allocBand is the
// fraction a nonzero count may move either way: it absorbs the odd
// allocation of the Go runtime itself and of map growth, which depends on
// each map's random hash seed (PacketHotPathFatTree read 2,493 and
// SolverIncremental 166 in about one run in ten, HybridRun 3,139 once in
// 300). A zero row must read exactly 0.
const (
	allocRuns = 5
	allocBand = 0.01
)

// hotPathAllocs is the gate table. FlowEngine and the ChoosePath rows are
// the alloc-free contract; the other counts are measured.
var hotPathAllocs = []allocRow{
	{"PacketHotPath", packetHotPath, 4096, 8192, 3072},
	{"PacketHotPathFatTree", packetHotPathFatTree, 4096, 8192, 2492},
	{"FlowEngine", flowEngine, 256, 256, 0},
	{"SolverIncremental/incremental", func() func(int) { return solverIncremental(false) }, 64, 128, 165},
	{"HybridRun", hybridRun, 4096, 8192, 3138},
	{"ChoosePath/minimal", choosePath("minimal"), 0, 1000, 0},
	{"ChoosePath/adaptive", choosePath("adaptive"), 0, 1000, 0},
	{"ChoosePath/ecmp", choosePath("ecmp"), 0, 1000, 0},
	{"ChoosePath/valiant", choosePath("valiant"), 0, 1000, 0},
	{"TopoBuild", topoBuild, 1, 16, 3568},
	{"RunCell", runCell, 1, 4, 16073},
}

// flowScale1MAllocs gates the million-endpoint row, which needs ~3 GiB
// and so runs only as a benchmark (BenchmarkFlowScale1M).
var flowScale1MAllocs = allocRow{"FlowScale1M", flowScale1M, 2048, 1024, 0}

// checkAllocs sets up and warms the row and fails tb unless a batch
// allocates what the row records. It returns the row's run.
func checkAllocs(tb testing.TB, r allocRow) func(n int) {
	run := r.setup()
	run(r.warm)
	got := testing.AllocsPerRun(allocRuns, func() { run(r.batch) })
	if math.Abs(got-r.want) > allocBand*r.want {
		tb.Fatalf("%s: %.0f allocs per %d-unit batch, want %.0f within %.0f%%",
			r.name, got, r.batch, r.want, 100*allocBand)
	}
	return run
}

// TestHotPathAllocs is the hot path's alloc gate: every row moves a fixed
// number of units, so its count does not depend on the machine.
func TestHotPathAllocs(t *testing.T) {
	for _, r := range hotPathAllocs {
		t.Run(r.name, func(t *testing.T) { checkAllocs(t, r) })
	}
}

// benchRow times run(b.N), reporting MB/s when a unit simulates bytes
// (0 = not a byte-moving row).
func benchRow(b *testing.B, run func(n int), bytes int64) {
	b.SetBytes(bytes)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

func BenchmarkPacketHotPath(b *testing.B) { benchRow(b, packetHotPath(), packetBytes) }

func BenchmarkPacketHotPathFatTree(b *testing.B) {
	benchRow(b, packetHotPathFatTree(), packetBytes)
}

func BenchmarkFlowEngine(b *testing.B) { benchRow(b, flowEngine(), flowEngineBytes) }

// BenchmarkSolverIncremental runs one flow-churn event against 10k
// standing flows with the incremental dirty-component re-solve and with
// full progressive filling forced; the ratio is the incremental solver's
// speedup.
func BenchmarkSolverIncremental(b *testing.B) {
	b.Run("incremental", func(b *testing.B) { benchRow(b, solverIncremental(false), 0) })
	b.Run("full", func(b *testing.B) { benchRow(b, solverIncremental(true), 0) })
}

// BenchmarkFlowScale1M is the million-endpoint row. It is too large for
// TestHotPathAllocs, so it checks its own fixed-batch alloc count first.
func BenchmarkFlowScale1M(b *testing.B) {
	benchRow(b, checkAllocs(b, flowScale1MAllocs), flowScaleBytes)
}

func BenchmarkHybridRun(b *testing.B) { benchRow(b, hybridRun(), packetBytes) }

func BenchmarkChoosePath(b *testing.B) {
	for _, policy := range []string{"minimal", "adaptive", "ecmp", "valiant"} {
		b.Run(policy, func(b *testing.B) { benchRow(b, choosePath(policy)(), 0) })
	}
}

func BenchmarkTopoBuild(b *testing.B) { benchRow(b, topoBuild(), 0) }

func BenchmarkRunCell(b *testing.B) { benchRow(b, runCell(), 0) }

// engineTicker drives BenchmarkEngineThroughput through the closure-free
// Handler interface — the same dispatch path the fabric uses.
type engineTicker struct{ n, max int }

func (t *engineTicker) OnEvent(e *sim.Engine, _ *sim.Event) {
	t.n++
	if t.n < t.max {
		e.After(sim.Nanosecond, t, 0, nil)
	}
}

// Raw engine throughput: events scheduled and dispatched per second.
func BenchmarkEngineThroughput(b *testing.B) {
	e := sim.NewEngine()
	t := &engineTicker{max: b.N}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(0, t, 0, nil)
	e.Run()
}

// Raw fabric throughput: packets moved end to end per second of wall time.
func BenchmarkFabricPacketRate(b *testing.B) {
	topo := topology.MustNew(topology.Config{
		Groups: 2, SwitchesPerGroup: 2, NodesPerSwitch: 8, GlobalPerPair: 2,
	})
	prof := fabric.SlingshotProfile()
	prof.SwitchJitter = false
	net := fabric.New(topo, prof, 5)
	b.ResetTimer()
	delivered := 0
	var post func(src, dst topology.NodeID)
	post = func(src, dst topology.NodeID) {
		net.Send(src, dst, 4096, fabric.SendOpts{OnDelivered: func(sim.Time) {
			delivered++
			if delivered < b.N {
				post(src, dst)
			}
		}})
	}
	for i := 0; i < 8 && i < b.N; i++ {
		post(topology.NodeID(i), topology.NodeID(16+i))
	}
	net.Eng.RunWhile(func() bool { return delivered < b.N })
}

// BenchmarkFig9GridParallel measures harness.RunGrid scaling across
// worker-pool widths on the fig9 quick-set grid. The grid's independent
// cells are embarrassingly parallel, so on a 4+ core machine jobs=NumCPU
// runs the same byte-identical grid >=2x faster than jobs=1 (compare the
// sub-benchmark wall times; on a single-core machine they coincide).
func BenchmarkFig9GridParallel(b *testing.B) {
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := harness.Fig9Heatmap(harness.Options{
					Nodes: 32, MinIters: 2, MaxIters: 3, Seed: 11, Jobs: jobs,
				}, harness.VictimsQuick)
				b.ReportMetric(r.Max()["Aries (Crystal)"], "aries-max-impact")
			}
		})
	}
}
