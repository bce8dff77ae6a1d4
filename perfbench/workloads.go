package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/congestion"
	"repro/internal/fabric"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/topology"
)

// workload is one registered experiment at a fixed scale, engine and
// fidelity. README.md records why each one is in the set.
type workload struct {
	name string
	exp  string
	opt  harness.Options
	// keyCols is the number of leading label columns of a grid table;
	// every later column holds one result point per row. fig6 is
	// checked by its own rule and leaves it 0.
	keyCols int
	// knownDefects maps a point key to the reason it is allowed to fail
	// the output checks. The failure still counts in pass_frac; it only
	// does not make the run incorrect.
	knownDefects map[string]string
}

// workloads is the benchmark set. Each uses at most two simulation
// goroutines: Jobs x max(Domains, 1) <= 2. The policy grids measure two
// victim iterations per cell, not the default four, so that a run fits
// several repetitions; the sharded engine's slowdown against the
// classic one is the same at either count. BENCHMARK.json gates only
// the workloads whose timings repeat across seeds; README.md says why
// policy-sharded-d2 and fig9-hybrid do not.
var workloads = []workload{
	{
		name:    "policy-classic",
		exp:     "policy-compare",
		opt:     harness.Options{MaxIters: 2, Jobs: 2},
		keyCols: 3,
	},
	{
		name:    "policy-sharded",
		exp:     "policy-compare",
		opt:     harness.Options{MaxIters: 2, Jobs: 2, Domains: 1},
		keyCols: 3,
	},
	{
		name:    "policy-sharded-d2",
		exp:     "policy-compare",
		opt:     harness.Options{MaxIters: 2, Jobs: 2, Domains: 2},
		keyCols: 3,
	},
	{
		name: "fig6-flow",
		exp:  "fig6",
		opt:  harness.Options{Nodes: 32, Fidelity: "flow", Jobs: 2},
		knownDefects: map[string]string{
			"bisection/8B":     aboveEnvelope,
			"bisection/32B":    aboveEnvelope,
			"bisection/128B":   aboveEnvelope,
			"bisection/512B":   aboveEnvelope,
			"bisection/2KiB":   aboveEnvelope,
			"bisection/32KiB":  aboveEnvelope,
			"bisection/128KiB": "flow mode folds fluid bytes only at completions, so the window reads 0",
		},
	},
	{
		name: "fig9-hybrid",
		exp:  "fig9",
		opt: harness.Options{
			Nodes: 16, Victims: harness.VictimsApps, MinIters: 1, MaxIters: 1,
			Fidelity: "hybrid", Jobs: 2,
		},
		keyCols: 3,
	},
}

const aboveEnvelope = "flow fidelity outside its calibrated envelope reports more than the theoretical peak"

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(names, "|"))
}

// options returns the experiment options for a seed. The reference run
// uses the same experiment, options and seed on the classic engine at
// packet fidelity.
func (w workload) options(seed uint64, reference bool) harness.Options {
	opt := w.opt
	opt.Seed = seed
	if reference {
		opt.Domains, opt.Fidelity = 0, "packet"
	}
	return opt
}

// isOwnReference reports whether the workload already runs the classic
// packet engine, so its reference error is 0 by definition.
func (w workload) isOwnReference() bool {
	return w.options(0, true) == w.options(0, false)
}

// cliArgs renders the workload as the equivalent slingshot-sim command.
func (w workload) cliArgs(seed uint64) string {
	o := w.opt
	args := []string{"run", w.exp}
	add := func(flag string, v any) { args = append(args, fmt.Sprintf("-%s %v", flag, v)) }
	if o.Nodes != 0 {
		add("nodes", o.Nodes)
	}
	if o.Victims == harness.VictimsApps {
		add("set", "apps")
	}
	if o.MinIters != 0 {
		add("min-iters", o.MinIters)
	}
	if o.MaxIters != 0 {
		add("iters", o.MaxIters)
	}
	if o.Fidelity != "" {
		add("fidelity", o.Fidelity)
	}
	if o.Domains != 0 {
		add("domains", o.Domains)
	}
	add("jobs", o.Jobs)
	add("seed", seed)
	return "slingshot-sim " + strings.Join(args, " ")
}

// systems lists every distinct system the workload's experiment builds,
// mirroring how the experiment assembles them from public constructors.
func (w workload) systems() ([]harness.System, error) {
	nodes := w.opt.Nodes
	if nodes == 0 {
		nodes = harness.Lookup(w.exp).DefaultOptions.Nodes
	}
	var out []harness.System
	switch w.exp {
	case "fig6":
		out = []harness.System{harness.Shandy(nodes)}
	case "fig9":
		out = []harness.System{harness.Crystal(nodes * 3 / 2), harness.Shandy(nodes * 2)}
	case "policy-compare":
		for _, topo := range harness.TopoNames {
			for _, r := range harness.RoutingNames {
				for _, cc := range harness.PolicyCCNames {
					sys := topoSystem(topo, nodes*2)
					rb, err := routing.ByName(r)
					if err != nil {
						return nil, err
					}
					cb, err := congestion.ByName(cc)
					if err != nil {
						return nil, err
					}
					sys.Prof.Routing, sys.Prof.CCBuilder = rb, cb
					out = append(out, sys)
				}
			}
		}
	default:
		return nil, fmt.Errorf("no system list for experiment %q", w.exp)
	}
	fid, err := fabric.ParseFidelity(w.opt.Fidelity)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i].Domains, out[i].Fidelity = w.opt.Domains, fid
	}
	return out, nil
}

// topoSystem is the machine policy-compare measures for one topology
// backend before its routing and congestion-control layers are set.
func topoSystem(name string, machineNodes int) harness.System {
	switch name {
	case "fattree":
		return harness.System{Builder: topology.FatTreeFor(machineNodes), Prof: fabric.FatTree100GProfile()}
	case "hyperx":
		return harness.System{Builder: topology.HyperXFor(machineNodes), Prof: fabric.SlingshotProfile()}
	}
	return harness.Shandy(machineNodes)
}

// buildSystem builds one system the way the harness does and returns the
// time spent building its topology and its network.
func buildSystem(s harness.System, seed uint64) (topo, network time.Duration) {
	b := s.Builder
	if b == nil && s.Topo != (topology.Config{}) {
		b = s.Topo
	}
	if b == nil {
		b = s.Prof.Topo
	}
	t0 := time.Now()
	t := topology.MustBuild(b)
	t1 := time.Now()
	n := fabric.NewSharded(t, s.Prof, seed, s.Domains)
	if s.Fidelity != fabric.FidelityPacket {
		n.SetFidelity(s.Fidelity)
	}
	return t1.Sub(t0), time.Since(t1)
}
