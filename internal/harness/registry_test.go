package harness

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/results"
	"repro/internal/workloads"
)

// paperExperiments is every figure of the paper's evaluation in
// presentation order, followed by the repo's own cross-backend sweep.
var paperExperiments = []string{
	"fig2", "fig4", "fig5", "fig6", "fig8",
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"policy-compare", "topo-compare",
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	var names []string
	for _, e := range all {
		names = append(names, e.Name)
	}
	if !reflect.DeepEqual(names, paperExperiments) {
		t.Errorf("All() = %v, want %v", names, paperExperiments)
	}
	for _, e := range all {
		if e.Desc == "" {
			t.Errorf("%s has no description", e.Name)
		}
		if e.DefaultOptions.Nodes == 0 {
			t.Errorf("%s has no default node count", e.Name)
		}
	}
	if Lookup("fig6") == nil {
		t.Error("Lookup(fig6) = nil")
	}
	if Lookup("nope") != nil {
		t.Error("Lookup(nope) should be nil")
	}
}

// tinyOptions returns per-experiment scales small enough that the whole
// registry round-trips in seconds.
func tinyOptions() map[string]Options {
	return map[string]Options{
		"fig2":           {Nodes: 16, MaxIters: 50, Seed: 7},
		"fig4":           {Nodes: 16, MaxIters: 3, Seed: 7},
		"fig5":           {Nodes: 16, MaxIters: 2, Seed: 7},
		"fig6":           {Nodes: 32, Seed: 7},
		"fig8":           {Nodes: 32, MaxIters: 5, Seed: 7},
		"fig9":           {Nodes: 24, MinIters: 1, MaxIters: 2, Victims: VictimsApps, Seed: 7},
		"fig10":          {Nodes: 16, MinIters: 1, MaxIters: 2, Victims: VictimsApps, Seed: 7},
		"fig11":          {Nodes: 24, MinIters: 1, MaxIters: 2, Seed: 7},
		"fig12":          {Nodes: 16, MinIters: 1, MaxIters: 2, Seed: 7},
		"fig13":          {Nodes: 16, Seed: 7},
		"fig14":          {Nodes: 16, Seed: 7},
		"topo-compare":   {Nodes: 16, MinIters: 1, MaxIters: 2, Seed: 7},
		"policy-compare": {Nodes: 16, MinIters: 1, MaxIters: 1, Seed: 7},
	}
}

// TestRegistryRoundTrip runs every registered experiment at tiny scale
// and asserts it returns a well-formed structured result that all three
// encoders accept.
func TestRegistryRoundTrip(t *testing.T) {
	tiny := tinyOptions()
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			opt, ok := tiny[e.Name]
			if !ok {
				t.Fatalf("no tiny options for %s — add it to tinyOptions", e.Name)
			}
			res, err := e.Run(opt)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Meta.Experiment != e.Name {
				t.Errorf("meta experiment = %q, want %q", res.Meta.Experiment, e.Name)
			}
			if res.Meta.Seed != 7 {
				t.Errorf("meta seed = %d, want 7", res.Meta.Seed)
			}
			if res.Meta.Nodes == 0 {
				t.Error("meta nodes not stamped")
			}
			if res.Meta.Wall <= 0 {
				t.Error("meta wall time not stamped")
			}
			if err := res.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
			for _, format := range results.Formats() {
				enc, err := results.NewEncoder(format)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := enc.Encode(&buf, res); err != nil {
					t.Errorf("%s encode: %v", format, err)
				}
				if buf.Len() == 0 {
					t.Errorf("%s encode produced no output", format)
				}
			}
		})
	}
}

// TestRunGridJobsDeterminism asserts the acceptance criterion that a
// worker pool of any width produces byte-identical results: the same
// grid at -jobs 1 and -jobs 8 must match exactly, both as raw cells and
// as encoded JSON.
func TestRunGridJobsDeterminism(t *testing.T) {
	points := gridPointsFixture()
	serial := RunGrid(points, 1)
	parallel := RunGrid(points, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !cellsEqual(serial[i], parallel[i]) {
			t.Fatalf("cell %d differs between jobs=1 and jobs=8:\n%+v\nvs\n%+v",
				i, serial[i], parallel[i])
		}
	}

	run := func(jobs int) []byte {
		res, err := Lookup("fig9").Run(Options{
			Nodes: 24, MinIters: 1, MaxIters: 2,
			Victims: VictimsApps, Seed: 7, Jobs: jobs,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Meta.Wall = 0 // host timing is the only nondeterministic field
		enc, _ := results.NewEncoder("json")
		var buf bytes.Buffer
		if err := enc.Encode(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := run(1), run(8); !bytes.Equal(a, b) {
		t.Error("fig9 JSON differs between -jobs 1 and -jobs 8")
	}
}

// cellsEqual is exact equality with NaN impacts (N.A. cells) treated as
// equal — reflect.DeepEqual would reject NaN == NaN.
func cellsEqual(a, b CellResult) bool {
	impactsMatch := a.Impact == b.Impact || (math.IsNaN(a.Impact) && math.IsNaN(b.Impact))
	return a.Victim == b.Victim && a.Aggressor == b.Aggressor &&
		a.Frac == b.Frac && a.NA == b.NA && impactsMatch &&
		a.Isolated == b.Isolated && a.Congested == b.Congested
}

func gridPointsFixture() []GridPoint {
	var points []GridPoint
	seed := uint64(20)
	for _, vf := range []float64{0.9, 0.5} {
		for _, v := range []Victim{
			BenchVictim(workloads.BarrierBench()),
			BenchVictim(workloads.AllreduceBench(8)),
			AppVictim(workloads.MILC()),
		} {
			seed++
			points = append(points, GridPoint{
				Spec: CellSpec{
					Sys: Shandy(32), TotalNodes: 24, VictimFrac: vf,
					Aggressor: IncastAggressor, AggrPPN: 1, Seed: seed,
					MinIters: 2, MaxIters: 3,
				},
				Victim: v,
			})
		}
	}
	return points
}

func TestWithDefaultsClampsMinIters(t *testing.T) {
	// -iters below an experiment's default MinIters must clamp the
	// minimum rather than disabling the convergence break.
	o := Options{MaxIters: 5}.withDefaults(fig2Defaults)
	if o.MinIters != 5 {
		t.Errorf("MinIters = %d, want clamped to 5", o.MinIters)
	}
	if o.MaxIters != 5 {
		t.Errorf("MaxIters = %d, want 5", o.MaxIters)
	}
	o = Options{MinIters: 3, MaxIters: 10}.withDefaults(fig2Defaults)
	if o.MinIters != 3 || o.MaxIters != 10 {
		t.Errorf("explicit range mangled: %+v", o)
	}
	if o.Jobs <= 0 {
		t.Errorf("Jobs = %d, want defaulted positive", o.Jobs)
	}
	if o.Panel != "A" {
		t.Errorf("Panel = %q, want A", o.Panel)
	}
}

func TestFig10PanelCKeepsExplicitNodes(t *testing.T) {
	// Panel C shrinks the machine only when -nodes was not given: an
	// explicit node count must win over the panel default.
	e := Lookup("fig10")
	opt := e.Prepare(Options{Panel: "C"})
	if opt.Nodes != 24 {
		t.Errorf("panel C default nodes = %d, want 24", opt.Nodes)
	}
	opt = e.Prepare(Options{Panel: "C", Nodes: 48})
	if opt.Nodes != 48 {
		t.Errorf("panel C with explicit -nodes 48 coerced to %d", opt.Nodes)
	}
	if opt := e.Prepare(Options{Panel: "B", PPN: 1}); opt.PPN != 4 {
		t.Errorf("panel B default PPN = %d, want 4", opt.PPN)
	}
	if opt := e.Prepare(Options{Panel: "B", PPN: 8}); opt.PPN != 8 {
		t.Errorf("panel B explicit PPN coerced to %d", opt.PPN)
	}
}

// TestRegisterRejectsBadOptions: option values outside every
// experiment's domain come back as errors naming the experiment, before
// any simulation runs.
func TestRegisterRejectsBadOptions(t *testing.T) {
	cases := []struct {
		opt  Options
		want string
	}{
		{Options{Nodes: -5}, "negative node count"},
		{Options{PPN: -3}, "negative processes per node"},
		{Options{MinIters: -5}, "negative min iterations -5"},
		{Options{MaxIters: -1}, "negative max iterations -1"},
		{Options{Jobs: -3}, "negative jobs -3"},
		{Options{Domains: 2}, "domains 2"},
		{Options{Domains: -1}, "domains -1"},
		{Options{Fidelity: "quantum"}, "unknown fidelity"},
		{Options{Topo: "bogus"}, `unknown topology "bogus"`},
		{Options{Routing: "nope"}, `unknown policy "nope"`},
		{Options{CC: "nope"}, `unknown algorithm "nope"`},
		{Options{Panel: "D"}, `unknown panel "D"`},
	}
	for _, c := range cases {
		_, err := Lookup("fig2").Run(c.opt)
		if err == nil {
			t.Errorf("%+v: no error", c.opt)
			continue
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "fig2: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%+v: error %q, want fig2-prefixed and containing %q", c.opt, msg, c.want)
		}
	}
}

// TestTrafficClassFiguresRejectNonPacketFidelity: fig13 and fig14 build
// their networks on the packet engine, the only one with traffic
// classes, so a flow or hybrid request is an error, not a packet run
// under another name.
func TestTrafficClassFiguresRejectNonPacketFidelity(t *testing.T) {
	for _, name := range []string{"fig13", "fig14"} {
		for _, fid := range []string{"flow", "hybrid"} {
			_, err := Lookup(name).Run(Options{Nodes: 8, Fidelity: fid})
			want := fmt.Sprintf("%s: fidelity %q is not supported (traffic classes are modelled only at packet fidelity)", name, fid)
			if err == nil || err.Error() != want {
				t.Errorf("%s -fidelity %s: error %v, want %q", name, fid, err, want)
			}
		}
	}
}

// TestRunPanicBecomesError: a run whose grid point panics returns an
// error naming the experiment and the grid point instead of aborting the
// process from a worker.
func TestRunPanicBecomesError(t *testing.T) {
	run := guardRun(Experiment{
		Name:           "boom",
		DefaultOptions: Options{Nodes: 4},
		MinNodes:       1,
		Run: func(opt Options) (*results.Result, error) {
			parallelFor(4, opt.Jobs, func(i int) {
				if i == 2 {
					panic("mpi: job with no nodes")
				}
			})
			return &results.Result{}, nil
		},
	})
	for _, jobs := range []int{1, 2} {
		_, err := run(Options{Jobs: jobs})
		if want := "boom: grid point 2: mpi: job with no nodes"; err == nil || err.Error() != want {
			t.Errorf("jobs=%d: error %v, want %q", jobs, err, want)
		}
	}
}

// TestRegistryMinNodes: every experiment declares its smallest node
// count, runs at it, and rejects one node fewer up front with an error
// naming the minimum.
func TestRegistryMinNodes(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			if e.MinNodes < 1 {
				t.Fatalf("MinNodes = %d, want at least 1", e.MinNodes)
			}
			opt := Options{Nodes: e.MinNodes, MinIters: 1, MaxIters: 1, Jobs: 2, Seed: 7}
			if _, err := e.Run(opt); err != nil {
				t.Errorf("at MinNodes %d: %v", e.MinNodes, err)
			}
			if e.MinNodes == 1 {
				return // zero nodes means the default scale
			}
			opt.Nodes = e.MinNodes - 1
			want := fmt.Sprintf("%s: %d nodes is below the minimum of %d", e.Name, opt.Nodes, e.MinNodes)
			if _, err := e.Run(opt); err == nil || err.Error() != want {
				t.Errorf("at %d nodes: error %v, want %q", opt.Nodes, err, want)
			}
		})
	}
}

// TestParallelForWorkersReraisesLowestPanic: every worker count
// re-raises the lowest panicking item on the calling goroutine.
func TestParallelForWorkersReraisesLowestPanic(t *testing.T) {
	for _, jobs := range []int{1, 2, 8} {
		got := func() (p any) {
			defer func() { p = recover() }()
			parallelFor(20, jobs, func(i int) {
				if i == 5 || i == 13 {
					panic(fmt.Sprintf("item %d", i))
				}
			})
			return nil
		}()
		ip, ok := got.(itemPanic)
		if !ok {
			t.Fatalf("jobs=%d: recovered %#v, want an itemPanic", jobs, got)
		}
		if want := "grid point 5: item 5"; ip.Error() != want {
			t.Errorf("jobs=%d: %q, want %q", jobs, ip.Error(), want)
		}
	}
}
