package harness

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/results"
)

// Experiment is one named, registered paper experiment. Run executes it
// at the given scale and returns the uniform structured result; the
// registry wrapper stamps metadata (name, description, wall time) so Run
// implementations only fill the payload and the effective scale.
type Experiment struct {
	// Name is the registry key, e.g. "fig6".
	Name string
	// Desc is a one-line description shown by `slingshot-sim list`.
	Desc string
	// DefaultOptions are the experiment's default scale knobs; zero
	// fields of the options passed to Run are filled from here before
	// the experiment sees them.
	DefaultOptions Options
	// MinNodes is the smallest node count the experiment runs at. Every
	// experiment declares one (at least 1); Run rejects a smaller
	// effective count before any simulation starts.
	MinNodes int
	// Prepare, when set, adjusts the raw options before defaults are
	// merged — it is the only hook that can still distinguish "field
	// not specified" (zero) from an explicit value.
	Prepare func(Options) Options
	// Run executes the experiment.
	Run func(Options) (*results.Result, error)
}

var registry = map[string]*Experiment{} //simlint:shared -- written only by init-time Register (panics on duplicates); read-only once main starts

// Register adds an experiment to the registry. It panics on a duplicate
// or empty name, a missing Run or an undeclared MinNodes — registration
// happens in init functions, so all are programming errors. The
// registered Run is wrapped by guardRun.
func Register(e Experiment) {
	if e.Name == "" {
		panic("harness: Register with empty experiment name")
	}
	if _, dup := registry[e.Name]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment %q", e.Name))
	}
	if e.Run == nil {
		panic(fmt.Sprintf("harness: experiment %q has no Run", e.Name))
	}
	if e.MinNodes < 1 {
		panic(fmt.Sprintf("harness: experiment %q declares no MinNodes", e.Name))
	}
	e.Run = guardRun(e)
	registry[e.Name] = &e
}

// guardRun wraps e.Run to reject options outside every experiment's
// domain (Options.validate) and node counts below e.MinNodes, to turn a
// panic into an error, to prefix errors with the experiment name, and to
// stamp result metadata and wall time.
func guardRun(e Experiment) func(Options) (*results.Result, error) {
	run, name, desc := e.Run, e.Name, e.Desc
	prepare, defaults, minNodes := e.Prepare, e.DefaultOptions, e.MinNodes
	return func(opt Options) (res *results.Result, err error) {
		if err := opt.validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		// A panic inside the experiment (a worker's included, re-raised
		// by parallelFor) becomes this run's error, so one bad run
		// does not take the process and its other results down with it.
		defer func() {
			if v := recover(); v != nil {
				res, err = nil, fmt.Errorf("%s: %v", name, v)
			}
		}()
		if prepare != nil {
			opt = prepare(opt)
		}
		opt = opt.withDefaults(defaults)
		if opt.Nodes < minNodes {
			return nil, fmt.Errorf("%s: %d nodes is below the minimum of %d", name, opt.Nodes, minNodes)
		}
		start := wallClock.Now()
		res, err = run(opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Meta.Experiment = name
		if res.Meta.Desc == "" {
			res.Meta.Desc = desc
		}
		res.Meta.Seed = opt.Seed
		res.Meta.Nodes = opt.Nodes
		res.Meta.PPN = opt.PPN
		res.Meta.Wall = wallClock.Now().Sub(start)
		return res, nil
	}
}

// Lookup returns the named experiment, or nil when unknown.
func Lookup(name string) *Experiment {
	return registry[name]
}

// All returns every registered experiment in natural name order
// (fig2 before fig10).
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		pi, ni := splitNum(out[i].Name)
		pj, nj := splitNum(out[j].Name)
		if pi != pj {
			return pi < pj
		}
		if ni != nj {
			return ni < nj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// splitNum splits a trailing integer off a name for natural ordering.
func splitNum(name string) (string, int) {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	if i == len(name) {
		return name, -1
	}
	n, _ := strconv.Atoi(name[i:])
	return name[:i], n
}
