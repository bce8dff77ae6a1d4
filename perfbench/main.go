// Command perfbench is the simulator's end-to-end benchmark. It runs
// registered experiments through their public entry point — the
// harness registry's Run plus JSON encoding, as slingshot-sim run does —
// one experiment at a time, each in a fresh child process, and checks
// every output. It prints a report and, as its last line, one JSON
// object with the metrics.
//
//	bash perfbench/run.sh --workload fig6-flow --seed 1 --seconds 5 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5 --trace 1
//
// With --trace 0 the metrics are end-to-end ones; with --trace 1 the
// runs alternate between untraced and traced (CPU profile plus
// runtime/metrics), and the metrics split the traced runs' host time by
// layer. README.md describes the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minReps is the fewest untraced runs a set medians over.
	minReps = 2
	// The distinct systems are built at least setupPasses times and for
	// at least setupTime; the median pass is reported.
	setupPasses = 51
	setupTime   = 500 * time.Millisecond
	// childTimeout bounds one experiment run.
	childTimeout = 150 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		if err := childMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 0, "experiment seed")
	reference := fs.Bool("reference", false, "run the classic-packet reference")
	trace := fs.Bool("trace", false, "record a CPU profile and runtime metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	return runChild(w, *seed, *reference, *trace)
}

func benchMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "experiment seed, passed to Options.Seed")
	seconds := fs.Int("seconds", 30, "how long to keep starting measured runs")
	trace := fs.Int("trace", 0, "1 measures the per-layer split from traced runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	set := workloads
	if *name != "all" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return err
		}
		set = []workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// A signal kills the running child; the benchmark then ends without
	// a result line.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	st := newStamp(".")              // run.sh starts the benchmark from the tree's root
	stampLine, _ := json.Marshal(st) // strings and ints: cannot fail
	fmt.Fprintf(out, "stamp %s\n", stampLine)

	total := summary{Correct: true, Metrics: map[string]metric{}}
	var last summary
	for _, w := range set {
		b := bench{ctx: ctx, w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, exe: exe, out: out}
		last = b.run()
		if err := ctx.Err(); err != nil {
			return err
		}
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		if len(set) > 1 {
			fmt.Fprintf(out, "%s %s\n", w.name, line)
		}
		total.Correct = total.Correct && last.Correct
		total.Attempted += last.Attempted
		total.Failed += last.Failed
		for k, v := range last.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	if len(set) > 1 {
		last = total
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

// summary is the benchmark's result line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is one workload's set of runs.
type bench struct {
	ctx     context.Context
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	exe     string
	out     io.Writer
}

// run is one outcome of a child run.
type run struct {
	rep    childReport
	a      analysis
	traced bool
	err    error
}

func (b *bench) run() summary {
	out := b.out
	w := b.w
	fmt.Fprintf(out, "workload %s: %s (closed loop, one experiment at a time)\n", w.name, w.cliArgs(b.seed))

	var notes []string // why the set is not correct
	setup, err := measureSetup(w, b.seed)
	if err != nil {
		notes = append(notes, "setup: "+err.Error())
	}

	var ref *run
	if !b.trace && !w.isOwnReference() {
		r := b.child(true, false)
		if r.err != nil {
			notes = append(notes, "classic-packet reference: "+r.err.Error())
		} else {
			ref = &r
			fmt.Fprintf(out, "reference run: wall %.3f s digest %s\n", r.rep.WallS, r.a.digest)
		}
	}

	// Runs start while the next one is expected to end within the
	// measuring time, so a set's length does not overshoot by a run.
	var runs []run
	var took []float64 // seconds from each child's start to its end
	start := time.Now()
	for i := 0; ; i++ {
		next := time.Duration(median(took) * float64(time.Second))
		if b.ctx.Err() != nil || b.enough(runs) && time.Since(start)+next > b.seconds {
			break
		}
		t0 := time.Now()
		r := b.child(false, b.trace && i%2 == 1)
		took = append(took, time.Since(t0).Seconds())
		runs = append(runs, r)
		kind := "run"
		if r.traced {
			kind = "traced run"
		}
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "%s %d: %v\n", kind, i+1, r.err)
			continue
		}
		fmt.Fprintf(os.Stderr, "%s %d: wall %.3f s cpu %.3f s rss %.1f MB digest %s\n",
			kind, i+1, r.rep.WallS, r.rep.CPUS, r.rep.PeakRSSMB, r.a.digest)
	}

	var refA *analysis
	if ref != nil {
		refA = &ref.a
	}
	t := tallyRuns(w, runs, refA)
	notes = append(notes, t.notes...)
	for _, f := range t.fails {
		tag := "UNEXPECTED"
		if why, ok := w.knownDefects[f.key]; ok {
			tag = "known defect: " + why
		}
		fmt.Fprintf(out, "point %s fails: %s [%s]\n", f.key, f.reason, tag)
	}
	s := summary{Attempted: len(runs), Failed: t.failedRuns, Metrics: map[string]metric{}}
	fmt.Fprintf(out, "digest %s over %d runs\n", t.digest, len(runs))

	// Every end-to-end metric by the name README.md gives it. failed_frac
	// and ref_err_* are 0 on some workloads, so the result line carries
	// them as pass_frac and ref_factor_*, which never are.
	plain, traced := split(t.good)
	walls := pick(plain, func(r run) float64 { return r.rep.WallS })
	cpus := pick(plain, func(r run) float64 { return r.rep.CPUS })
	rss := pick(plain, func(r run) float64 { return r.rep.PeakRSSMB })
	refMed, refMax := median(t.refErrs), maxOf(t.refErrs)
	b.print("wall_s", "s", walls)
	b.print("cpu_s", "s", cpus)
	b.print("peak_rss_mb", "MB", rss)
	b.print("setup_s", "s", setup.total)
	b.print("failed_frac", "frac", []float64{t.failedFrac})
	if b.trace {
		s.Metrics = b.layers(plain, traced, setup)
	} else {
		b.print("ref_err_med", "frac", []float64{refMed})
		b.print("ref_err_max", "frac", []float64{refMax})
		if ref != nil && ref.rep.WallS > 0 {
			fmt.Fprintf(out, "wall_s is %.2fx the classic-packet reference's %.3f s (one run)\n",
				median(walls)/ref.rep.WallS, ref.rep.WallS)
		}
		add := func(name, unit string, v float64) { s.Metrics[name] = metric{v, unit} }
		add("wall_s", "s", median(walls))
		add("cpu_s", "s", median(cpus))
		add("peak_rss_mb", "MB", median(rss))
		add("setup_s", "s", median(setup.total))
		add("pass_frac", "frac", 1-t.failedFrac)
		add("ref_factor_med", "x", 1+refMed)
		add("ref_factor_max", "x", 1+refMax)
	}
	for _, n := range notes {
		fmt.Fprintf(out, "NOT CORRECT: %s\n", n)
	}
	s.Correct = len(notes) == 0
	return s
}

// tally is the outcome of a set of runs of one code and seed.
type tally struct {
	good       []run // runs that passed every check
	failedRuns int
	notes      []string // why the set is not correct
	digest     string
	fails      []failure // point failures of the last checked run
	refErrs    []float64
	// failedFrac is the share of result points that failed the output
	// checks; a run that failed outright counts all its points.
	failedFrac float64
}

// tallyRuns applies the checks across a set of runs: every run must
// succeed, agree with the first on its digest and fail no check beyond
// the workload's known defects. ref, when set, is the classic-packet
// reference the relative errors are taken against.
func tallyRuns(w workload, runs []run, ref *analysis) tally {
	var t tally
	npoints := 1
	if ref != nil {
		npoints = len(ref.points)
	}
	for _, r := range runs {
		if r.err == nil {
			npoints = len(r.a.points)
			break
		}
	}
	failedPoints := 0
	for _, r := range runs {
		if r.err != nil {
			failedPoints += npoints
			t.failedRuns++
			t.notes = append(t.notes, r.err.Error())
			continue
		}
		fails := r.a.failures
		if ref != nil {
			errs, naFails, err := compareReference(r.a.points, ref.points)
			if err != nil {
				failedPoints += npoints
				t.failedRuns++
				t.notes = append(t.notes, "against the reference: "+err.Error())
				continue
			}
			t.refErrs = errs
			fails = append(append([]failure(nil), fails...), naFails...)
		}
		failedPoints += len(fails)
		t.fails = fails
		if t.digest == "" {
			t.digest = r.a.digest
		}
		switch u := w.unexpected(fails); {
		case r.a.digest != t.digest:
			t.failedRuns++
			t.notes = append(t.notes, fmt.Sprintf("determinism: digest %s differs from %s for the same code and seed", r.a.digest, t.digest))
		case len(u) > 0:
			t.failedRuns++
			t.notes = append(t.notes, fmt.Sprintf("%d points fail the output checks, first %s: %s", len(u), u[0].key, u[0].reason))
		default:
			t.good = append(t.good, r)
		}
	}
	if len(t.good) == 0 {
		t.notes = append(t.notes, "no run passed its checks")
	}
	if len(runs) > 0 {
		t.failedFrac = float64(failedPoints) / float64(npoints*len(runs))
	}
	return t
}

// enough reports whether the set has the runs it needs to stop: minReps
// untraced runs, or with tracing at least one untraced and one traced.
func (b *bench) enough(runs []run) bool {
	if !b.trace {
		return len(runs) >= minReps
	}
	return len(runs) >= 2
}

func split(runs []run) (plain, traced []run) {
	for _, r := range runs {
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return plain, traced
}

func pick(runs []run, f func(run) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

// print writes one metric line: the median of the values with their
// quartiles and count.
func (b *bench) print(name, unit string, xs []float64) {
	q := quartiles(xs)
	fmt.Fprintf(b.out, "%-22s %12.6g %-5s (median of %d, quartiles %.6g .. %.6g)\n", name, q[1], unit, len(xs), q[0], q[2])
}

// layers returns the per-layer metrics: the medians over traced runs.
func (b *bench) layers(plain, traced []run, setup setupTimes) map[string]metric {
	m := map[string]metric{}
	names := append([]string(nil), runtimeLayers...)
	for k := range attribute(nil) {
		names = append(names, k)
	}
	for _, k := range names {
		m[k] = metric{median(pick(traced, func(r run) float64 { return r.rep.Layers[k] })), layerUnit(k)}
	}
	m["setup.topology_s"] = metric{median(setup.topo), "s"}
	m["setup.network_s"] = metric{median(setup.network), "s"}
	m["run_s"] = metric{median(pick(traced, func(r run) float64 { return r.rep.RunS })), "s"}
	m["encode_s"] = metric{median(pick(traced, func(r run) float64 { return r.rep.EncodeS })), "s"}
	overhead := 0.0
	if base := median(pick(plain, func(r run) float64 { return r.rep.WallS })); base > 0 {
		overhead = median(pick(traced, func(r run) float64 { return r.rep.WallS }))/base - 1
	}
	m["trace_overhead_frac"] = metric{overhead, "frac"}
	names = names[:0]
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.out, "%-22s %12.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return m
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_frac"):
		return "frac"
	}
	return "count"
}

// child runs the experiment once in a fresh process and analyses its
// result. A crash, a run error or a result that fails to decode is an
// error; output-check failures are left in the analysis.
func (b *bench) child(reference, traced bool) run {
	r := run{traced: traced}
	ctx, cancel := context.WithTimeout(b.ctx, childTimeout)
	defer cancel()
	args := []string{"child", "-workload", b.w.name, "-seed", strconv.FormatUint(b.seed, 10)}
	if reference {
		args = append(args, "-reference")
	}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.CommandContext(ctx, b.exe, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		r.err = fmt.Errorf("child %v: %v: %s", args, err, lastLine(stderr.String()))
		return r
	}
	head, raw, ok := bytes.Cut(stdout.Bytes(), []byte("\n"))
	if !ok {
		r.err = errors.New("child wrote no result")
		return r
	}
	if err := json.Unmarshal(head, &r.rep); err != nil {
		r.err = fmt.Errorf("child report: %w", err)
		return r
	}
	if r.rep.Error != "" {
		r.err = errors.New(r.rep.Error)
		return r
	}
	r.a, r.err = analyse(b.w, raw)
	return r
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

// setupTimes are the per-pass times to build every distinct system the
// workload builds, split into topology and network construction.
type setupTimes struct {
	total, topo, network []float64
}

// measureSetup builds every distinct system once to warm up, then
// measures passes until it has setupPasses of them over at least
// setupTime. Each pass starts from a collected heap and runs
// with the collector off, so a pass times construction alone.
func measureSetup(w workload, seed uint64) (st setupTimes, err error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	systems, err := w.systems()
	if err != nil {
		return st, err
	}
	start := time.Now()
	for pass := -1; pass < setupPasses || time.Since(start) < setupTime; pass++ {
		runtime.GC()
		var topo, network time.Duration
		for _, s := range systems {
			t, n := buildSystem(s, seed)
			topo += t
			network += n
		}
		if pass >= 0 {
			st.total = append(st.total, (topo + network).Seconds())
			st.topo = append(st.topo, topo.Seconds())
			st.network = append(st.network, network.Seconds())
		}
	}
	return st, nil
}
