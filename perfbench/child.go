package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/harness"
)

// childReport is what one experiment run in a child process measures.
// The child writes it as one JSON line, followed by the encoded result.
type childReport struct {
	WallS     float64            `json:"wall_s"`
	RunS      float64            `json:"run_s"`
	EncodeS   float64            `json:"encode_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Error     string             `json:"error,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// runtimeMetrics are the runtime/metrics a traced run reads before and
// after the measured interval.
var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

// runtimeLayers are the per-layer metrics derived from runtimeMetrics.
var runtimeLayers = []string{"runtime.gc_cpu_s", "runtime.idle_frac", "runtime.alloc_mb", "runtime.allocs"}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, m := range s {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = m.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(m.Value.Uint64())
		}
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set: VmHWM, the
// high-water mark of the address space exec created. ru_maxrss is no
// substitute, because Linux carries the spawning process's peak into it
// across exec.
func peakRSSMB() (float64, error) {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(firstField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("reading VmHWM from /proc/self/status: %w", err)
	}
	return kb * 1024 / 1e6, nil
}

// runChild runs the workload's experiment once through its public entry
// point and JSON encoding, as slingshot-sim run does, and writes the
// report and the encoded result to stdout. With trace it also records a
// CPU profile and runtime metrics over the same interval.
func runChild(w workload, seed uint64, reference, trace bool) error {
	exp := harness.Lookup(w.exp)
	if exp == nil {
		return fmt.Errorf("experiment %q is not registered", w.exp)
	}
	opt := w.options(seed, reference)
	var prof bytes.Buffer
	var before []float64
	if trace {
		runtime.GC()
		before = readRuntime()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
	}
	cpu0, t0 := cpuTime(), time.Now()
	raw, ranAt, runErr := runExperiment(exp, opt)
	t2 := time.Now()
	cpu1 := cpuTime()
	if ranAt.IsZero() {
		ranAt = t2
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep := childReport{
		WallS:     t2.Sub(t0).Seconds(),
		RunS:      ranAt.Sub(t0).Seconds(),
		EncodeS:   t2.Sub(ranAt).Seconds(),
		CPUS:      (cpu1 - cpu0).Seconds(),
		PeakRSSMB: rss,
	}
	if runErr != nil {
		rep.Error = runErr.Error()
	}
	if trace {
		pprof.StopCPUProfile()
		runtime.GC() // the runtime's CPU classes advance at GC boundaries
		after := readRuntime()
		samples, err := parseCPUProfile(prof.Bytes())
		if err != nil {
			return err
		}
		rep.Layers = attribute(samples)
		d := func(i int) float64 { return after[i] - before[i] }
		idle := 0.0
		if total := d(2); total > 0 {
			idle = d(1) / total
		}
		for i, v := range []float64{d(0), idle, d(3) / 1e6, d(4)} {
			rep.Layers[runtimeLayers[i]] = v
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	out := append(line, '\n')
	out = append(out, raw...)
	_, err = os.Stdout.Write(out)
	return err
}

// runExperiment runs and encodes one experiment, turning a panic on the
// calling goroutine into an error. ranAt is when Run returned.
func runExperiment(exp *harness.Experiment, opt harness.Options) (raw []byte, ranAt time.Time, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	res, err := exp.Run(opt)
	ranAt = time.Now()
	if err != nil {
		return nil, ranAt, err
	}
	raw, err = encode(res)
	return raw, ranAt, err
}
