package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim/par.(*Shard).drain":                      "par",
		"repro/internal/sim/par.(*Coordinator).work":                 "par",
		"repro/internal/sim.(*Engine).Step":                          "sim",
		"repro/internal/flow.(*Engine).NextWake":                     "flow",
		"repro/internal/flow.grow32[...]":                            "flow",
		"repro/internal/fabric.(*Network).publishFlowBG.func1":       "fabric",
		"repro/internal/harness.RunGrid.func1":                       "harness",
		"runtime.mallocgc":                                           "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                    "runtime",
		"slices.SortFunc[go.shape.[]repro/internal/topology.NodeID]": "other",
		"sort.Sort": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInlinedLeafAndHotspots(t *testing.T) {
	const (
		segRate = "repro/internal/flow.(*Engine).SegmentRate"
		publish = "repro/internal/fabric.(*Network).publishFlowBG"
		step    = "repro/internal/sim.(*Engine).Step"
	)
	got := attribute([]cpuSample{
		// SegmentRate inlined into publishFlowBG: self time is flow's.
		{stack: []string{segRate, publish, step}, nanos: 3e9},
		{stack: []string{publish, step}, nanos: 1e9},
		{stack: []string{"repro/internal/sim/par.(*Shard).drain", "repro/internal/sim/par.(*Coordinator).work"}, nanos: 2e9},
		{stack: []string{"runtime.mallocgc", "repro/internal/fabric.(*Network).OnEpoch", publish}, nanos: 5e8},
	})
	want := map[string]float64{
		"flow.cpu_s":          3,
		"fabric.cpu_s":        1,
		"par.cpu_s":           2,
		"sim.cpu_s":           0,
		"fabric.publish_bg_s": 4.5,
		"par.barrier_s":       2.5,
		"flow.next_wake_s":    0,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
}

// pbField appends one length-delimited protobuf field.
func pbField(b []byte, num int, msg []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(msg)))
	return append(b, msg...)
}

// pbVarint appends one varint protobuf field.
func pbVarint(b []byte, num int, v uint64) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func TestParseCPUProfileInlinedFrames(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"repro/internal/flow.(*Engine).SegmentRate",
		"repro/internal/fabric.(*Network).publishFlowBG",
		"repro/internal/sim.(*Engine).Step"}
	var p []byte
	p = pbField(p, 1, pbVarint(pbVarint(nil, 1, 1), 2, 2)) // samples/count
	p = pbField(p, 1, pbVarint(pbVarint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	// One sample: location 1 (leaf) then 2, values packed.
	var s []byte
	s = pbField(s, 1, binary.AppendUvarint(binary.AppendUvarint(nil, 1), 2))
	s = pbField(s, 2, binary.AppendUvarint(binary.AppendUvarint(nil, 7), 70_000_000))
	p = pbField(p, 2, s)
	// Location 1 holds SegmentRate inlined into publishFlowBG: the
	// innermost line comes first.
	loc1 := pbVarint(nil, 1, 1)
	loc1 = pbField(loc1, 4, pbVarint(nil, 1, 10))
	loc1 = pbField(loc1, 4, pbVarint(nil, 1, 11))
	p = pbField(p, 4, loc1)
	p = pbField(p, 4, pbField(pbVarint(nil, 1, 2), 4, pbVarint(nil, 1, 12)))
	for id, name := range map[uint64]uint64{10: 5, 11: 6, 12: 7} {
		p = pbField(p, 5, pbVarint(pbVarint(nil, 1, id), 2, name))
	}
	for _, str := range strs {
		p = pbField(p, 6, []byte(str))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	samples, err := parseCPUProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].nanos != 70_000_000 {
		t.Fatalf("samples = %+v, want one of 70ms", samples)
	}
	want := []string{strs[5], strs[6], strs[7]}
	if got := samples[0].stack; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("stack = %q, want %q", got, want)
	}
	if got := attribute(samples)["flow.cpu_s"]; got != 0.07 {
		t.Errorf("flow.cpu_s = %g, want 0.07", got)
	}
}

var sink uint64

func burn(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink = sink*6364136223846793005 + 1442695040888963407
		}
	}
}

func TestParseRuntimeCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	seen := false
	for _, s := range samples {
		total += s.nanos
		for _, fn := range s.stack {
			seen = seen || fn == "repro/perfbench.burn" || fn == "main.burn"
		}
	}
	if total <= 0 || !seen {
		t.Fatalf("profile of %d samples, %d ns total, burn seen %v", len(samples), total, seen)
	}
}
