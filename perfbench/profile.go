package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuSample is one CPU profile sample: its stack, leaf first, with every
// frame's function name (inlined frames are frames of their own), and
// the CPU time it stands for.
type cpuSample struct {
	stack []string
	nanos int64
}

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "repro/internal/"

// layerOf maps a profile function name to the layer that owns it: the
// last element of a simulator package path (repro/internal/sim/par is
// "par", not "sim"), "runtime" for the Go runtime, "other" otherwise.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		rest := strings.TrimPrefix(pkg, modulePrefix)
		return rest[strings.LastIndexByte(rest, '/')+1:]
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}

// packageOf returns the import path of a profile function name such as
// "repro/internal/fabric.(*Network).publishFlowBG". Type arguments in
// brackets may hold paths of their own and are ignored.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// hotspots are the functions whose cumulative CPU is reported: a sample
// counts once towards a hotspot when any of its frames is one of them.
var hotspots = []struct {
	metric string
	funcs  []string
}{
	{"flow.next_wake_s", []string{"repro/internal/flow.(*Engine).NextWake"}},
	{"flow.solve_s", []string{"repro/internal/flow.(*Engine).solve"}},
	{"fabric.publish_bg_s", []string{"repro/internal/fabric.(*Network).publishFlowBG"}},
	{"par.barrier_s", []string{
		"repro/internal/fabric.(*Network).OnEpoch",
		"repro/internal/fabric.(*Network).OnShard",
		"repro/internal/sim/par.(*Shard).drain",
	}},
}

// selfLayers are the layers whose self CPU is reported as <layer>.cpu_s.
var selfLayers = []string{"sim", "par", "fabric", "flow", "qos", "routing", "congestion", "mpi", "topology"}

// attribute splits profile CPU time by layer: self time goes to the
// layer of each sample's leaf frame, and each hotspot gets the
// cumulative time of the samples passing through it. Values are seconds.
func attribute(samples []cpuSample) map[string]float64 {
	self := map[string]int64{}
	cum := make([]int64, len(hotspots))
	for _, s := range samples {
		if len(s.stack) == 0 {
			continue
		}
		self[layerOf(s.stack[0])] += s.nanos
		for i, h := range hotspots {
			if onStack(s.stack, h.funcs) {
				cum[i] += s.nanos
			}
		}
	}
	out := map[string]float64{}
	for _, l := range selfLayers {
		out[l+".cpu_s"] = float64(self[l]) / 1e9
	}
	for i, h := range hotspots {
		out[h.metric] = float64(cum[i]) / 1e9
	}
	return out
}

func onStack(stack, funcs []string) bool {
	for _, fn := range stack {
		for _, f := range funcs {
			if fn == f {
				return true
			}
		}
	}
	return false
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribute needs.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes [][2]int64 // type, unit string indexes
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location -> function ids, innermost first
		funcName    = map[uint64]int64{}    // function -> name string index
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return varints(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, st := range sampleTypes {
		if str(st[0]) == "cpu" && str(st[1]) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, fmt.Errorf("profile: no cpu/nanoseconds sample type")
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, fmt.Errorf("profile: sample has %d values, want > %d", len(s.values), cpu)
		}
		cs := cpuSample{nanos: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				cs.stack = append(cs.stack, str(funcName[fn]))
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// fields walks the fields of one protobuf message, calling f with each
// field's number, wire type and either its varint value or its bytes.
func fields(msg []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return fmt.Errorf("profile: short fixed64 in field %d", num)
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return fmt.Errorf("profile: short fixed32 in field %d", num)
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d in field %d", wire, num)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints yields a repeated varint field, packed (wire type 2) or not.
func varints(wire int, v uint64, b []byte, yield func(uint64)) error {
	if wire != 2 {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
