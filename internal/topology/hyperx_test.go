package topology

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// smallHX is a 3x4 2D HyperX with 2 nodes per switch = 24 nodes.
func smallHX() *HyperX {
	h, err := NewHyperX(HyperXConfig{Dims: []int{3, 4}, NodesPerSwitch: 2})
	if err != nil {
		panic(err)
	}
	return h
}

func TestHyperXValidate(t *testing.T) {
	bad := []HyperXConfig{
		{},
		{Dims: []int{1, 4}, NodesPerSwitch: 2},   // dimension < 2
		{Dims: []int{40, 40}, NodesPerSwitch: 2}, // port budget
		{Dims: []int{4, 4}, NodesPerSwitch: 0},   // no nodes
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid: %+v", i, c)
		}
	}
}

func TestHyperXCounts(t *testing.T) {
	h := smallHX()
	if h.Switches() != 12 || h.Nodes() != 24 {
		t.Errorf("switches=%d nodes=%d", h.Switches(), h.Nodes())
	}
	edge, local, global := 0, 0, 0
	for _, l := range h.Links() {
		switch l.Kind {
		case EdgeLink:
			edge++
		case LocalLink:
			local++
		case GlobalLink:
			global++
		}
	}
	// Rows of dim 0 (size 3): 4 rows * C(3,2) = 12 local links; rows of
	// dim 1 (size 4): 3 rows * C(4,2) = 18 global links.
	if edge != 24 || local != 12 || global != 18 {
		t.Errorf("edge=%d local=%d global=%d", edge, local, global)
	}
	// Every switch: 2 nodes + (3-1) + (4-1) = 7 ports.
	for s, p := range portCount(h) {
		if p != 7 {
			t.Errorf("switch %d has %d ports, want 7", s, p)
		}
	}
}

func TestHyperXBisectionAndDiameter(t *testing.T) {
	h := smallHX()
	// Even ID bisection splits the size-4 dimension 2|2: crossing links
	// are 2*2 per dim-1 row times 3 rows.
	if n := h.BisectionLinks(); n != 12 {
		t.Errorf("bisection links = %d, want 12", n)
	}
	if d := h.Diameter(); d != 2 {
		t.Errorf("2D diameter = %d, want 2", d)
	}
	h3, err := NewHyperX(HyperXConfig{Dims: []int{2, 2, 3}, NodesPerSwitch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := h3.Diameter(); d != 3 {
		t.Errorf("3D diameter = %d, want 3", d)
	}
}

// hamming counts differing coordinates between two switches.
func hamming(h *HyperX, a, b SwitchID) int {
	n := 0
	for d, size := range h.Cfg.Dims {
		if (int(a)/h.stride[d])%size != (int(b)/h.stride[d])%size {
			n++
		}
	}
	return n
}

func TestHyperXMinimalPaths(t *testing.T) {
	h := smallHX()
	for src := SwitchID(0); int(src) < h.Switches(); src++ {
		for dst := SwitchID(0); int(dst) < h.Switches(); dst++ {
			ps := h.MinimalPaths(src, dst, 8)
			hd := hamming(h, src, dst)
			want := 1
			if hd == 2 {
				want = 2 // two dimension orders
			}
			if len(ps) != want {
				t.Fatalf("%d->%d: %d paths, want %d", src, dst, len(ps), want)
			}
			for _, p := range ps {
				if !h.Valid(p) {
					t.Fatalf("invalid path %v", p)
				}
				if p.InterSwitchHops() != hd {
					t.Fatalf("path %v has %d hops, want Hamming %d", p, p.InterSwitchHops(), hd)
				}
			}
		}
	}
}

func TestHyperXNonMinimalPaths(t *testing.T) {
	var ar PathArena
	h := smallHX()
	rng := sim.NewRNG(9)
	for dst := SwitchID(1); int(dst) < h.Switches(); dst++ {
		ps := h.NonMinimalPaths(&ar, 0, dst, rng, 2)
		if len(ps) == 0 {
			t.Fatalf("no detours 0->%d", dst)
		}
		for _, p := range ps {
			if !h.Valid(p) {
				t.Fatalf("invalid detour 0->%d: %v", dst, p)
			}
			if p[0] != 0 || p[len(p)-1] != dst {
				t.Fatalf("detour endpoints wrong: %v", p)
			}
		}
	}
	// The arena is reused across calls: retained paths must be copied.
	first := h.NonMinimalPaths(&ar, 0, 5, nil, 1)
	keep := append(Path(nil), first[0]...)
	h.NonMinimalPaths(&ar, 6, 11, nil, 1)
	again := h.NonMinimalPaths(&ar, 0, 5, nil, 1)
	for i := range keep {
		if keep[i] != again[0][i] {
			t.Fatalf("nil-rng detour not stable: %v vs %v", keep, again[0])
		}
	}
}

func TestHyperXFor(t *testing.T) {
	f := func(raw uint16) bool {
		n := int(raw%2000) + 1
		cfg := HyperXFor(n)
		if cfg.Validate() != nil {
			return false
		}
		tp, err := NewHyperX(cfg)
		return err == nil && tp.Nodes() >= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Past ~10k nodes a flat 2D array exceeds the radix-64 port budget;
	// the helper must add dimensions instead (validated only).
	for _, n := range []int{6400, 16384, 65536} {
		cfg := HyperXFor(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("HyperXFor(%d) invalid: %v", n, err)
			continue
		}
		sw := 1
		for _, s := range cfg.Dims {
			sw *= s
		}
		if got := sw * cfg.NodesPerSwitch; got < n {
			t.Errorf("HyperXFor(%d) covers only %d nodes (dims %v)", n, got, cfg.Dims)
		}
	}
}

func TestHyperXArenasIndependent(t *testing.T) {
	checkArenasIndependent(t, func() Topology { return smallHX() })
}
