package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/results"
)

// TestChecksFlagFig6FlowDefects runs the fig6-flow workload and shows
// that the output checks flag its zero and above-peak bisection points,
// and that exactly these are the recorded known defects.
func TestChecksFlagFig6FlowDefects(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6 at flow fidelity")
	}
	w, err := lookupWorkload("fig6-flow")
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.Lookup(w.exp).Run(w.options(1, false))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encode(res)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyse(w, raw)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, f := range a.failures {
		keys = append(keys, f.key)
		switch {
		case f.key == "bisection/128KiB" && !strings.Contains(f.reason, "not positive"):
			t.Errorf("%s: %s, want the zero flagged", f.key, f.reason)
		case f.key != "bisection/128KiB" && !strings.Contains(f.reason, "above the theoretical peak"):
			t.Errorf("%s: %s, want above-peak flagged", f.key, f.reason)
		}
	}
	var known []string
	for k := range w.knownDefects {
		known = append(known, k)
	}
	sort.Strings(keys)
	sort.Strings(known)
	if strings.Join(keys, ",") != strings.Join(known, ",") {
		t.Errorf("failing points %v, known defects %v", keys, known)
	}
	if len(a.points) != 16 {
		t.Errorf("%d points, want 16", len(a.points))
	}
}

func gridResult(vals ...results.Value) *results.Result {
	r := results.New("fig9")
	cols := []string{"system", "aggressor", "aggr_frac"}
	for range vals {
		cols = append(cols, "v"+string(rune('a'+len(cols)-3)))
	}
	row := append([]results.Value{results.String("S"), results.String("incast"), results.Float(0.1, 2)}, vals...)
	r.AddTable("heatmap", cols...).Row(row...)
	return r
}

func mustEncode(t *testing.T, r *results.Result) []byte {
	t.Helper()
	b, err := encode(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGridChecks(t *testing.T) {
	w := workload{exp: "fig9", keyCols: 3}
	a, err := analyse(w, mustEncode(t, gridResult(
		results.Float(1.5, 1), results.NA(), results.Float(0, 1), results.Float(-2, 1))))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.points) != 4 || !a.points[1].na {
		t.Fatalf("points = %+v", a.points)
	}
	var keys []string
	for _, f := range a.failures {
		keys = append(keys, f.key)
	}
	if got := strings.Join(keys, ","); got != "S/incast/0.1/vc,S/incast/0.1/vd" {
		t.Errorf("failing points %s, want the zero and the negative impact", got)
	}
}

func TestAnalyseRoundTripAndDigest(t *testing.T) {
	w := workload{exp: "fig9", keyCols: 3}
	r := gridResult(results.Float(1.25, 1))
	r.Meta.Wall = time.Second
	a, err := analyse(w, mustEncode(t, r))
	if err != nil {
		t.Fatal(err)
	}
	r.Meta.Wall = 2 * time.Second
	b, err := analyse(w, mustEncode(t, r))
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Errorf("digest depends on Meta.Wall: %s vs %s", a.digest, b.digest)
	}
	r.Tables[0].Rows[0][3] = results.Float(1.5, 1)
	if c, err := analyse(w, mustEncode(t, r)); err != nil || c.digest == a.digest {
		t.Errorf("digest %s unchanged by a changed point (err %v)", c.digest, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, mustEncode(t, r)); err != nil {
		t.Fatal(err)
	}
	if _, err := analyse(w, compact.Bytes()); err == nil || !strings.Contains(err.Error(), "round-trip") {
		t.Errorf("analyse of a differently framed encoding: %v, want a round-trip error", err)
	}
}

func TestTallyRuns(t *testing.T) {
	w := workload{exp: "fig9", keyCols: 3, knownDefects: map[string]string{"k/b": "known"}}
	pts := func(vals ...float64) []point {
		var out []point
		for i, v := range vals {
			out = append(out, point{key: "k/" + string(rune('a'+i)), val: v, na: v < 0})
		}
		return out
	}
	ok := run{a: analysis{digest: "d1", points: pts(1, 2, 4, -1)}}
	ref := analysis{digest: "r", points: pts(1, 1, 2, -1)}

	tl := tallyRuns(w, []run{ok, ok}, &ref)
	if tl.failedRuns != 0 || len(tl.good) != 2 || len(tl.notes) != 0 {
		t.Fatalf("clean set: %+v", tl)
	}
	if med, mx := median(tl.refErrs), maxOf(tl.refErrs); med != 1 || mx != 1 {
		t.Errorf("ref errors %v, want median 1 and max 1", tl.refErrs)
	}

	known := run{a: analysis{digest: "d1", points: ok.a.points, failures: []failure{{"k/b", "bad"}}}}
	if tl := tallyRuns(w, []run{known}, &ref); tl.failedRuns != 0 || tl.failedFrac != 0.25 {
		t.Errorf("known defect: %d failed runs, failed_frac %g; want 0 and 0.25", tl.failedRuns, tl.failedFrac)
	}

	crashed := run{err: errors.New("child exited")}
	other := run{a: analysis{digest: "d2", points: ok.a.points}}
	unexpected := run{a: analysis{digest: "d1", points: ok.a.points, failures: []failure{{"k/a", "bad"}}}}
	tl = tallyRuns(w, []run{ok, crashed, other, unexpected}, &ref)
	if tl.failedRuns != 3 || len(tl.good) != 1 || len(tl.notes) != 3 {
		t.Errorf("failed runs %d, good %d, notes %q; want 3, 1, 3", tl.failedRuns, len(tl.good), tl.notes)
	}
	// The crashed run counts all 4 points, the unexpected one its 1.
	if tl.failedFrac != 5.0/16 {
		t.Errorf("failed_frac %g, want 5/16", tl.failedFrac)
	}

	naShift := run{a: analysis{digest: "d1", points: pts(1, 2, -1, -1)}}
	if tl := tallyRuns(w, []run{naShift}, &ref); tl.failedRuns != 1 || !strings.Contains(tl.notes[0], "N.A.") {
		t.Errorf("N.A. mismatch against the reference: %+v", tl)
	}
}
