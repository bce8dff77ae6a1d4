package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/results"
)

// point is one result point of an experiment: a measured value keyed by
// its position in the result (series and size, or grid row and column).
type point struct {
	key string
	val float64
	na  bool
}

// failure is a point that failed an output check.
type failure struct {
	key, reason string
}

// analysis is what the benchmark reads out of one encoded result.
type analysis struct {
	// digest hashes the encoded result with Meta.Wall zeroed, so two runs
	// of the same code and seed must agree on it.
	digest   string
	points   []point
	failures []failure
}

// analyse decodes an encoded result, checks that it round-trips through
// results.DecodeJSON, hashes it and applies the per-point output checks.
func analyse(w workload, raw []byte) (analysis, error) {
	res, err := results.DecodeJSON(bytes.NewReader(raw))
	if err != nil {
		return analysis{}, err
	}
	again, err := encode(res)
	if err != nil {
		return analysis{}, err
	}
	if !bytes.Equal(again, raw) {
		return analysis{}, fmt.Errorf("result does not round-trip through results.DecodeJSON")
	}
	res.Meta.Wall = 0
	zeroed, err := encode(res)
	if err != nil {
		return analysis{}, err
	}
	sum := sha256.Sum256(zeroed)
	a := analysis{digest: hex.EncodeToString(sum[:8])}
	if w.exp == "fig6" {
		err = fig6Points(res, &a)
	} else {
		err = gridPoints(res, w.keyCols, &a)
	}
	return a, err
}

func encode(r *results.Result) ([]byte, error) {
	enc, err := results.NewEncoder("json")
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := enc.Encode(&b, r); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func table(r *results.Result, name string) (*results.Table, error) {
	for _, t := range r.Tables {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("result has no %q table", name)
}

func column(t *results.Table, name string) (int, error) {
	for i, c := range t.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("table %q has no %q column", t.Name, name)
}

// fig6Points checks that every bandwidth lies in (0, theoretical peak].
func fig6Points(r *results.Result, a *analysis) error {
	peaks, err := table(r, "peaks")
	if err != nil {
		return err
	}
	peak := map[string]float64{}
	for _, row := range peaks.Rows {
		if v, ok := row[1].Float64(); ok {
			peak[strings.TrimPrefix(row[0].Str, "theoretical ")] = v
		}
	}
	pts, err := table(r, "points")
	if err != nil {
		return err
	}
	series, err := column(pts, "series")
	if err != nil {
		return err
	}
	size, err := column(pts, "size")
	if err != nil {
		return err
	}
	tbps, err := column(pts, "Tbps")
	if err != nil {
		return err
	}
	for _, row := range pts.Rows {
		key := row[series].Str + "/" + row[size].Str
		v, ok := row[tbps].Float64()
		a.points = append(a.points, point{key: key, val: v, na: !ok})
		p, hasPeak := peak[row[series].Str]
		switch {
		case !ok:
			a.failures = append(a.failures, failure{key, "bandwidth is N.A."})
		case !hasPeak:
			a.failures = append(a.failures, failure{key, "no theoretical peak for the series"})
		case !(v > 0):
			a.failures = append(a.failures, failure{key, fmt.Sprintf("bandwidth %g Tb/s is not positive", v)})
		case v > p:
			a.failures = append(a.failures, failure{key, fmt.Sprintf("bandwidth %g Tb/s is above the theoretical peak %g", v, p)})
		}
	}
	if len(a.points) == 0 {
		return fmt.Errorf("fig6 result has no points")
	}
	return nil
}

// gridPoints checks that every non-N.A. impact of a heatmap grid is
// finite and positive. The first keyCols columns label the row.
func gridPoints(r *results.Result, keyCols int, a *analysis) error {
	if len(r.Tables) == 0 {
		return fmt.Errorf("grid result has no table")
	}
	t := r.Tables[0]
	if keyCols <= 0 || len(t.Columns) <= keyCols || len(t.Rows) == 0 {
		return fmt.Errorf("table %q has no result columns or rows", t.Name)
	}
	for _, row := range t.Rows {
		labels := make([]string, keyCols)
		for i := range labels {
			labels[i] = row[i].Text()
		}
		prefix := strings.Join(labels, "/") + "/"
		for c := keyCols; c < len(row); c++ {
			key := prefix + t.Columns[c]
			v, ok := row[c].Float64()
			a.points = append(a.points, point{key: key, val: v, na: !ok})
			if ok && !(v > 0 && !math.IsInf(v, 0)) {
				a.failures = append(a.failures, failure{key, fmt.Sprintf("impact %g is not finite and positive", v)})
			}
		}
	}
	return nil
}

// compareReference returns the relative error of every point against the
// classic-packet reference, and the points whose N.A. status differs from
// it, which fail. A point whose reference is 0 has no relative error.
func compareReference(run, ref []point) (errs []float64, fails []failure, err error) {
	if len(run) != len(ref) {
		return nil, nil, fmt.Errorf("result has %d points, reference has %d", len(run), len(ref))
	}
	for i, p := range run {
		r := ref[i]
		if p.key != r.key {
			return nil, nil, fmt.Errorf("point %d is %q, reference has %q", i, p.key, r.key)
		}
		switch {
		case p.na != r.na:
			fails = append(fails, failure{p.key, "N.A. in only one of the result and its classic-packet reference"})
		case !p.na && r.val != 0:
			errs = append(errs, math.Abs(p.val-r.val)/math.Abs(r.val))
		}
	}
	return errs, fails, nil
}

// unexpected returns the failures that are not recorded known defects.
func (w workload) unexpected(fails []failure) []failure {
	var out []failure
	for _, f := range fails {
		if _, known := w.knownDefects[f.key]; !known {
			out = append(out, f)
		}
	}
	return out
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by linear interpolation between order statistics.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
