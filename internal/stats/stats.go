// Package stats implements the statistical machinery of the paper's
// methodology section: quantiles, boxplot summaries (defined exactly as in
// the caption of Fig. 4), confidence-interval-driven run-length control
// (following Hoefler & Belli, "Scientific benchmarking of parallel computing
// systems", SC'15 — reference [52] of the paper), and the congestion impact
// metric C = Tc/Ti from GPCNet (reference [6]).
package stats

import (
	"math"
	"sort"
)

// Sample is an accumulating collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample; an optional capacity hint avoids
// re-allocation in tight measurement loops.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// FromSlice wraps the given values (the slice is copied).
func FromSlice(xs []float64) *Sample {
	s := NewSample(len(xs))
	s.xs = append(s.xs, xs...)
	return s
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the raw observations (not a copy; do not mutate).
func (s *Sample) Values() []float64 { return s.xs }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance.
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return math.NaN()
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Quantile returns the q-th quantile (0 <= q <= 1) using linear
// interpolation between closest ranks (type-7, the common default).
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// Min returns the smallest observation.
func (s *Sample) Min() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	return s.xs[len(s.xs)-1]
}

// Percentile is shorthand for Quantile(p/100).
func (s *Sample) Percentile(p float64) float64 { return s.Quantile(p / 100) }

// BoxStats is the five-number summary used in Fig. 4 of the paper:
// Q1 and Q3 are the quartiles, IQR = Q3-Q1, S is the smallest sample
// strictly greater than Q1 - 1.5*IQR, and L is the largest sample strictly
// smaller than Q3 + 1.5*IQR (the caption's "greater than" / "smaller than"
// are strict: a sample sitting exactly on a fence is an outlier).
type BoxStats struct {
	S, Q1, Median, Q3, L float64
}

// Box computes the Fig. 4 boxplot summary.
func (s *Sample) Box() BoxStats {
	b := BoxStats{
		Q1:     s.Quantile(0.25),
		Median: s.Median(),
		Q3:     s.Quantile(0.75),
	}
	iqr := b.Q3 - b.Q1
	loFence := b.Q1 - 1.5*iqr
	hiFence := b.Q3 + 1.5*iqr
	b.S, b.L = whiskers(s.xs, loFence, hiFence, true)
	if b.S > b.L || math.IsInf(b.S, 1) || math.IsInf(b.L, -1) {
		// Degenerate distributions (zero IQR with ties exactly on a fence)
		// leave a whisker with no strictly qualifying sample; fall back to
		// inclusive fences so the whiskers stay ordered and within the data.
		b.S, b.L = whiskers(s.xs, loFence, hiFence, false)
	}
	if math.IsInf(b.S, 1) {
		b.S = math.NaN()
	}
	if math.IsInf(b.L, -1) {
		b.L = math.NaN()
	}
	return b
}

// whiskers returns the extreme samples within the fences, using strict
// comparisons when strict is set.
func whiskers(xs []float64, loFence, hiFence float64, strict bool) (s, l float64) {
	s, l = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		loOK, hiOK := x >= loFence, x <= hiFence
		if strict {
			loOK, hiOK = x > loFence, x < hiFence
		}
		if loOK && x < s {
			s = x
		}
		if hiOK && x > l {
			l = x
		}
	}
	return s, l
}

// MedianCI returns a distribution-free (binomial/order-statistic) 95%
// confidence interval for the median. For small n the interval spans the
// whole sample.
func (s *Sample) MedianCI() (lo, hi float64) {
	n := len(s.xs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	s.sort()
	if n < 6 {
		return s.xs[0], s.xs[n-1]
	}
	// Normal approximation of the binomial order statistics: ranks
	// n/2 ± 1.96*sqrt(n)/2.
	d := 1.96 * math.Sqrt(float64(n)) / 2
	loIdx := int(math.Floor(float64(n)/2 - d))
	hiIdx := int(math.Ceil(float64(n)/2 + d))
	if loIdx < 0 {
		loIdx = 0
	}
	if hiIdx >= n {
		hiIdx = n - 1
	}
	return s.xs[loIdx], s.xs[hiIdx]
}

// Converged implements the paper's stopping rule: the 95% CI of the median
// must lie within tol (e.g. 0.05 for 5%) of the median. A zero median with
// a zero-width interval also counts as converged.
func (s *Sample) Converged(tol float64) bool {
	if s.Len() < 6 {
		return false
	}
	med := s.Median()
	lo, hi := s.MedianCI()
	if med == 0 {
		return hi-lo == 0
	}
	return (med-lo) <= tol*math.Abs(med) && (hi-med) <= tol*math.Abs(med)
}

// CongestionImpact is the GPCNet metric used throughout Section III:
// C = Tc / Ti where Ti is the mean isolated execution time and Tc the mean
// time under congestion. Values below 1 (measurement noise) are clamped to
// 1, matching how the paper's heatmaps read.
func CongestionImpact(isolated, congested float64) float64 {
	if isolated <= 0 {
		return math.NaN()
	}
	c := congested / isolated
	if c < 1 {
		return 1
	}
	return c
}

// Histogram bins observations into equal-width buckets over [lo, hi].
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
	Under  int // observations below Lo
	Over   int // observations above Hi
	Bad    int // NaN observations (counted in N, never binned)
}

// NewHistogram creates a histogram with the given bucket count.
func NewHistogram(lo, hi float64, buckets int) *Histogram {
	if buckets <= 0 {
		buckets = 1
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, buckets)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.N++
	switch {
	case math.IsNaN(x):
		// A NaN fails every bound check and would fall through to the
		// bucket computation, where int(NaN) is a negative index.
		h.Bad++
	case x < h.Lo:
		h.Under++
	case x > h.Hi:
		h.Over++
	default:
		i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
		if i >= len(h.Counts) {
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// Density returns the fraction of observations in bucket i.
func (h *Histogram) Density(i int) float64 {
	if h.N == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.N)
}

// BucketCenter returns the midpoint of bucket i.
func (h *Histogram) BucketCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}
