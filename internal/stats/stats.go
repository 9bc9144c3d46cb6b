// Package stats provides the small statistical toolkit the benchmark
// harness uses to turn raw measurements into the rows and series of the
// paper's figures: integer histograms (Fig 5), running means (Fig 6, 8) and
// least-squares fits (the Fig 7 slope).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram counts integer observations.
type Histogram struct {
	counts map[int]int
	n      int
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[int]int)}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	h.counts[v]++
	h.n++
}

// Mode returns the most frequent value (smallest wins ties) and its count.
func (h *Histogram) Mode() (value, count int) {
	first := true
	for v, c := range h.counts {
		if first || c > count || (c == count && v < value) {
			value, count = v, c
			first = false
		}
	}
	return
}

// Mean returns the mean observation.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	s := 0.0
	for v, c := range h.counts {
		s += float64(v) * float64(c)
	}
	return s / float64(h.n)
}

// MassIn returns the fraction of observations with lo <= v <= hi.
func (h *Histogram) MassIn(lo, hi int) float64 {
	if h.n == 0 {
		return 0
	}
	s := 0
	for v, c := range h.counts {
		if v >= lo && v <= hi {
			s += c
		}
	}
	return float64(s) / float64(h.n)
}

// values returns the observed values in increasing order.
func (h *Histogram) values() []int {
	vs := make([]int, 0, len(h.counts))
	for v := range h.counts {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}

// String renders the histogram as "value\tcount" rows, the format of the
// paper's Fig 5 data.
func (h *Histogram) String() string {
	var b strings.Builder
	for _, v := range h.values() {
		fmt.Fprintf(&b, "%d\t%d\n", v, h.counts[v])
	}
	return b.String()
}

// Running accumulates a stream of float64 observations.
type Running struct {
	n    int
	sum  float64
	sum2 float64
}

// Add records x.
func (r *Running) Add(x float64) {
	r.n++
	r.sum += x
	r.sum2 += x * x
}

// N returns the observation count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Std returns the sample standard deviation.
func (r *Running) Std() float64 {
	if r.n < 2 {
		return 0
	}
	m := r.Mean()
	v := (r.sum2 - float64(r.n)*m*m) / float64(r.n-1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Fit is a least-squares line y = Slope·x + Intercept.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits a least-squares line through (x[i], y[i]). This is how
// Fig 7 extracts the exponent of the poly-logarithmic routing cost: fitting
// log(H) against log(log(N)) yields slope ≈ 2.
func LinearFit(x, y []float64) Fit {
	n := float64(len(x))
	if len(x) != len(y) || len(x) < 2 {
		return Fit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// Coefficient of determination.
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range x {
		d := y[i] - (slope*x[i] + intercept)
		ssRes += d * d
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: slope, Intercept: intercept, R2: r2}
}

// Percentile returns the p-th percentile (0..100) of xs (which it sorts).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	rank := p / 100 * float64(len(xs)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}
