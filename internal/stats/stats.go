// Package stats provides the small statistical toolkit used by tallies,
// tests and the experiment harnesses: streaming moments, histograms and
// confidence intervals. All accumulators are plain data and merge
// associatively for distributed reduction.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates count, mean and variance of a weighted stream using a
// merge-friendly sum representation (sums of w, w·x, w·x²).
type Running struct {
	N          int64   // number of samples
	SumW       float64 // Σw
	SumWX      float64 // Σw·x
	SumWX2     float64 // Σw·x²
	MinV, MaxV float64
}

// Add accumulates one sample x with weight w.
func (r *Running) Add(x, w float64) {
	if r.N == 0 || x < r.MinV {
		r.MinV = x
	}
	if r.N == 0 || x > r.MaxV {
		r.MaxV = x
	}
	r.N++
	r.SumW += w
	r.SumWX += w * x
	r.SumWX2 += w * x * x
}

// Merge folds o into r.
func (r *Running) Merge(o Running) {
	if o.N == 0 {
		return
	}
	if r.N == 0 {
		*r = o
		return
	}
	if o.MinV < r.MinV {
		r.MinV = o.MinV
	}
	if o.MaxV > r.MaxV {
		r.MaxV = o.MaxV
	}
	r.N += o.N
	r.SumW += o.SumW
	r.SumWX += o.SumWX
	r.SumWX2 += o.SumWX2
}

// Mean returns the weighted mean, or 0 for an empty accumulator.
func (r *Running) Mean() float64 {
	if r.SumW == 0 {
		return 0
	}
	return r.SumWX / r.SumW
}

// Variance returns the weighted population variance.
func (r *Running) Variance() float64 {
	if r.SumW == 0 {
		return 0
	}
	m := r.Mean()
	v := r.SumWX2/r.SumW - m*m
	if v < 0 { // numerical noise
		return 0
	}
	return v
}

// StdDev returns the weighted standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean treating N as the effective
// sample count.
func (r *Running) StdErr() float64 {
	if r.N == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.N))
}

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval for the mean.
func (r *Running) CI95() float64 { return 1.96 * r.StdErr() }

// Histogram is a fixed-range weighted histogram with uniform bins.
// Out-of-range samples accumulate in Under/Over.
type Histogram struct {
	Min, Max    float64
	Counts      []float64 // weighted counts per bin
	Under, Over float64
}

// NewHistogram returns a histogram over [min, max) with n bins.
func NewHistogram(min, max float64, n int) *Histogram {
	if n <= 0 || max <= min {
		panic(fmt.Sprintf("stats: bad histogram range [%g,%g) n=%d", min, max, n))
	}
	return &Histogram{Min: min, Max: max, Counts: make([]float64, n)}
}

// Clone returns a deep copy of the histogram.
func (h *Histogram) Clone() *Histogram {
	cp := *h
	cp.Counts = append([]float64(nil), h.Counts...)
	return &cp
}

// Add accumulates weight w at value x.
func (h *Histogram) Add(x, w float64) {
	switch {
	case x < h.Min:
		h.Under += w
	case x >= h.Max:
		h.Over += w
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i == len(h.Counts) { // x == Max ruled out above, guard rounding
			i--
		}
		h.Counts[i] += w
	}
}

// Merge folds o into h; the histograms must share geometry.
func (h *Histogram) Merge(o *Histogram) error {
	if o.Min != h.Min || o.Max != h.Max || len(o.Counts) != len(h.Counts) {
		return fmt.Errorf("stats: merging incompatible histograms")
	}
	h.Under += o.Under
	h.Over += o.Over
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	return nil
}

// Total returns the total weight including out-of-range mass.
func (h *Histogram) Total() float64 {
	t := h.Under + h.Over
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the centre value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Quantile returns an approximate weighted quantile (0 ≤ q ≤ 1) from the
// in-range mass, interpolated within the containing bin.
func (h *Histogram) Quantile(q float64) float64 {
	inRange := 0.0
	for _, c := range h.Counts {
		inRange += c
	}
	if inRange == 0 {
		return h.Min
	}
	target := q * inRange
	cum := 0.0
	w := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		if cum+c >= target {
			frac := 0.0
			if c > 0 {
				frac = (target - cum) / c
			}
			return h.Min + (float64(i)+frac)*w
		}
		cum += c
	}
	return h.Max
}
