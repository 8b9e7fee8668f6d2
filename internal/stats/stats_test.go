package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestRunningMoments(t *testing.T) {
	var r Running
	for _, x := range []float64{1, 2, 3, 4, 5} {
		r.Add(x, 1)
	}
	if r.N != 5 {
		t.Fatalf("N = %d", r.N)
	}
	if !almostEq(r.Mean(), 3, 1e-12) {
		t.Fatalf("mean = %g", r.Mean())
	}
	if !almostEq(r.Variance(), 2, 1e-12) {
		t.Fatalf("variance = %g", r.Variance())
	}
	if r.MinV != 1 || r.MaxV != 5 {
		t.Fatalf("min/max = %g/%g", r.MinV, r.MaxV)
	}
}

func TestRunningWeighted(t *testing.T) {
	var r Running
	r.Add(10, 3) // like three 10s
	r.Add(20, 1)
	if !almostEq(r.Mean(), 12.5, 1e-12) {
		t.Fatalf("weighted mean = %g", r.Mean())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdErr() != 0 || r.CI95() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

// Property: merging partial accumulators equals accumulating the
// concatenated stream.
func TestRunningMergeEquivalence(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		r := rng.New(seed)
		xs := make([]float64, n)
		ws := make([]float64, n)
		for i := range xs {
			xs[i] = 10 * r.Gaussian()
			ws[i] = r.Float64Open()
		}
		cut := int(r.Float64() * float64(n))

		var whole, a, b Running
		for i := range xs {
			whole.Add(xs[i], ws[i])
			if i < cut {
				a.Add(xs[i], ws[i])
			} else {
				b.Add(xs[i], ws[i])
			}
		}
		a.Merge(b)
		return a.N == whole.N &&
			almostEq(a.Mean(), whole.Mean(), 1e-9) &&
			almostEq(a.Variance(), whole.Variance(), 1e-9) &&
			a.MinV == whole.MinV && a.MaxV == whole.MaxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningMergeEmptySides(t *testing.T) {
	var a, empty Running
	a.Add(5, 1)
	before := a
	a.Merge(empty)
	if a != before {
		t.Fatal("merging empty changed accumulator")
	}
	var c Running
	c.Merge(before)
	if c.Mean() != 5 {
		t.Fatal("merging into empty lost data")
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0, 1)    // bin 0
	h.Add(9.99, 1) // bin 9
	h.Add(5, 2)    // bin 5
	h.Add(-1, 1)   // under
	h.Add(10, 1)   // over (half-open range)
	if h.Counts[0] != 1 || h.Counts[9] != 1 || h.Counts[5] != 2 {
		t.Fatalf("counts %v", h.Counts)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Fatalf("under/over = %g/%g", h.Under, h.Over)
	}
	if h.Total() != 6 {
		t.Fatalf("total = %g", h.Total())
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.BinCenter(0) != 0.5 || h.BinCenter(9) != 9.5 {
		t.Fatalf("bin centers %g, %g", h.BinCenter(0), h.BinCenter(9))
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	a.Add(1, 1)
	b.Add(1, 2)
	b.Add(11, 4)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Counts[0] != 3 || a.Over != 4 {
		t.Fatalf("merged %v over=%g", a.Counts, a.Over)
	}
	c := NewHistogram(0, 5, 5)
	if err := a.Merge(c); err == nil {
		t.Fatal("incompatible merge succeeded")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Add(float64(i)+0.5, 1)
	}
	med := h.Quantile(0.5)
	if math.Abs(med-50) > 1.5 {
		t.Fatalf("median = %g, want ≈50", med)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("q0 = %g", q)
	}
}

func TestHistogramPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad histogram spec did not panic")
		}
	}()
	NewHistogram(5, 5, 10)
}

func TestCI95ShrinksWithN(t *testing.T) {
	r := rng.New(3)
	var small, large Running
	for i := 0; i < 100; i++ {
		small.Add(r.Gaussian(), 1)
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.Gaussian(), 1)
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %g vs %g", large.CI95(), small.CI95())
	}
}

func TestEWMASeedsThenBlends(t *testing.T) {
	if got := EWMA(0, 5); got != 5 {
		t.Fatalf("first sample: %g, want 5", got)
	}
	if got := EWMA(10, 20); !almostEq(got, 13, 1e-12) {
		t.Fatalf("EWMA(10, 20) = %g, want 13", got)
	}
}
