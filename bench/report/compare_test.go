package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func testSpec() *Spec {
	s := &Spec{EndToEnd: []MetricSpec{
		{Name: "photons_per_s", Unit: "1/s", Better: "higher", Bound: 0.05},
		{Name: "submit_to_result_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	for _, name := range []string{"bulk-head", "small-fresh"} {
		s.Workloads = append(s.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{Name: name})
	}
	return s
}

// results builds a file of five untraced runs per workload whose values
// wobble by up to ±1 % around base×scale(workload, metric).
func results(phase float64, scale func(workload, metric string) float64) *File {
	f := &File{}
	base := map[string]float64{"photons_per_s": 22000, "submit_to_result_p50_ms": 35}
	for _, w := range []string{"bulk-head", "small-fresh"} {
		for i := 0; i < 5; i++ {
			r := Run{Workload: w, Attempted: 100, Correct: true, Metrics: Metrics{}}
			for name, v := range base {
				wobble := 1 + 0.01*math.Sin(phase+float64(i)*1.7+float64(len(name)))
				r.Metrics.Set(name, v*wobble*scale(w, name), "", 0)
			}
			f.Runs = append(f.Runs, r)
		}
		// Neither a traced nor a void run may enter the comparison.
		f.Runs = append(f.Runs, Run{Workload: w, Traced: true, Metrics: Metrics{"photons_per_s": {Value: 1}}},
			Run{Workload: w, Void: "late", Metrics: Metrics{"photons_per_s": {Value: 1}}})
	}
	return f
}

func same(string, string) float64 { return 1 }

func TestCompareSameCommitPasses(t *testing.T) {
	c := Compare(testSpec(), results(0, same), results(1, same))
	if len(c.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(c.Rows))
	}
	for _, r := range c.Rows {
		if r.Verdict != Within {
			t.Errorf("%s@%s: %s (change %.3f, spread %.3f), want within", r.Metric, r.Workload, r.Verdict, r.Change, r.Spread)
		}
	}
	if c.Regressed() {
		t.Error("two sets of runs of one commit count as a regression")
	}
}

func TestCompareCatchesTenPercentDrop(t *testing.T) {
	slow := func(w, metric string) float64 {
		if w == "bulk-head" && metric == "photons_per_s" {
			return 0.9
		}
		return 1
	}
	c := Compare(testSpec(), results(0, same), results(1, slow))
	for _, r := range c.Rows {
		want := Within
		if r.Workload == "bulk-head" && r.Metric == "photons_per_s" {
			want = Worse
		}
		if r.Verdict != want {
			t.Errorf("%s@%s: %s, want %s", r.Metric, r.Workload, r.Verdict, want)
		}
	}
	if !c.Regressed() {
		t.Error("a 10 % drop in photons_per_s passed")
	}
}

func TestCompareDirectionAndUnresolved(t *testing.T) {
	faster := func(w, metric string) float64 {
		if metric == "submit_to_result_p50_ms" {
			return 0.8 // lower is better
		}
		return 1
	}
	c := Compare(testSpec(), results(0, same), results(1, faster))
	for _, r := range c.Rows {
		if r.Metric == "submit_to_result_p50_ms" && r.Verdict != Better {
			t.Errorf("%s@%s: %s, want better", r.Metric, r.Workload, r.Verdict)
		}
	}
	if c.Regressed() {
		t.Error("an improvement counts as a regression")
	}

	noisy := results(1, same)
	for i := range noisy.Runs {
		if r := &noisy.Runs[i]; r.Workload == "small-fresh" && !r.Traced {
			s := r.Metrics["photons_per_s"]
			s.Value *= 1 + 0.2*float64(i%3) // the runs disagree by far more than 5 %
			r.Metrics["photons_per_s"] = s
		}
	}
	c = Compare(testSpec(), results(0, same), noisy)
	for _, r := range c.Rows {
		if r.Workload == "small-fresh" && r.Metric == "photons_per_s" && r.Verdict != Unresolved {
			t.Errorf("spread %.2f over a bound of %.2f gave %s, want unresolved", r.Spread, r.Bound, r.Verdict)
		}
	}
}

func TestCompareFailedShareRise(t *testing.T) {
	bad := results(1, same)
	bad.Runs[0].Failed = 1
	c := Compare(testSpec(), results(0, same), bad)
	if !c.Regressed() || len(c.FailedRise) != 1 {
		t.Errorf("a rise in failed operations passed: %v", c.FailedRise)
	}
	if c := Compare(testSpec(), bad, results(0, same)); c.Regressed() {
		t.Error("a fall in failed operations counts as a regression")
	}
}

func TestPrintNeverShowsAShiftBelowTheSpread(t *testing.T) {
	c := &Comparison{Rows: []Row{
		{Workload: "w", Metric: "inside", Change: 0.003, Spread: 0.01, Bound: 0.05, NOld: 5, NNew: 5, Verdict: Within},
		{Workload: "w", Metric: "outside", Change: -0.09, Spread: 0.01, Bound: 0.05, NOld: 5, NNew: 5, Verdict: Worse},
	}}
	var buf bytes.Buffer
	c.Print(&buf)
	lines := strings.Split(buf.String(), "\n")
	if !strings.Contains(lines[1], "< 1.0%") || strings.Contains(lines[1], "0.3%") {
		t.Errorf("a shift inside the spread is printed as its own percentage: %q", lines[1])
	}
	if !strings.Contains(lines[2], "-9.0%") {
		t.Errorf("a shift outside the spread is not printed: %q", lines[2])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3, ok := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !ok || q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10: %g %g %v, want 2.75 8.25", q1, q3, ok)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3, _ := Quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2: %g %g, want 0.75 2.25", q1, q3)
	}
	if _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("quartiles of one value")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if got := Percentile(v, 50); got != 4.5 {
		t.Errorf("p50 of 1..8: %g, want 4.5", got)
	}
	if got := Percentile(v, 100); got != 8 {
		t.Errorf("p100 of 1..8: %g, want 8", got)
	}
	if got := Percentile(nil, 90); got != 0 {
		t.Errorf("p90 of nothing: %g", got)
	}
}
