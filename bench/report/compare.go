package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// Verdict is what a comparison says of one metric on one workload.
type Verdict string

const (
	Better Verdict = "better"
	Within Verdict = "within"
	Worse  Verdict = "worse"
	// Unresolved means the runs of one side disagree among themselves by
	// more than the bound, so no shift that size could be told from noise.
	Unresolved Verdict = "unresolved"
)

// Row is one line of the comparison.
type Row struct {
	Workload, Metric, Unit string
	Old, New               float64 // medians
	NOld, NNew             int     // runs behind them
	// Change is the relative shift of the median, signed so that positive
	// is better. Spread is the wider side's interquartile distance as a
	// share of its median, 0 when neither side has two runs.
	Change, Spread, Bound float64
	Verdict               Verdict
}

// Comparison is every row plus the failure counts.
type Comparison struct {
	Rows []Row
	// FailedRise lists workloads whose share of failed operations rose.
	FailedRise []string
}

// Regressed reports whether the comparison should fail a change.
func (c *Comparison) Regressed() bool {
	if len(c.FailedRise) > 0 {
		return true
	}
	for _, r := range c.Rows {
		if r.Verdict == Worse {
			return true
		}
	}
	return false
}

// values collects a metric's value from every untraced run of a workload
// whose timings count.
func values(f *File, workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced || r.Void != "" {
			continue
		}
		if s, ok := r.Metrics[metric]; ok {
			out = append(out, s.Value)
		}
	}
	return out
}

func failedShare(f *File, workload string) (share float64, runs int) {
	attempted, failed := 0, 0
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			attempted += r.Attempted
			failed += r.Failed
			runs++
		}
	}
	if attempted == 0 {
		return 0, runs
	}
	return float64(failed) / float64(attempted), runs
}

// Compare judges new against old, one row per workload and end-to-end
// metric that both files hold.
func Compare(spec *Spec, old, new *File) *Comparison {
	c := &Comparison{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ov, nv := values(old, w.Name, m.Name), values(new, w.Name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			row := Row{Workload: w.Name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound,
				NOld: len(ov), NNew: len(nv)}
			if s, ok := Spread(ov); ok {
				row.Spread = s
			}
			if s, ok := Spread(nv); ok && s > row.Spread {
				row.Spread = s
			}
			row.Old, row.New = Median(ov), Median(nv)
			if row.Old != 0 {
				row.Change = (row.New - row.Old) / row.Old
				if m.Better == "lower" {
					row.Change = -row.Change
				}
			}
			switch {
			case row.Spread > m.Bound:
				row.Verdict = Unresolved
			case row.Change < -m.Bound:
				row.Verdict = Worse
			case row.Change > m.Bound && row.Change > row.Spread:
				row.Verdict = Better
			default:
				row.Verdict = Within
			}
			c.Rows = append(c.Rows, row)
		}
		oldShare, oldRuns := failedShare(old, w.Name)
		newShare, newRuns := failedShare(new, w.Name)
		if oldRuns > 0 && newRuns > 0 && newShare > oldShare {
			c.FailedRise = append(c.FailedRise,
				fmt.Sprintf("%s: failed share rose from %.4g to %.4g", w.Name, oldShare, newShare))
		}
	}
	sort.SliceStable(c.Rows, func(i, j int) bool { return c.Rows[i].Workload < c.Rows[j].Workload })
	return c
}

// Print writes the comparison as a table. A shift smaller than the spread
// of the runs is printed as "< spread", never as a percentage of its own:
// the runs cannot tell it from nothing.
func (c *Comparison) Print(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tchange\tspread\tbound\tverdict")
	for _, r := range c.Rows {
		change := fmt.Sprintf("%+.1f%%", 100*r.Change)
		if math.Abs(r.Change) < r.Spread {
			change = fmt.Sprintf("< %.1f%%", 100*r.Spread)
		}
		spread := fmt.Sprintf("%.1f%%", 100*r.Spread)
		if r.NOld < 2 && r.NNew < 2 {
			spread = "n=1"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%s\t%s\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Old, r.New, r.Unit, change, spread, 100*r.Bound, r.Verdict)
	}
	tw.Flush()
	for _, s := range c.FailedRise {
		fmt.Fprintln(w, "FAILED:", s)
	}
}
