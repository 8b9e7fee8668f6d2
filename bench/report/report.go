// Package report holds what the benchmark's two commands share: the
// BENCHMARK.json contract, the results file mcload writes, the order
// statistics both are reduced with, and the comparison benchcmp prints.
package report

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse; per-layer metrics
// have none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads BENCHMARK.json from the repository root.
func LoadSpec(root string) (*Spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// Sample is one reported metric. N is the number of observations behind
// the value, where it has any (latency percentiles, probe repetitions).
type Sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// Metrics maps metric name to its sample.
type Metrics map[string]Sample

// Set records a metric.
func (m Metrics) Set(name string, value float64, unit string, n int) {
	m[name] = Sample{Value: value, Unit: unit, N: n}
}

// Run is the outcome of one workload run.
type Run struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Correct is false when any request ended other than the generator
	// said it must or any output check failed. Void, when set, says why
	// the run's timings do not count although its outputs may be correct:
	// the generator itself ran late.
	Correct   bool     `json:"correct"`
	Void      string   `json:"void,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Load1 is the host's one-minute load average just before the run;
	// NoisyHost flags it above half the CPU count.
	Load1     float64 `json:"load1"`
	NoisyHost bool    `json:"noisy_host,omitempty"`
	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one; Diagnostics whatever else the run
	// printed (unbounded percentiles, the rate ladder).
	Metrics     Metrics `json:"metrics"`
	Diagnostics Metrics `json:"diagnostics,omitempty"`
}

// Host fingerprints the machine a results file came from.
type Host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
}

// File is results.json.
type File struct {
	Host    Host      `json:"host"`
	Commit  string    `json:"commit"`
	Started time.Time `json:"started"`
	// Claim is always null: the benchmark reports, it does not claim.
	Claim       *string `json:"claim"`
	WorkerFlags string  `json:"worker_flags,omitempty"`
	BuildS      float64 `json:"build_s"`
	Runs        []Run   `json:"runs"`
}

// ReadFiles loads one side of a comparison: a comma-separated list of
// results files whose runs are pooled, so that the two sides' sessions can
// alternate in time and share whatever the host did meanwhile. Host and
// commit are the first file's.
func ReadFiles(paths string) (*File, error) {
	var pooled *File
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if pooled == nil {
			pooled = &f
		} else {
			pooled.Runs = append(pooled.Runs, f.Runs...)
		}
	}
	return pooled, nil
}

// Write stores the file as indented JSON.
func (f *File) Write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of sorted values,
// interpolating linearly between the two closest ranks, or 0 for no values.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := min(max(int(pos), 0), len(sorted)-1)
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// Median returns the median of values (which it sorts), or 0 for none.
func Median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	mid := len(values) / 2
	if len(values)%2 == 1 {
		return values[mid]
	}
	return (values[mid-1] + values[mid]) / 2
}

// Quartiles returns the first and third quartile of values the way
// Python's statistics.quantiles(values, n=4) does, which is how the driver
// measures spread. It needs two values or more.
func Quartiles(values []float64) (q1, q3 float64, ok bool) {
	ld := len(values)
	if ld < 2 {
		return 0, 0, false
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	at := func(i int) float64 {
		j := min(max(i*(ld+1)/4, 1), ld-1)
		delta := i*(ld+1) - j*4 // after the clamp, as Python computes it
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return at(1), at(3), true
}

// Spread is the interquartile distance as a share of the median; ok is
// false below two values or for a zero median.
func Spread(values []float64) (spread float64, ok bool) {
	q1, q3, ok := Quartiles(values)
	med := Median(append([]float64(nil), values...))
	if !ok || med == 0 {
		return 0, false
	}
	return math.Abs((q3 - q1) / med), true
}
