// Command mcload is the repository's benchmark. It builds mcgate, mcqueue
// and mcworker, boots a fresh process tree per workload — one gateway, two
// journaled shards, one worker per shard, on free loopback ports — drives
// it over HTTP through the gateway only, checks every answer, and prints
// each metric by name with its unit.
//
// Run as the whole suite:
//
//	go run ./cmd/mcload -seed 1 -out out/results.json        (from bench/)
//
// every workload is measured untraced (-runs times) for the end-to-end
// metrics, then once traced for the per-layer metrics. Two results files
// compare with cmd/benchcmp.
//
// Run as one measurement, the form BENCHMARK.json's command takes:
//
//	bash bench/run.sh --workload small-fresh --seed 3 --seconds 20 --trace 0
//
// the last line of standard output is then one JSON object with the
// verdict and the metrics BENCHMARK.json declares (end-to-end for
// --trace 0, per-layer for --trace 1).
//
// It claims no gain; it is the instrument later claims are measured with.
// bench/README.md defines every workload and metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench/proctree"
	"repro/bench/report"
	"repro/bench/workload"
)

// options are the command's flags.
type options struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       int
	only        string
	runs        int
	noTrace     bool
	out         string
	workerFlags string
	root        string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "measure this one workload and end with the JSON result line")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same requests")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed part (0: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&o.only, "only", "", "suite: comma-separated workloads to run (default all)")
	flag.IntVar(&o.runs, "runs", 1, "suite: untraced runs per workload, each with the next seed")
	flag.BoolVar(&o.noTrace, "no-trace", false, "suite: skip the traced run")
	flag.StringVar(&o.out, "out", "", "suite: write the results file here")
	flag.StringVar(&o.workerFlags, "worker-flags", "", "extra mcworker flags, space-separated (the sensitivity self-check passes '-slowdown 0.1')")
	flag.StringVar(&o.root, "root", "", "repository root (default: found from the working directory)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "mcload:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	spec, err := report.LoadSpec(root)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	// SIGINT or SIGTERM cancels the run; every path out of a run stops its
	// tree, so no daemon is orphaned.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	work := filepath.Join(root, ".bench_build")
	e := &env{
		root: root, binDir: filepath.Join(work, "bin"), runParent: filepath.Join(work, "run"),
		outDir: filepath.Join(root, "bench", "out"), workerFlags: strings.Fields(o.workerFlags),
	}
	built, err := proctree.Build(ctx, root, e.binDir)
	if err != nil {
		return err
	}
	e.buildS = built.Seconds()

	if o.workload != "" {
		return e.driver(ctx, spec, o)
	}
	return e.suite(ctx, o)
}

// findRoot returns the repository root: the directory that holds
// BENCHMARK.json and the go.mod of module repro.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		mod, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(mod)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro above the working directory; pass -root")
		}
		dir = parent
	}
}

func newRun(name string, seed uint64, seconds float64, traced bool) *report.Run {
	r := &report.Run{Workload: name, Seed: seed, Seconds: seconds, Traced: traced}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			r.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	r.NoisyHost = r.Load1 > 0.5*float64(runtime.NumCPU())
	return r
}

// driver is the single measurement BENCHMARK.json's command makes.
func (e *env) driver(ctx context.Context, spec *report.Spec, o options) error {
	// One run must end well inside the driver's 180 s.
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	var r *report.Run
	var err error
	declared := spec.EndToEnd
	if o.trace == 1 {
		declared = spec.PerLayer
		r, err = e.runTraced(ctx, o.workload, o.seed, o.seconds)
	} else {
		r, err = e.runUntraced(ctx, o.workload, o.seed, o.seconds)
	}
	if err != nil {
		return err
	}
	printRun(r)
	metrics := report.Metrics{}
	for _, d := range declared {
		s, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %s, which this run did not measure", d.Name)
		}
		metrics[d.Name] = report.Sample{Value: s.Value, Unit: s.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   report.Metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, r.Failed, r.Attempted)
	}
	// A late generator voids the timings, not the outputs: the result line
	// stands, the run-to-run spread shows the outlier, and a host stall
	// does not read as a failure of the programs.
	if r.Void != "" {
		fmt.Fprintln(os.Stderr, "mcload: warning:", r.Void)
	}
	return nil
}

// suite runs every workload and writes the results file.
func (e *env) suite(ctx context.Context, o options) error {
	names := workload.Names
	if o.only != "" {
		names = strings.Split(o.only, ",")
	}
	e.ladderStep = 8 * o.seconds / 30
	file := &report.File{
		Host: fingerprint(), Commit: commit(e.root), Started: time.Now().UTC(),
		WorkerFlags: o.workerFlags, BuildS: e.buildS,
	}
	fmt.Printf("host: %s, %d CPUs, GOMAXPROCS %d, %s, kernel %s, commit %s\n",
		file.Host.CPU, file.Host.NumCPU, file.Host.GOMAXPROCS, file.Host.GoVersion, file.Host.Kernel, file.Commit)
	fmt.Printf("build_s %.3f s\n", e.buildS)
	bad := 0
	record := func(r *report.Run) {
		printRun(r)
		file.Runs = append(file.Runs, *r)
		if !r.Correct || r.Void != "" {
			bad++
		}
	}
	for _, name := range names {
		for i := 0; i < o.runs; i++ {
			r, err := e.runUntraced(ctx, name, o.seed+uint64(i), o.seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			record(r)
		}
		if o.noTrace {
			continue
		}
		r, err := e.runTraced(ctx, name, o.seed, o.seconds)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", name, err)
		}
		record(r)
	}
	if o.out != "" {
		if err := file.Write(o.out); err != nil {
			return err
		}
		fmt.Println("wrote", o.out)
	}
	if bad > 0 {
		return fmt.Errorf("%d runs were incorrect or void", bad)
	}
	return nil
}

func printRun(r *report.Run) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("\n== %s  seed %d  %g s  %s ==\n", r.Workload, r.Seed, r.Seconds, kind)
	fmt.Printf("   %s\n", workload.Why[r.Workload])
	if r.NoisyHost {
		fmt.Printf("   noisy_host: load average %.2f before the run\n", r.Load1)
	}
	printMetrics(r.Metrics)
	if len(r.Diagnostics) > 0 {
		fmt.Println("   diagnostics:")
		printMetrics(r.Diagnostics)
	}
	fmt.Printf("   attempted %d  failed %d  correct %v  %s\n", r.Attempted, r.Failed, r.Correct, r.Void)
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
}

func printMetrics(m report.Metrics) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := m[name]
		n := ""
		if s.N > 0 {
			n = fmt.Sprintf("  (n=%d)", s.N)
		}
		fmt.Printf("   %-34s %14.6g %-6s%s\n", name, s.Value, s.Unit, n)
	}
}

func fingerprint() report.Host {
	h := report.Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(data))
	}
	return h
}

// commit names the checked-out commit, or "unknown" outside a git clone
// (the driver's checkouts are not repositories).
func commit(root string) string {
	cmd := exec.Command("git", "describe", "--always", "--dirty")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
