package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/bench/load"
	"repro/bench/proctree"
	"repro/bench/report"
	"repro/bench/workload"
)

// setups is how many times an untraced run sets the tree up: setup_s is
// their median, the last tree is the one measured.
const setups = 5

// env is what every run shares.
type env struct {
	root        string // repository root
	binDir      string
	runParent   string // per-run directories are made here
	outDir      string // trace files
	workerFlags []string
	buildS      float64
	// ladderStep, when positive, makes the traced small-fresh run walk the
	// rate ladder with steps of that many seconds.
	ladderStep float64
}

// bed is one booted tree with its client and warm-up outcome.
type bed struct {
	dir    string
	tree   *proctree.Tree
	client *load.Client
	warm   *load.Outcome
	idleMS float64
	setupS float64
}

// close stops the tree and removes its directory; closing twice is fine.
func (b *bed) close() {
	if b == nil {
		return
	}
	b.client.Close()
	b.tree.Stop()
	os.RemoveAll(b.dir)
}

// idleGap is the pause before each isolated job a traced run's set-up
// sends to find the fleet's idle floor: long enough for the workers to fall
// back into their idle poll, and off the 10 ms and 50 ms grids the pollers
// run on.
const idleGap = 127 * time.Millisecond

// setUp boots a fresh tree for w and warms it up. The returned bed's
// setupS runs from the first spawn to the end of the warm-up. With idle
// set it then sends the isolated jobs whose median latency is the idle
// floor (outside setupS: an untraced run never pays for them).
func (e *env) setUp(ctx context.Context, w *workload.Workload, idle bool) (*bed, error) {
	if err := os.MkdirAll(e.runParent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.runParent, w.Name+"-")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tree, err := proctree.Start(ctx, proctree.Config{
		BinDir: e.binDir, RunDir: dir, Shards: workload.Shards,
		GateFlags: w.GateFlags, QueueFlags: w.QueueFlags, WorkerFlags: e.workerFlags,
		TenantsJSON: w.TenantsJSON,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &bed{dir: dir, tree: tree, client: load.NewClient(tree.Gateway)}
	opt := load.Options{Closed: true, Outstanding: w.WarmOutstanding, Timeout: opTimeout(w)}
	b.warm = b.client.Run(ctx, w.WarmUp, opt)
	if chk := load.Check(b.warm, nil, nil); chk.Failed > 0 {
		err = fmt.Errorf("warm-up: %d of %d requests failed: %v", chk.Failed, len(w.WarmUp), chk.Failures)
	}
	b.setupS = time.Since(start).Seconds()
	if err == nil && idle {
		var lat []float64
		opt.Outstanding = 1
		for _, op := range w.Idle {
			time.Sleep(idleGap)
			one := b.client.Run(ctx, []workload.Op{op}, opt)
			if chk := load.Check(one, nil, nil); chk.Failed > 0 {
				err = fmt.Errorf("warm-up: an isolated job failed: %v", chk.Failures)
				break
			}
			lat = append(lat, ms(one.Records[0].Done.Sub(one.Records[0].Due)))
		}
		b.idleMS = report.Median(lat)
	}
	if err != nil {
		err = fmt.Errorf("%w\n%s", err, tree.LogTails(15))
		b.close()
		return nil, err
	}
	return b, nil
}

func opTimeout(w *workload.Workload) time.Duration {
	return 30*time.Second + time.Duration(2*w.Seconds*float64(time.Second))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pass is one timed play of a schedule with its verdict and what the tree
// consumed meanwhile.
type pass struct {
	w       *workload.Workload
	out     *load.Outcome
	chk     *load.Checked
	wall    float64 // seconds, first due to last outcome
	cpu     map[string]float64
	selfCPU float64
	rss     map[string]float64
	scrape  proctree.Scrape // delta over the pass; nil unless traced
}

// treeCPU is the CPU time of all five daemons over the pass, in seconds.
func (p *pass) treeCPU() float64 {
	sum := 0.0
	for _, c := range p.cpu {
		sum += c
	}
	return sum
}

// play runs w's timed schedule on b. Scrapes and spans are taken only
// when traced: an untraced pass does nothing but submit and poll. meter,
// which may be nil, is stopped the moment the schedule has been played, so
// that it does not sample the output check.
func (e *env) play(ctx context.Context, b *bed, w *workload.Workload, traced bool, meter *speedometer) (*pass, error) {
	p := &pass{w: w, cpu: map[string]float64{}, rss: map[string]float64{}}
	var before proctree.Scrape
	var err error
	if traced {
		if before, err = b.tree.Scrape(); err != nil {
			return nil, err
		}
	}
	use0, err := b.tree.Usage()
	if err != nil {
		return nil, err
	}
	self0, err := proctree.SelfCPU()
	if err != nil {
		return nil, err
	}
	p.out = b.client.Run(ctx, w.Timed, load.Options{
		Closed: w.Closed, Outstanding: w.Outstanding, Timeout: opTimeout(w),
		Trace: traced,
	})
	meter.Stop()
	if dead := b.tree.Dead(); dead != "" {
		return nil, fmt.Errorf("%s died during the timed part\n%s", dead, b.tree.LogTails(15))
	}
	use1, err := b.tree.Usage()
	if err != nil {
		return nil, err
	}
	self1, err := proctree.SelfCPU()
	if err != nil {
		return nil, err
	}
	if traced {
		after, err := b.tree.Scrape()
		if err != nil {
			return nil, err
		}
		p.scrape = after.Sub(before)
	}
	for role, u := range use1 {
		p.cpu[role] = u.CPU - use0[role].CPU
		p.rss[role] = u.RSSMB
	}
	p.selfCPU = self1 - self0
	p.wall = p.out.End.Sub(p.out.Start).Seconds()
	// The output check recomputes a sample in this process: of the timed
	// jobs, or where those are too big, all of the warm-up.
	if w.RecomputeWarmUp {
		all := make([]int, len(w.WarmUp))
		for i := range all {
			all[i] = i
		}
		if chk := load.Check(b.warm, nil, all); chk.Failed > 0 {
			return nil, fmt.Errorf("warm-up results differ from the in-process run: %v", chk.Failures)
		}
		p.chk = load.Check(p.out, b.warm, nil)
		p.chk.Recomputed = len(all)
	} else {
		p.chk = load.Check(p.out, b.warm, load.Sample(w.Timed, 8, 20000))
	}
	return p, nil
}

// endToEnd reduces a pass to the end-to-end metrics. speed is the host's
// speed during the run as a share of the reference speed (hostspeed.go): a
// closed loop's rates and times are reported as they would read at the
// reference speed, with the raw readings among the diagnostics. An open
// loop's, which arrival schedule and poll timers set, are passed with speed
// 1 and reported as measured.
func endToEnd(p *pass, setupS, speed float64) (report.Metrics, report.Metrics) {
	m, diag := report.Metrics{}, report.Metrics{}
	var s2r, ack []float64
	var photons int64
	completed, valid, within := 0, 0, 0
	for i := range p.out.Records {
		r := &p.out.Records[i]
		if r.Status != 0 {
			ack = append(ack, ms(r.Acked.Sub(r.Due)))
		}
		if r.Op.Class == workload.ClassInvalid || p.chk.Shed[i] {
			continue // refused as the schedule said: neither a result nor a miss
		}
		valid++
		if !p.chk.OK[i] {
			continue
		}
		completed++
		photons += r.Op.Photons
		lat := ms(r.Done.Sub(r.Due))
		s2r = append(s2r, lat)
		if lat <= p.w.LimitMS {
			within++
		}
	}
	sort.Float64s(s2r)
	sort.Float64s(ack)
	raw := func(name string, v float64, unit string, n int) {
		if p.w.Closed {
			diag.Set("raw."+name, v, unit, n)
		}
	}
	rate := func(name string, perS float64, n int) {
		m.Set(name, perS/speed, "1/s", n)
		raw(name, perS, "1/s", n)
	}
	span := func(name string, d float64, unit string, n int) {
		m.Set(name, d*speed, unit, n)
		raw(name, d, unit, n)
	}
	span("setup_s", setupS, "s", 0)
	rate("photons_per_s", float64(photons)/p.wall, completed)
	rate("jobs_per_s", float64(completed)/p.wall, completed)
	span("submit_to_result_p50_ms", report.Percentile(s2r, 50), "ms", len(s2r))
	span("submit_to_result_p90_ms", report.Percentile(s2r, 90), "ms", len(s2r))
	// The acknowledgement latency is a diagnostic, not a bounded metric: on
	// the closed loops, whose workers keep both CPUs busy, its run-to-run
	// spread is 12–31 % (bench/README.md, calibration record).
	diag.Set("submit_ack_p50_ms", report.Percentile(ack, 50), "ms", len(ack))
	diag.Set("submit_ack_p90_ms", report.Percentile(ack, 90), "ms", len(ack))
	share := 0.0
	if valid > 0 {
		share = float64(within) / float64(valid)
	}
	m.Set("within_limit_share", share, "ratio", valid)
	// The tree's CPU time is a diagnostic here and a per-layer metric of the
	// traced run, not a bounded metric: on the open loops, whose daemons wake
	// thousands of times from idle, it follows the host and spread by 17 %
	// and 26 % over the driver's two sets of ten runs (bench/README.md,
	// calibration record).
	diag.Set("tree_cpu_s", p.treeCPU(), "s", 0)
	for role, cpu := range p.cpu {
		diag.Set("proc."+role+".cpu_s", cpu, "s", 0)
	}
	// p99 only where at least ten samples lie beyond it.
	if len(s2r) >= 1000 {
		diag.Set("submit_to_result_p99_ms", report.Percentile(s2r, 99), "ms", len(s2r))
		diag.Set("submit_ack_p99_ms", report.Percentile(ack, 99), "ms", len(ack))
	}
	diag.Set("timed_wall_s", p.wall, "s", 0)
	diag.Set("limit_ms", p.w.LimitMS, "ms", 0)
	return m, diag
}

// schedLagP90 is how late the generator sent, in milliseconds.
func schedLagP90(out *load.Outcome) (float64, int) {
	var lag []float64
	for i := range out.Records {
		if r := &out.Records[i]; !r.Sent.IsZero() {
			lag = append(lag, ms(r.Sent.Sub(r.Due)))
		}
	}
	sort.Float64s(lag)
	return report.Percentile(lag, 90), len(lag)
}

// maxSchedLagMS voids an open-loop run: beyond it the generator, not the
// system, set the latencies. A closed loop has no schedule to be late for
// (a request is due when a slot frees); its lag is reported all the same.
const maxSchedLagMS = 2.0

// finish fills the verdict fields of a run from its pass. Correct speaks of
// the programs' outputs only; Void of the measurement.
func finish(run *report.Run, p *pass) {
	run.Attempted, run.Failed, run.Failures = len(p.out.Records), p.chk.Failed, p.chk.Failures
	run.Correct = p.chk.Failed == 0
	if lag, _ := schedLagP90(p.out); !p.w.Closed && lag > maxSchedLagMS {
		run.Void = fmt.Sprintf("schedule lag p90 %.2f ms exceeds %.0f ms: the generator ran late", lag, maxSchedLagMS)
	}
}

// runUntraced measures the end-to-end metrics of one workload.
func (e *env) runUntraced(ctx context.Context, name string, seed uint64, seconds float64) (*report.Run, error) {
	w, err := workload.Generate(name, seed, seconds, 0)
	if err != nil {
		return nil, err
	}
	run := newRun(name, seed, seconds, false)
	var meter *speedometer
	if w.Closed {
		meter = startSpeedometer()
		defer meter.Stop()
	}
	var b *bed
	var took []float64
	for i := 0; i < setups; i++ {
		b.close() // all but the last tree exist only to time their set-up
		if b, err = e.setUp(ctx, w, false); err != nil {
			return nil, err
		}
		took = append(took, b.setupS)
	}
	defer b.close()
	p, err := e.play(ctx, b, w, false, meter)
	if err != nil {
		return nil, err
	}
	speed, samples := meter.Stop()
	run.Metrics, run.Diagnostics = endToEnd(p, report.Median(took), speed)
	if w.Closed {
		run.Diagnostics.Set("host_speed", speed, "ratio", samples)
	}
	lag, n := schedLagP90(p.out)
	run.Diagnostics.Set("mcload.schedule_lag_p90_ms", lag, "ms", n)
	run.Diagnostics.Set("recomputed_jobs", float64(p.chk.Recomputed), "count", 0)
	run.Diagnostics.Set("late_dups", float64(p.chk.LateDups), "count", 0)
	finish(run, p)
	return run, nil
}

// runTraced measures the per-layer metrics of one workload: an untraced
// reference pass and a traced pass, each a third of the run length and
// each on a fresh tree (a second pass on a used tree finds bigger caches,
// journals and heaps, which would pass for tracing overhead); then the
// layer probes on the workload's own inputs.
func (e *env) runTraced(ctx context.Context, name string, seed uint64, seconds float64) (*report.Run, error) {
	third := seconds / 3
	ref, err := workload.Generate(name, seed, third, 1)
	if err != nil {
		return nil, err
	}
	w, err := workload.Generate(name, seed, third, 2)
	if err != nil {
		return nil, err
	}
	run := newRun(name, seed, seconds, true)
	b, err := e.setUp(ctx, ref, false)
	if err != nil {
		return nil, err
	}
	refPass, err := e.play(ctx, b, ref, false, nil)
	b.close()
	if err != nil {
		return nil, err
	}
	if refPass.chk.Failed > 0 {
		return nil, fmt.Errorf("reference pass: %d requests failed: %v", refPass.chk.Failed, refPass.chk.Failures)
	}
	if b, err = e.setUp(ctx, w, true); err != nil {
		return nil, err
	}
	defer b.close()
	p, err := e.play(ctx, b, w, true, nil)
	if err != nil {
		return nil, err
	}
	finish(run, p)
	run.Diagnostics = report.Metrics{}
	if e.ladderStep > 0 && name == workload.SmallFresh {
		if err := e.ladder(ctx, b, seed, run.Diagnostics); err != nil {
			return nil, err
		}
	}
	b.close() // the probes measure with the tree gone
	spans, err := writeTrace(filepath.Join(e.outDir, "trace-"+name+".jsonl"), p)
	if err != nil {
		return nil, err
	}
	if run.Metrics, err = e.perLayer(p, refPass, b.idleMS, spans); err != nil {
		return nil, err
	}
	return run, nil
}

// ladder walks small-fresh over three arrival rates and reports, per step,
// the p90 and whether the backlog grew; then the highest rate that met the
// limit with a steady backlog.
func (e *env) ladder(ctx context.Context, b *bed, seed uint64, diag report.Metrics) error {
	best := 0.0
	for step, rate := range []float64{30, 60, 120} {
		w, err := workload.Ladder(seed, e.ladderStep, rate, step)
		if err != nil {
			return err
		}
		p, err := e.play(ctx, b, w, false, nil)
		if err != nil {
			return err
		}
		var lat []float64
		for i := range p.out.Records {
			if p.chk.OK[i] {
				lat = append(lat, ms(p.out.Records[i].Done.Sub(p.out.Records[i].Due)))
			}
		}
		// Records are in due order: a backlog that grows shows as the last
		// third's median latency pulling away from the first third's.
		third := len(lat) / 3
		growing := 0.0
		if third > 0 && report.Median(append([]float64(nil), lat[len(lat)-third:]...)) >
			2*report.Median(append([]float64(nil), lat[:third]...)) {
			growing = 1
		}
		sort.Float64s(lat)
		p90 := report.Percentile(lat, 90)
		diag.Set(fmt.Sprintf("ladder.%g_per_s.p90_ms", rate), p90, "ms", len(lat))
		diag.Set(fmt.Sprintf("ladder.%g_per_s.backlog_growing", rate), growing, "count", 0)
		if p.chk.Failed == 0 && growing == 0 && p90 <= w.LimitMS {
			best = rate
		}
	}
	diag.Set("ladder.highest_rate_within_limit", best, "1/s", 0)
	return nil
}
