package distsys

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/voxel"
)

// DefaultFlushChunks is the default request window: the most chunks a
// worker asks for in one TaskRequest, and so the most one batch covers.
const DefaultFlushChunks = 8

// WorkerOptions configure one client. The zero value plus a transport is a
// dedicated, reliable worker with default batching.
type WorkerOptions struct {
	// Name identifies the worker to the server; generated if empty.
	Name string
	// Mflops is the self-reported processing rate (informational).
	Mflops float64
	// Slowdown stretches compute time by sleeping Slowdown×(compute time)
	// after each chunk, on the kernel that computed it, emulating a slower
	// or non-dedicated machine.
	Slowdown float64
	// FailAfterChunks, if positive, makes the worker drop its connection
	// after computing (and flushing) that many chunks — deterministic
	// fault-injection for tests; the grant that reaches the budget is cut
	// to it before it starts. Losing an *unflushed* buffer is the
	// abrupt-transport-death case, covered by closing the connection.
	FailAfterChunks int
	// Stop, when non-nil and closed, requests a graceful drain: the worker
	// starts no further chunk, finishes those it is computing, flushes what
	// it has computed of its grant — always a prefix of it — so those
	// results are not abandoned to timeout reclaim, and returns nil; a
	// worker idle with its request parked on the server returns at once.
	// The daemon's SIGTERM handler closes it.
	Stop <-chan struct{}
	// DrainAfterChunks, if positive, triggers the same graceful drain
	// after computing that many chunks — the deterministic test form of
	// Stop (compare FailAfterChunks, which drops the connection instead).
	DrainAfterChunks int
	// FlushChunks is the request window: the most chunks asked for in one
	// request, computed, pre-reduced into one batch and handed back on the
	// next. 0 means DefaultFlushChunks; 1 is one chunk per round trip, which
	// makes a lone worker's reduction order deterministic.
	FlushChunks int
	// Obs receives the worker-loop metrics (photons simulated, chunk
	// compute-time histogram, batch flushes, wire frame/byte counters);
	// nil instruments into a private registry.
	Obs *obs.Registry
	// Ready, if set, has its "session" condition raised once the server's
	// welcome lands and lowered when the session ends — the worker
	// daemon's readiness probe.
	Ready *obs.Readiness
	// Logger, if set, receives structured progress logging (nil discards).
	Logger *slog.Logger
}

// Telemetry cadence: a WorkerReport rides at most one TaskRequest per
// reportInterval (the EWMAs change slowly, so more would be wire cost for
// no information), and the runtime stats inside it refresh at most once
// per runtimeInterval (runtime.ReadMemStats stops the world briefly).
const (
	reportInterval  = 250 * time.Millisecond
	runtimeInterval = time.Second
)

// workerTelemetry accumulates the session's self-measured profile: EWMAs
// of kernel throughput and per-chunk compute/encode time (same 0.7/0.3
// blend the server uses for its ack-timing chunkSecs), plus rate-limited
// Go runtime stats. Only the session loop touches it.
type workerTelemetry struct {
	pps         float64 // photons per second of grant wall time, EWMA
	chunkSecs   float64 // per-chunk compute seconds, EWMA
	encodeSecs  float64 // per-flush batch encode seconds, EWMA
	lastReport  time.Time
	lastRuntime time.Time
	goroutines  int
	heapBytes   uint64
}

// ewma blends a new sample into the running average, seeding on first use.
func ewma(cur, sample float64) float64 {
	if cur == 0 {
		return sample
	}
	return 0.7*cur + 0.3*sample
}

// grant folds one computed grant into the EWMAs. Throughput is the grant's
// photons over its wall time: its chunks ran side by side, so a per-chunk
// rate would read a two-core worker at half its speed. chunkSecs stays per
// chunk, the unit the server's timeout envelope divides by.
func (t *workerTelemetry) grant(photons int64, wall time.Duration, runs []chunkRun) {
	if secs := wall.Seconds(); secs > 0 && photons > 0 {
		t.pps = ewma(t.pps, float64(photons)/secs)
	}
	for _, run := range runs {
		if secs := run.elapsed.Seconds(); secs > 0 {
			t.chunkSecs = ewma(t.chunkSecs, secs)
		}
	}
}

// maybeReport returns the report to piggyback on the next TaskRequest, or
// nil when one rode the wire less than reportInterval ago.
func (t *workerTelemetry) maybeReport() *protocol.WorkerReport {
	now := time.Now()
	if !t.lastReport.IsZero() && now.Sub(t.lastReport) < reportInterval {
		return nil
	}
	t.lastReport = now
	if t.lastRuntime.IsZero() || now.Sub(t.lastRuntime) >= runtimeInterval {
		t.lastRuntime = now
		t.goroutines = runtime.NumGoroutine()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		t.heapBytes = ms.HeapAlloc
	}
	return &protocol.WorkerReport{
		PhotonsPerSec: t.pps,
		ChunkSecs:     t.chunkSecs,
		EncodeSecs:    t.encodeSecs,
		Goroutines:    t.goroutines,
		HeapBytes:     t.heapBytes,
		Version:       obs.Version,
	}
}

// workerMetrics is the worker loop's pre-resolved instrument set.
// Registration is idempotent, so sessions sharing one registry —
// sequential or concurrent — accumulate into the same monotonic series.
type workerMetrics struct {
	photons *obs.Counter
	chunks  *obs.Counter
	// The kernel's event counters, one pre-resolved child per fixed kind:
	// events/photon turns ns/photon into ns/event, and query against
	// scatter+crossing is the share of events the transport loop's
	// clear-radius cache did not serve.
	scatter, query, crossing, roulette *obs.Counter
	// A voxel descriptor's grid was new to the session, or Equal to a held one.
	geomBuilds, geomShared *obs.Counter

	chunkSec *obs.Histogram
	flushes  *obs.Counter
	rejected *obs.Counter
	conn     *protocol.ConnMetrics
}

func newWorkerMetrics(reg *obs.Registry) *workerMetrics {
	events := reg.CounterVec("worker_kernel_events_total",
		"Transport-loop events by kind: scattering interactions, geometry boundary queries, boundary crossings resolved, roulette terminations.",
		"kind")
	return &workerMetrics{
		photons: reg.Counter("worker_photons_total",
			"Photons simulated by this worker."),
		scatter:  events.With("scatter"),
		query:    events.With("query"),
		crossing: events.With("crossing"),
		roulette: events.With("roulette"),
		geomBuilds: reg.Counter("worker_geometry_builds_total",
			"Voxel job descriptors whose grid no cached job of the session held: this worker builds its traversal accelerator."),
		geomShared: reg.Counter("worker_geometry_shared_total",
			"Voxel job descriptors whose grid equalled a cached job's and took its place: labels and accelerator are shared, nothing is built."),
		chunks: reg.Counter("worker_chunks_computed_total",
			"Chunks computed (whether or not their results were later accepted)."),
		chunkSec: reg.Histogram("worker_chunk_seconds",
			"Per-chunk compute time.", obs.DefBuckets),
		flushes: reg.Counter("worker_batches_flushed_total",
			"Result batches handed back on a task request."),
		rejected: reg.Counter("worker_results_rejected_total",
			"Results the server refused to reduce."),
		conn: protocol.NewConnMetrics(reg, "worker_conn"),
	}
}

// WorkerStats summarises a worker session.
type WorkerStats struct {
	// Chunks counts results the server accepted (including benign
	// duplicates); Photons covers the same set. Compute is accrued at
	// compute time and therefore also includes work whose results were
	// later rejected or lost with the connection; it sums every chunk's
	// compute time, so on several cores it can exceed the wall time.
	Chunks  int
	Photons int64
	Compute time.Duration
	// Batches counts result flushes; with pre-reduction it is ≤ Chunks.
	Batches int
	// Rejected counts results the server refused to reduce (stale or
	// mismatched assignments); the session continues after a rejection.
	Rejected int
}

// ErrInjectedFailure is returned by a worker that halted due to
// FailAfterChunks.
var ErrInjectedFailure = errors.New("distsys: worker failed by injection")

// jobRuntime caches one job's built config and its jump-state stream
// cache so a session can interleave chunks of many jobs without
// rebuilding or re-jumping (workers are job-agnostic; the server routes
// results by JobID).
type jobRuntime struct {
	runner *mc.Runner
	// grid is the job's voxel geometry (nil for a layered job), kept so a
	// later job on an Equal grid can run on this one.
	grid    *voxel.Grid
	seed    uint64
	streams int
	fan     int
	cache   *rng.StreamCache
}

// chunkRun is one computed chunk of a grant: its tally and compute time.
type chunkRun struct {
	tally   *mc.Tally
	elapsed time.Duration
	err     error
}

// compute runs a grant's chunks on up to min(GOMAXPROCS, len(grants)) of the
// job's kernels at once — one at a time for a fanned job, whose chunks
// already use every core — and returns those it ran, in grant order. Each
// kernel's goroutine claims the next chunk in grant order, and none is
// claimed once stop is closed, so the chunks run are always a prefix of the
// grant, every one of them finished. Single-stream chunks draw their
// generator from the per-job StreamCache (one Jump per new stream instead of
// O(stream) per chunk); fanned chunks derive their sub-streams from the
// chunk's FanSeed, which is O(fan) regardless. A non-positive stream count
// marks an open-ended (precision-targeted) job: the server issues chunk ids
// without a predetermined bound, so only the lower bound is checked.
func (rt *jobRuntime) compute(grants []protocol.ChunkGrant, slowdown float64, stop <-chan struct{}) ([]chunkRun, error) {
	gens := make([]*rng.Rand, len(grants))
	for i, g := range grants {
		if g.Stream < 0 || (rt.streams > 0 && g.Stream >= rt.streams) {
			return nil, fmt.Errorf("distsys: stream %d outside [0,%d)", g.Stream, rt.streams)
		}
		if rt.fan <= 1 {
			gens[i] = rt.cache.Stream(g.Stream)
		}
	}
	width := 1
	if rt.fan <= 1 {
		width = rt.runner.Kernels(len(grants))
	}
	runs := make([]chunkRun, len(grants))
	var mu sync.Mutex
	claimed := 0
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if claimed == len(grants) {
			return 0, false
		}
		select {
		case <-stop:
			return 0, false
		default:
		}
		claimed++
		return claimed - 1, true
	}
	work := func(w int) {
		for i, ok := claim(); ok; i, ok = claim() {
			g, run := grants[i], &runs[i]
			start := time.Now()
			if rt.fan > 1 {
				run.tally, run.err = rt.runner.RunFan(g.Photons, rt.seed, g.Stream, rt.streams, rt.fan)
			} else {
				run.tally = rt.runner.RunOn(w, g.Photons, gens[i])
			}
			run.elapsed = time.Since(start)
			if slowdown > 0 {
				time.Sleep(time.Duration(slowdown * float64(run.elapsed)))
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	runs = runs[:claimed]
	for _, run := range runs {
		if run.err != nil {
			return nil, run.err
		}
	}
	return runs, nil
}

// maxCachedJobs bounds the per-session descriptor cache (a built Config
// can hold a multi-megabyte voxel grid, and a long-lived service hands a
// worker an unbounded stream of jobs). Eviction is FIFO; because each
// TaskRequest advertises exactly the jobs still cached, the server
// re-sends a descriptor the worker has dropped.
const maxCachedJobs = 32

// resultBatch is the worker-side pre-reduction of one grant: the chunks of
// one job computed since the last request, their tallies merged into one.
type resultBatch struct {
	jobID   uint64
	chunks  []int
	photons []int64   // parallel to chunks, for ack-time accounting
	secs    []float64 // parallel to chunks, per-chunk compute time (telemetry)
	elapsed time.Duration
	tally   *mc.Tally
}

// add folds one chunk result of the grant's job into the buffer.
func (b *resultBatch) add(jobID uint64, chunkID int, photons int64, elapsed time.Duration, tally *mc.Tally) error {
	if len(b.chunks) == 0 {
		b.jobID, b.tally = jobID, tally
	} else if err := b.tally.Merge(tally); err != nil {
		return err
	}
	b.chunks = append(b.chunks, chunkID)
	b.photons = append(b.photons, photons)
	b.secs = append(b.secs, elapsed.Seconds())
	b.elapsed += elapsed
	return nil
}

// encode renders the buffer as a wire batch, writing the compact tally into
// a reusable arena buffer (returned for the next flush).
func (b *resultBatch) encode(arena []byte) (*protocol.ResultBatch, []byte) {
	arena = mc.AppendTally(arena[:0], b.tally)
	return &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
		JobID:     b.jobID,
		Chunks:    b.chunks,
		Elapsed:   b.elapsed,
		TallyData: arena,
		ChunkSecs: b.secs,
	}}}, arena
}

// Work connects a worker over the given transport and processes chunks —
// of as many concurrent jobs as the server cares to assign — until the
// server reports the service done. It returns session statistics.
//
// A grant's chunks are computed side by side, one per core (a fanned job's
// one at a time, each across its fan of sub-streams on every core), and
// pre-reduced in grant order into one batch — the same bytes on one core as
// on many — which rides the next TaskRequest: a worker's batch is its
// grant. A dropped connection loses only the grant in hand, which the
// server requeues.
func Work(rw io.ReadWriteCloser, opts WorkerOptions) (*WorkerStats, error) {
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	log := opts.Logger
	if opts.Name != "" {
		log = log.With("worker", opts.Name)
	}
	oreg := opts.Obs
	if oreg == nil {
		oreg = obs.NewRegistry()
	}
	met := newWorkerMetrics(oreg)
	if opts.FlushChunks <= 0 {
		opts.FlushChunks = DefaultFlushChunks
	}
	pc := protocol.NewConn(rw)
	pc.SetMetrics(met.conn)
	defer pc.Close()

	if err := pc.Send(&protocol.Message{Type: protocol.MsgHello, Hello: &protocol.Hello{
		Version: protocol.Version,
		Name:    opts.Name,
		Mflops:  opts.Mflops,
	}}); err != nil {
		return nil, err
	}
	welcome, err := pc.Recv()
	if err != nil {
		return nil, err
	}
	if welcome.Type == protocol.MsgError {
		return nil, fmt.Errorf("distsys: server rejected hello: %s", welcome.Error.Msg)
	}
	if welcome.Type != protocol.MsgWelcome || welcome.Welcome == nil {
		return nil, fmt.Errorf("distsys: expected welcome, got %v", welcome.Type)
	}
	if opts.Ready != nil {
		opts.Ready.Set("session", true)
		defer opts.Ready.Set("session", false)
	}
	log.Info("session established", "server", welcome.Welcome.ServerName)

	jobs := make(map[uint64]*jobRuntime)
	var known []uint64
	var arena []byte
	tel := &workerTelemetry{}
	batch := &resultBatch{}
	stats := &WorkerStats{}
	computed := 0

	// stopping reports whether a graceful drain was requested (Stop closed
	// or the DrainAfterChunks budget spent).
	stopping := func() bool {
		if opts.DrainAfterChunks > 0 && computed >= opts.DrainAfterChunks {
			return true
		}
		select {
		case <-opts.Stop:
			return true
		default:
			return false
		}
	}

	// exchange is the session's one round trip: a TaskRequest carrying
	// whatever has been computed and asking for up to want chunks, and the
	// reply, with the batch's acks applied.
	exchange := func(want int) (*protocol.Message, error) {
		req := &protocol.TaskRequest{KnownJobs: known, Want: want, Report: tel.maybeReport()}
		flushed := len(batch.chunks)
		if flushed > 0 {
			start := time.Now()
			req.Batch, arena = batch.encode(arena)
			tel.encodeSecs = ewma(tel.encodeSecs, time.Since(start).Seconds())
		}
		if err := pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest, Request: req}); err != nil {
			return nil, err
		}
		msg, err := pc.Recv()
		if err != nil {
			return nil, err
		}
		if msg.Type == protocol.MsgError {
			return nil, fmt.Errorf("distsys: server error: %s", msg.Error.Msg)
		}
		if flushed == 0 {
			return msg, nil
		}
		if msg.BatchAck == nil || len(msg.BatchAck.Acks) != flushed {
			return nil, fmt.Errorf("distsys: flush of %d chunks on %v reply lost its acks", flushed, msg.Type)
		}
		for i, a := range msg.BatchAck.Acks {
			if a.Rejected {
				stats.Rejected++
				met.rejected.Inc()
				log.Warn("result rejected", "job", fmt.Sprintf("%016x", a.JobID),
					"chunk", a.ChunkID, "reason", a.Reason)
				continue
			}
			stats.Chunks++
			stats.Photons += batch.photons[i]
		}
		stats.Batches++
		met.flushes.Inc()
		*batch = resultBatch{}
		return msg, nil
	}

	// drain hands back what is computed without asking for more — the way
	// out for a worker that is leaving, so nothing it computed waits for a
	// timeout reclaim. The server requeues the rest of the grant.
	drain := func() error {
		if len(batch.chunks) == 0 {
			return nil
		}
		_, err := exchange(0)
		return err
	}

	// A request sent empty-handed may be parked by the server: the reply
	// comes when there is work, or at the server's park limit, and a
	// goroutine blocked in Recv cannot see opts.Stop. So a watcher expires
	// the transport's read deadline if Stop closes during such a wait. The
	// loop below raises idle before it looks at Stop and lowers it after
	// the exchange: a wait is only ever cut short with nothing computed, so
	// the session ends there as a clean drain, and chunks the server granted
	// in that very moment are requeued when the connection closes. On a
	// transport without read deadlines the wait ends at the park limit.
	var idle atomic.Bool // an empty-handed request is (about to be) on the wire
	if opts.Stop != nil {
		done, exited := make(chan struct{}), make(chan struct{})
		defer func() { close(done); <-exited }()
		go func() {
			defer close(exited)
			select {
			case <-opts.Stop:
			case <-done:
				return
			}
			if d, ok := rw.(interface{ SetReadDeadline(time.Time) error }); ok && idle.Load() {
				_ = d.SetReadDeadline(time.Now()) // a refusal leaves the park-limit fallback
			}
		}()
	}

	// The request window uses slow start: the first request asks for one
	// chunk and the window doubles per successful assignment up to
	// FlushChunks. A cold worker joining a fresh job therefore cannot grab
	// the whole queue before its peers have dialled in, while a warmed-up
	// session amortises the round trip across a full batch.
	want := 1
	for {
		// Idle is raised before Stop is looked at: a Stop that closes after
		// the check finds the flag up and interrupts the wait, one that
		// closed before is seen by the check.
		idle.Store(len(batch.chunks) == 0)
		if stopping() {
			// Graceful drain, possibly mid-grant: nothing computed is left
			// to timeout reclaim.
			if err := drain(); err != nil {
				return stats, err
			}
			log.Info("worker drained", "chunks", stats.Chunks)
			return stats, nil
		}
		msg, err := exchange(want)
		if idle.Swap(false) && stopping() {
			// Stop cut the wait short, or closed while it ran out.
			log.Info("worker drained while awaiting work", "chunks", stats.Chunks)
			return stats, nil
		}
		if err != nil {
			return stats, err
		}
		switch msg.Type {
		case protocol.MsgTaskAssign:
			want = min(2*want, opts.FlushChunks)
			a := msg.Assign
			rt := jobs[a.JobID]
			if rt == nil {
				if a.Job == nil {
					return stats, fmt.Errorf("distsys: assigned unknown job %016x without descriptor", a.JobID)
				}
				// Many jobs over one head model: a descriptor whose grid Equals
				// a cached job's runs on that grid, so NewRunner finds its
				// accelerator built and the session holds one label array.
				// A grid is read-only once built (voxel.Grid): safe to share.
				if g := a.Job.Spec.Voxel; g != nil {
					outcome := met.geomBuilds
					for _, held := range jobs {
						if held.grid.Equal(g) {
							a.Job.Spec.Voxel, outcome = held.grid, met.geomShared
							break
						}
					}
					outcome.Inc()
				}
				cfg, err := a.Job.Spec.Build()
				if err != nil {
					return stats, fmt.Errorf("distsys: bad job spec: %w", err)
				}
				runner, err := mc.NewRunner(cfg)
				if err != nil {
					return stats, fmt.Errorf("distsys: bad job spec: %w", err)
				}
				rt = &jobRuntime{runner: runner, grid: a.Job.Spec.Voxel, seed: a.Job.Seed, streams: a.Job.Streams,
					fan: a.Job.Fan, cache: rng.NewStreamCache(a.Job.Seed)}
				jobs[a.JobID] = rt
				known = append(known, a.JobID)
				if len(known) > maxCachedJobs {
					delete(jobs, known[0])
					known = known[1:]
				}
			}
			// A chunk budget caps the grant before it starts, so it is never
			// overshot; the server requeues what the cap leaves out.
			grants := a.Grants
			for _, budget := range []int{opts.DrainAfterChunks, opts.FailAfterChunks} {
				if budget > 0 && len(grants) > budget-computed {
					grants = grants[:budget-computed]
				}
			}
			start := time.Now()
			runs, err := rt.compute(grants, opts.Slowdown, opts.Stop)
			if err != nil {
				return stats, err
			}
			wall := time.Since(start)
			var photons int64
			for i, run := range runs {
				g := grants[i]
				if err := batch.add(a.JobID, g.ChunkID, g.Photons, run.elapsed, run.tally); err != nil {
					return stats, fmt.Errorf("distsys: pre-reducing job %016x chunk %d: %w",
						a.JobID, g.ChunkID, err)
				}
				photons += g.Photons
				stats.Compute += run.elapsed
				computed++
				met.chunkSec.Observe(run.elapsed.Seconds())
				log.Debug("chunk finished", "job", fmt.Sprintf("%016x", a.JobID),
					"chunk", g.ChunkID, "photons", g.Photons,
					"elapsed", run.elapsed, "buffered", len(batch.chunks))
			}
			tel.grant(photons, wall, runs)
			met.chunks.Add(uint64(len(runs)))
			met.photons.Add(uint64(photons))
			ev := rt.runner.TakeEvents()
			met.scatter.Add(ev.Scatter)
			met.query.Add(ev.Query)
			met.crossing.Add(ev.Crossing)
			met.roulette.Add(ev.Roulette)
			if opts.FailAfterChunks > 0 && computed >= opts.FailAfterChunks {
				if err := drain(); err != nil {
					return stats, err
				}
				return stats, ErrInjectedFailure
			}
		case protocol.MsgNoWork:
			if msg.NoWork.Done {
				return stats, nil
			}
		default:
			return stats, fmt.Errorf("distsys: unexpected message %v", msg.Type)
		}
	}
}

// WorkTCP dials the service at addr and runs a worker session.
func WorkTCP(addr string, opts WorkerOptions) (*WorkerStats, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Work(conn, opts)
}
