package service

import (
	"fmt"

	"repro/internal/obs"
)

// svcMetrics is the registry's pre-resolved instrument set. Every counter
// a hot path touches is resolved once here, so steady-state accounting is
// a single atomic add — no map lookups, no label formatting, no locks
// beyond the ones dispatch already holds. Metrics carry no per-job,
// per-chunk or per-worker labels (unbounded cardinality); that detail
// lives in each job's bounded event trace instead.
type svcMetrics struct {
	jobsSubmitted *obs.Counter
	jobsResumed   *obs.Counter
	jobsReplayed  *obs.Counter
	jobsCoalesced *obs.Counter
	jobsShed      *obs.CounterVec // by shed reason: cap, tenant_rate, tenant_quota

	// Per-tenant accounting families; children are pre-resolved into each
	// tenantStats the first time a tenant is seen.
	tenantSubmitted *obs.CounterVec
	tenantResumed   *obs.CounterVec
	tenantShed      *obs.CounterVec
	tenantPhotons   *obs.CounterVec

	cacheLookups    *obs.Counter
	cacheHitExact   *obs.Counter
	cacheHitPhysics *obs.Counter
	cacheMisses     *obs.Counter

	chunksGranted    *obs.Counter
	chunksCompleted  *obs.Counter
	chunksReassigned *obs.Counter

	rejectedStale  *obs.Counter // results matching no live assignment
	rejectedBatch  *obs.Counter // undecodable / partially stale / unmergeable groups
	rejectedBenign *obs.Counter // stragglers after an early finalize
	duplicates     *obs.Counter

	batchesReduced *obs.Counter
	tallyMerges    *obs.Counter
	photonsReduced *obs.Counter
	reduceSeconds  *obs.Histogram

	// Per-chunk span segment distributions — the aggregate view of the
	// per-job span rings, immune to ring eviction.
	spanQueue   *obs.Histogram
	spanWire    *obs.Histogram
	spanCompute *obs.Histogram
	spanReduce  *obs.Histogram

	sessionsTotal *obs.Counter
	reconnects    *obs.Counter

	workersParked *obs.Gauge     // TaskRequests waiting server-side for work
	parkSeconds   *obs.Histogram // how long each waited

	// The submit path's stages (see service_submit_stage_seconds).
	submitDecode, submitKeys, submitJournal *obs.Histogram
	// Body size of a submission read at the HTTP ingress, by format.
	submitBytes *obs.HistogramVec

	// Result encode on GET /jobs/{id}/result, by the encoding served.
	resultJSON, resultCompact resultMetrics
}

// resultMetrics is one result encoding's pre-resolved instrument pair.
type resultMetrics struct {
	seconds *obs.Histogram
	bytes   *obs.Histogram
}

// newServiceMetrics registers the service-plane instruments on reg and
// installs the scrape-time gauges that read registry state. The gauge
// callbacks take r.mu, so a scrape must never run while the caller holds
// it (the HTTP handler never does).
func newServiceMetrics(reg *obs.Registry, r *Registry) *svcMetrics {
	m := &svcMetrics{
		jobsSubmitted: reg.Counter("service_jobs_submitted_total",
			"Jobs accepted as fresh work (cache hits, coalesced submissions and snapshot resumes excluded)."),
		jobsResumed: reg.Counter("service_jobs_resumed_total",
			"Jobs restored from journal snapshots (admission-exempt submissions)."),
		jobsReplayed: reg.Counter("service_jobs_replayed_total",
			"Jobs restored by write-ahead journal replay after a restart."),
		jobsCoalesced: reg.Counter("service_jobs_coalesced_total",
			"Submissions attached to an identical already-active job."),
		jobsShed: reg.CounterVec("service_jobs_shed_total",
			"Submissions refused by admission, by reason.", "reason"),
		tenantSubmitted: reg.CounterVec("service_tenant_jobs_submitted_total",
			"Fresh jobs accepted, by tenant.", "tenant"),
		tenantResumed: reg.CounterVec("service_tenant_jobs_resumed_total",
			"Jobs restored from journal snapshots, by tenant.", "tenant"),
		tenantShed: reg.CounterVec("service_tenant_jobs_shed_total",
			"Submissions refused by admission, by tenant.", "tenant"),
		tenantPhotons: reg.CounterVec("service_tenant_photons_total",
			"Photons reduced into results, by tenant.", "tenant"),
		cacheLookups: reg.Counter("service_cache_lookups_total",
			"Result-cache probes (one per non-coalesced submission)."),
		cacheMisses: reg.Counter("service_cache_misses_total",
			"Result-cache probes that found nothing."),
		chunksGranted: reg.Counter("service_chunks_granted_total",
			"Chunks handed to workers, including re-grants after reassignment."),
		chunksCompleted: reg.Counter("service_chunks_completed_total",
			"Chunks whose tallies reduced into a job exactly once."),
		chunksReassigned: reg.Counter("service_chunks_reassigned_total",
			"Chunks requeued after a timeout, disconnect or abandoned assignment."),
		duplicates: reg.Counter("service_duplicate_results_total",
			"Results acknowledged as duplicates of an already-reduced chunk."),
		batchesReduced: reg.Counter("service_batches_reduced_total",
			"Worker result batches processed by the reducer."),
		tallyMerges: reg.Counter("service_tally_merges_total",
			"Merges into job tallies: one per reduced group, so at most the chunks completed (workers pre-reduce)."),
		photonsReduced: reg.Counter("service_photons_reduced_total",
			"Photons represented by reduced tallies."),
		reduceSeconds: reg.Histogram("service_reduce_seconds",
			"Off-lock tally merge duration per reduced group.", obs.DefBuckets),
		spanQueue: reg.Histogram("service_span_queue_seconds",
			"Span segment: chunk issued or requeued until granted to a worker.", obs.DefBuckets),
		spanWire: reg.Histogram("service_span_wire_seconds",
			"Span segment: granted until result arrival, minus compute (wire, encode, worker hold buffer).", obs.DefBuckets),
		spanCompute: reg.Histogram("service_span_compute_seconds",
			"Span segment: per-chunk compute (worker-reported, or the chunk's share of batch elapsed).", obs.DefBuckets),
		spanReduce: reg.Histogram("service_span_reduce_seconds",
			"Span segment: the chunk's share of its batch's off-lock tally merge.", obs.DefBuckets),
		sessionsTotal: reg.Counter("fleet_sessions_total",
			"Worker sessions ever accepted."),
		reconnects: reg.Counter("fleet_reconnects_total",
			"Sessions whose worker name had connected before (reconnections)."),
		workersParked: reg.Gauge("service_workers_parked",
			"Worker sessions whose task request is parked on the server awaiting work."),
		parkSeconds: reg.Histogram("service_park_seconds",
			"Time a parked task request waited before it was answered (with a chunk, Done, or at the park limit).", obs.DefBuckets),
		submitBytes: reg.HistogramVec("service_submit_bytes",
			"Size of one POST /jobs body read at the ingress, by format (json from a client, compact from a gateway).", obs.ByteBuckets, "format"),
	}
	hits := reg.CounterVec("service_cache_hits_total",
		"Result-cache hits by index probed.", "index")
	m.cacheHitExact = hits.With("exact")
	m.cacheHitPhysics = hits.With("physics")
	rej := reg.CounterVec("service_results_rejected_total",
		"Results the reducer refused, by reason.", "reason")
	m.rejectedStale = rej.With("stale")
	m.rejectedBatch = rej.With("batch")
	m.rejectedBenign = rej.With("benign")
	stage := reg.HistogramVec("service_submit_stage_seconds",
		"Time one submission spent in a stage of the submit path: decode (body read and decode, HTTP submissions only), keys (content and physics key derivation), journal (the accept record's append, fresh jobs only).",
		obs.DefBuckets, "stage")
	m.submitDecode, m.submitKeys, m.submitJournal = stage.With("decode"), stage.With("keys"), stage.With("journal")
	encSeconds := reg.HistogramVec("service_result_encode_seconds",
		"Time to encode one finished job's result body, by encoding (json for clients, compact for a gateway).",
		obs.DefBuckets, "format")
	encBytes := reg.HistogramVec("service_result_bytes",
		"Encoded size of one result body, by encoding.", obs.ByteBuckets, "format")
	m.resultJSON = resultMetrics{encSeconds.With("json"), encBytes.With("json")}
	m.resultCompact = resultMetrics{encSeconds.With("compact"), encBytes.With("compact")}

	// The scrape-time gauges are Stats figures under their series names.
	reg.GaugeVecFunc("service_jobs", "Retained jobs by lifecycle state.", "state",
		func() map[string]float64 {
			s := r.Stats()
			return map[string]float64{
				StateQueued.String(): float64(s.JobsQueued), StateRunning.String(): float64(s.JobsRunning),
				StateDone.String(): float64(s.JobsDone), StateCanceled.String(): float64(s.JobsCanceled),
			}
		})
	reg.GaugeFunc("service_pending_chunks", "Chunks of live jobs awaiting assignment.",
		func() float64 { return float64(r.Stats().PendingChunks) })
	reg.GaugeFunc("service_outstanding_chunks", "Chunks of live jobs out on workers.",
		func() float64 { return float64(r.Stats().OutstandingChunks) })
	reg.GaugeFunc("fleet_workers", "Currently connected worker sessions.",
		func() float64 { return float64(r.Stats().Workers) })
	return m
}

// trace records one lifecycle event on a job's bounded ring (nil-safe:
// tracing disabled or the job predates the registry).
func (j *Job) trace(e obs.Event) {
	if e.Chunk == 0 && e.Kind != obs.EvChunkGranted && e.Kind != obs.EvChunkCompleted &&
		e.Kind != obs.EvChunkReassigned && e.Kind != obs.EvChunkRejected {
		e.Chunk = -1
	}
	j.events.Record(e)
}

// Events returns the job's retained lifecycle events in chronological
// order and the count of older events its bounded ring overwrote.
func (j *Job) Events() ([]obs.Event, uint64) { return j.events.Snapshot() }

// newTrace builds a job's event ring per the registry options: 0 means
// DefaultTraceEvents, negative disables tracing (a nil ring drops all
// records at the cost of one nil check).
func (r *Registry) newTrace() *obs.Trace {
	if r.opts.TraceEvents < 0 {
		return nil
	}
	return obs.NewTrace(r.opts.TraceEvents)
}

// Spans returns the job's retained per-chunk spans in completion order and
// the count of older spans its bounded ring overwrote.
func (j *Job) Spans() ([]obs.Span, uint64) { return j.spans.Snapshot() }

// newSpans builds a job's span ring per the registry options: 0 means
// DefaultSpanEvents, negative disables span recording.
func (r *Registry) newSpans() *obs.Spans {
	if r.opts.SpanEvents < 0 {
		return nil
	}
	return obs.NewSpans(r.opts.SpanEvents)
}

// ErrOverloaded is wrapped by every ShedError Submit returns when
// admission refuses new work (active-job cap or per-tenant token buckets);
// the HTTP layer maps it to 429 with the verdict's computed Retry-After.
var ErrOverloaded = fmt.Errorf("service: submission shed by admission control")
