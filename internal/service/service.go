// Package service turns the one-shot DataManager of the paper's platform
// into a long-lived, multi-tenant simulation service. A Registry owns many
// concurrent jobs — each wrapping the chunk queue / timeout-reassignment /
// exactly-once reduction logic of a single distributed run — and one shared
// worker fleet drains them all: every idle worker is handed the next chunk
// chosen by the one cross-job scheduler, sched.TwoLevel, as Options.Policy
// configures it (FIFO, strict priority, weighted fair share over jobs, or
// two-level tenant→job fair share), and results are routed back to their
// job by the protocol's JobID. Workers are job-agnostic; a session learns
// a job's spec the first time it is assigned one of its chunks.
// Since protocol v3, workers flush pre-reduced result batches (compact
// tally codec, per-chunk acks) and the registry merges each batch off its
// dispatch lock through a per-job reducer, so fleet throughput tracks
// kernel throughput rather than per-chunk wire bookkeeping.
//
// Completed tallies land in a content-addressed result cache keyed by the
// canonical encoding of (Spec, TotalPhotons, ChunkPhotons, Seed) —
// plus the Fan width when one is set, since a fanned chunk decomposes into
// different sub-streams — the exact tuple that determines a reproducible
// result. A duplicate submission returns instantly without assigning a
// single chunk, and an identical submission racing an active job coalesces
// onto it.
//
// Every submission belongs to a tenant (JobSpec.Tenant; the HTTP layer
// resolves it from the X-MC-Tenant header, the request body, or the
// "default" fallback). An AdmissionPolicy — AlwaysAdmit, or TokenBucket
// fed by a TenantTable of per-tenant job-rate and photon-quota classes —
// decides at Submit whether a fresh job is accepted; refusals are typed
// ShedErrors the HTTP layer turns into 429s with a computed Retry-After.
// Cache hits and coalesced submissions still debit one job-rate token —
// a resubmission is a submission — but are exempt from the photon quota
// and the active-jobs cap (they add no new simulation work); journal
// replay bypasses admission entirely.
//
// The same keys shard the control plane: RoutingKeys derives a
// submission's keys without a Registry, RouteKey picks the one it is
// routed by (the physics key for a moments-tracking spec, so every
// variant of one physics meets the cache that can serve it; the content
// key otherwise), ShardOfKey maps its top 32 bits onto one of N contiguous
// ranges, and a job's ID carries those bits over its content key's next 32
// (JobID) so ShardOfID routes by ID to the same shard — a stateless gateway (internal/gateway,
// cmd/mcgate) needs no routing table, holds no results, and any two
// gateway instances route identically. Submit distinguishes
// deterministic rejections (InvalidJobError: normalization or key
// derivation failed; HTTP 422 — every shard would refuse) from
// environmental ones (HTTP 503 — a routing tier may retry elsewhere).
//
// The API surface is programmatic (Registry) and HTTP (NewAPI): POST /jobs,
// GET /jobs/{id}, GET /jobs/{id}/result, DELETE /jobs/{id}, GET /stats,
// GET /tenants.
// cmd/mcqueue serves both; cmd/mcserver keeps its one-job CLI behaviour by
// delegating to a single-job Registry.
package service

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
)

// Options configure a Registry. The zero value is a long-lived multi-job
// service with FIFO scheduling and a 256-entry result cache.
type Options struct {
	// Policy picks which job's chunk an idle worker receives; the zero
	// value is FIFO.
	Policy Policy
	// CacheSize bounds the result cache in entries; 0 means a 256-entry
	// default, negative disables caching entirely.
	CacheSize int
	// RetainDone bounds how many finished (done or cancelled) jobs stay
	// queryable in the registry; 0 means 1024, negative retains forever.
	RetainDone int
	// DrainOnEmpty makes the fleet tell workers the service is Done once
	// every submitted job has finished — the one-shot mcserver mode. A
	// long-lived service leaves it false and idle workers stay parked on
	// the server, waiting for the next submission.
	DrainOnEmpty bool
	// MaxTargetPhotons caps the photon budget of precision-targeted jobs
	// (a submission's own Target.MaxPhotons is clamped to it); 0 means
	// DefaultMaxTargetPhotons. An operator guard against a tight RelErr
	// on a noisy observable monopolising the fleet.
	MaxTargetPhotons int64
	// MaxActiveJobs sheds fresh submissions (ShedError, reason "cap") while
	// that many jobs are already queued or running; 0 means unbounded.
	// Cache hits and coalesced submissions are exempt from this cap — they
	// add no job — though they still debit the tenant's job-rate bucket.
	MaxActiveJobs int
	// Admission decides per tenant whether a fresh submission is accepted
	// (token buckets on jobs/sec and photons); nil means AlwaysAdmit. The
	// MaxActiveJobs cap is evaluated first, as one more shed reason.
	Admission AdmissionPolicy
	// Tenants maps tenant names to their class; the registry reads
	// scheduling weights (tenant-fair policy, GET /tenants) from it. nil
	// gives every tenant the default class (weight 1).
	Tenants *TenantTable
	// Obs receives the service-plane metrics; nil instruments into a
	// private unexported registry (the counters still run — they are cheap
	// atomics — but nothing scrapes them).
	Obs *obs.Registry
	// TraceEvents bounds each job's lifecycle event ring: 0 means
	// obs.DefaultTraceEvents, negative disables per-job tracing.
	TraceEvents int
	// SpanEvents bounds each job's per-chunk span ring (queue-wait /
	// wire+hold / compute / reduce segments behind GET /jobs/{id}/spans):
	// 0 means obs.DefaultSpanEvents, negative disables span recording.
	// The aggregate span histograms on the metrics registry observe
	// regardless — they survive ring eviction and this switch.
	SpanEvents int
	// Logger, if set, receives structured progress logging (nil discards).
	Logger *slog.Logger
	// Journal, if set, write-ahead journals what a restart needs (accepts,
	// tally snapshots, cancels) so a crashed registry replays its job set;
	// nil disables journaling. See NewJournal.
	Journal *Journal
}

// JobSpec describes one simulation job submitted to a Registry.
type JobSpec struct {
	Spec *mc.Spec
	// TotalPhotons fixes the photon budget of a fixed-count job. It is
	// ignored (and normalized to zero) when Target is set: a
	// precision-targeted job is open-ended and its chunk count is decided
	// by the stopping rule, not up front.
	TotalPhotons int64
	// ChunkPhotons is the photons per work unit (dynamic self-scheduling
	// with fixed-size chunks); it defaults to TotalPhotons for
	// fixed-count jobs and to DefaultTargetChunkPhotons for targeted ones.
	ChunkPhotons int64
	Seed         uint64
	// Target, when set, turns the job into a run-until-precision job: the
	// registry issues ChunkPhotons-sized chunks open-endedly, re-estimates
	// the observable's relative standard error as batches reduce, and
	// finalizes the job the moment the target is met (or its photon cap is
	// reached). The simulation spec's TrackMoments flag is forced on so
	// chunk tallies carry the required second moments. Results are
	// normalized by the photons actually simulated.
	Target *mc.Target
	// Fan is the per-chunk multi-core decomposition width: workers compute
	// each chunk as Fan jump-separated sub-streams (mc.RunStreamFan) and a
	// chunk tally is a pure function of (Seed, stream, Fan) — never of the
	// computing worker's core count. ≤ 1 means the legacy single-stream
	// chunk and keeps result bytes (and the cache key) identical to
	// pre-fan submissions.
	Fan int
	// ChunkTimeout reassigns a chunk whose result has not arrived in time;
	// zero disables reassignment.
	ChunkTimeout time.Duration
	// Priority orders jobs under PriorityPolicy (higher first).
	Priority int
	// Weight is the fair-share weight under FairSharePolicy (default 1).
	Weight float64
	// Label is a free-form operator tag surfaced in statuses.
	Label string
	// Tenant attributes the job to a tenant for admission control,
	// two-level fair scheduling and per-tenant accounting. Empty maps to
	// DefaultTenant. The tenant never enters the result-cache key: the same
	// physics submitted by two tenants coalesces and cache-hits freely.
	Tenant string

	// replay marks a submission reconstructed by journal replay: it
	// bypasses admission (the work was admitted before the crash) and
	// counts into Stats.JobsReplayed. Unexported on purpose — invisible
	// to JSON (the journal's accept record included) and every caller
	// outside the journal.
	replay bool
}

// Precision-job defaults: the chunk size when the submission names none,
// the min-photon floor in chunks, and the photon cap applied when neither
// the submission nor Options set one. The floor guards the stopping
// rule's small-sample bias: with few chunk samples the variance estimate
// is noisy and testing it selects for optimistic draws, so the rule stops
// early with an overconfident CI (DESIGN.md quantifies this). Sixteen
// samples keeps the selection effect small; users targeting an RSE their
// floor can barely reach should raise MinPhotons further.
const (
	DefaultTargetChunkPhotons = 10_000
	DefaultMinTargetChunks    = 16
	DefaultMaxTargetPhotons   = 50_000_000
)

// normalize fills defaults and runs the cheap structural checks. The
// expensive spec validation (Spec.Build, which may materialise a voxel
// geometry) is deferred to newJob so that cache hits and coalesced
// submissions — whose exact spec bytes already built successfully once —
// skip it entirely. maxTargetPhotons is the registry's operator cap
// (zero means DefaultMaxTargetPhotons).
func (s *JobSpec) normalize(maxTargetPhotons int64) error {
	if s.Spec == nil {
		return fmt.Errorf("service: job has no simulation spec")
	}
	// The one spec check that cannot wait for newJob: an over-bound scoring
	// grid must be refused before anything — a gateway's routing, a cache
	// probe, a tally allocation — acts on the submission.
	if err := s.Spec.ValidateScoring(); err != nil {
		return err
	}
	if s.Target != nil {
		tgt := *s.Target // never mutate the caller's struct
		s.Target = &tgt
		s.TotalPhotons = 0
		if s.ChunkPhotons <= 0 {
			s.ChunkPhotons = DefaultTargetChunkPhotons
		}
		budget := maxTargetPhotons
		if budget <= 0 {
			budget = DefaultMaxTargetPhotons
		}
		if tgt.MaxPhotons == 0 || tgt.MaxPhotons > budget {
			tgt.MaxPhotons = budget
		}
		// Round the cap up to a whole chunk so the budget boundary is a
		// chunk boundary (the last issued chunk is never short).
		if rem := tgt.MaxPhotons % s.ChunkPhotons; rem != 0 {
			tgt.MaxPhotons += s.ChunkPhotons - rem
		}
		// The floor must fit the (possibly operator-clamped) budget: a
		// defaulted floor shrinks to it, but an explicit MinPhotons above
		// it is a contradiction Normalize rejects below — silently raising
		// MaxPhotons instead would let any submission bypass the cap.
		if tgt.MinPhotons == 0 {
			tgt.MinPhotons = DefaultMinTargetChunks * s.ChunkPhotons
			if tgt.MinPhotons > tgt.MaxPhotons {
				tgt.MinPhotons = tgt.MaxPhotons
			}
		}
		if err := s.Target.Normalize(); err != nil {
			return err
		}
		if !s.Spec.TrackMoments {
			// The stopping rule needs chunk moments; copy the spec rather
			// than flipping the caller's (which may describe other jobs).
			sp := *s.Spec
			sp.TrackMoments = true
			s.Spec = &sp
		}
	} else if s.TotalPhotons <= 0 {
		return fmt.Errorf("service: non-positive photon count %d", s.TotalPhotons)
	}
	if s.ChunkPhotons <= 0 {
		s.ChunkPhotons = s.TotalPhotons
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	if s.Fan <= 1 {
		s.Fan = 0 // canonical "no fan": fan 1 computes the same tally
	}
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if len(s.Tenant) > MaxTenantNameLen {
		return fmt.Errorf("service: tenant name longer than %d bytes", MaxTenantNameLen)
	}
	return nil
}

// numChunks returns the chunk count a fixed-count spec partitions into
// (zero for open-ended precision-targeted jobs).
func (s *JobSpec) numChunks() int {
	if s.Target != nil {
		return 0
	}
	return int((s.TotalPhotons + s.ChunkPhotons - 1) / s.ChunkPhotons)
}
