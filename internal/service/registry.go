package service

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/voxel"
)

// Registry owns the concurrent jobs of the simulation service and the
// shared worker fleet that drains them. Create one with New, submit jobs
// with Submit, and serve worker connections with Serve / HandleConn.
type Registry struct {
	opts      Options
	admission AdmissionPolicy
	journal   *Journal // nil means no write-ahead journaling
	log       *slog.Logger
	// met is the registry's one set of lifetime counts: Stats and Tenants
	// read the instruments /metrics exports. All but the batch count are
	// advanced under mu, so what Stats reads under mu is one snapshot.
	met *svcMetrics

	mu        sync.Mutex
	jobs      map[uint64]*Job
	order     []*Job       // submission order (List is deterministic)
	active    []*Job       // queued/running jobs only — the dispatcher's hot loop
	byKey     map[Key]*Job // jobs not yet in the cache, for coalescing identical submissions
	cache     *ResultCache
	seq       uint64 // submissions registered (DrainOnEmpty waits for the first)
	sessions  map[uint64]*session
	nextSess  uint64
	seenNames map[string]bool         // worker names ever connected (reconnect detection)
	tenants   map[string]*tenantStats // per-tenant accounting, keyed by tenant name

	// The cross-job scheduler, fed as opts.Policy configures (see
	// assignLocked), and the dispatch scratch buffers — reused under mu so
	// the per-request candidate gathering allocates nothing at steady state.
	sched       *sched.TwoLevel
	candScratch []sched.TenantJob
	jobScratch  []*Job

	// wake is closed and replaced (wakeLocked) by every transition that can
	// make a job schedulable or close drained; parked TaskRequests wait on
	// the channel they read under mu (see dispatch).
	wake chan struct{}

	drainOnce sync.Once
	drained   chan struct{} // closed when DrainOnEmpty and all jobs finished

	// sealHook, when set, runs after a job is marked done and before its
	// tally reaches the cache — a seam for tests of that window; nil
	// outside tests.
	sealHook func()
}

// New returns an empty registry.
func New(opts Options) *Registry {
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	if opts.Admission == nil {
		opts.Admission = AlwaysAdmit()
	}
	if opts.RetainDone == 0 {
		opts.RetainDone = 1024
	}
	r := &Registry{
		opts:      opts,
		sched:     sched.NewTwoLevel(),
		admission: opts.Admission,
		journal:   opts.Journal,
		log:       opts.Logger,
		jobs:      make(map[uint64]*Job),
		byKey:     make(map[Key]*Job),
		cache:     NewResultCache(opts.CacheSize),
		sessions:  make(map[uint64]*session),
		seenNames: make(map[string]bool),
		tenants:   make(map[string]*tenantStats),
		wake:      make(chan struct{}),
		drained:   make(chan struct{}),
	}
	// A nil Obs still gets live instruments (they are plain atomics and the
	// accounting code stays branch-free); they are simply never scraped.
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.met = newServiceMetrics(reg, r)
	return r
}

// SubmitOutcome reports how a submission was satisfied.
type SubmitOutcome struct {
	Job *Job
	// Cached means the job was born Done with a tally served from the
	// result cache; no chunks will ever be assigned for it.
	Cached bool
	// Coalesced means an identical job was already active and the caller
	// was attached to it instead of queueing duplicate work.
	Coalesced bool
}

// Submit registers a job. Identical submissions (same content Key) are
// deduplicated: against the cache if a previous run completed, against the
// live job if one is still active (the live job absorbs the stronger of
// the two submissions' scheduling parameters, so an urgent resubmission is
// not silently demoted to the incumbent's priority). A precision-targeted
// submission is additionally matched against the physics index: any stored
// run of the same (spec, chunking, seed, fan) decomposition that
// meets-or-exceeds the requested precision serves it instantly.
//
// Heavy construction — Spec.Build (which may materialise a multi-megabyte
// voxel geometry), tally allocation — happens outside the registry mutex so
// a large submission never stalls fleet dispatch.
func (r *Registry) Submit(spec JobSpec) (*SubmitOutcome, error) {
	if err := spec.normalize(r.opts.MaxTargetPhotons); err != nil {
		return nil, invalid(err)
	}
	start := time.Now()
	key, pkey, err := keysOf(&spec)
	if err != nil {
		return nil, invalid(err)
	}
	r.met.submitKeys.Observe(time.Since(start).Seconds())

	r.mu.Lock()
	if live := r.byKey[key]; live != nil {
		if err := r.admitRideLocked(&spec); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		live.absorbParamsLocked(spec)
		r.mu.Unlock()
		r.met.jobsCoalesced.Inc()
		live.trace(obs.Event{Kind: obs.EvCoalesced})
		return &SubmitOutcome{Job: live, Coalesced: true}, nil
	}
	r.mu.Unlock()
	r.shareGrid(&spec)

	// A precision submission probes two indexes but is one lookup: one hit
	// or one miss, whichever index answered.
	r.met.cacheLookups.Inc()
	tally, hits, hitIndex := r.cache.Get(key), r.met.cacheHitExact, "exact"
	if tally == nil && spec.Target != nil {
		// Meets-or-exceeds: a deeper or equal stored run of the same physics
		// satisfies any looser request for it.
		tally = r.cache.GetMeeting(pkey, spec.Target)
		hits, hitIndex = r.met.cacheHitPhysics, "physics"
	}
	if tally != nil {
		r.mu.Lock()
		if err := r.admitRideLocked(&spec); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		// A hit is counted when it is served: one the job-rate bucket just
		// shed is a shed, not a hit.
		hits.Inc()
		r.mu.Unlock()
		// A cached key proves these exact spec bytes built and completed
		// before, so the job is born Done without touching the geometry,
		// around the cache's own tally (read-only, see Result.Tally).
		j := bornDoneJob(r, key, spec, tally)
		j.pkey = pkey
		j.trace(obs.Event{Kind: obs.EvCacheHit, Detail: hitIndex})
		r.mu.Lock()
		r.registerLocked(j)
		r.mu.Unlock()
		r.log.Info("job served from cache", "job", jobHex(j.id), "index", hitIndex)
		return &SubmitOutcome{Job: j, Cached: true}, nil
	}

	// Early admission probe: a fresh job is refused before paying
	// Spec.Build (which may materialise a voxel geometry). Coalesced and
	// cache-hit submissions returned above after debiting one job-rate
	// token via admitRideLocked. The probe spends no tokens; the
	// authoritative, debiting check repeats under the lock below.
	cost := spec.admissionPhotons()
	r.mu.Lock()
	r.met.cacheMisses.Inc()
	ts := r.tenantLocked(spec.Tenant)
	// Journal replay bypasses admission: the work was admitted before the
	// crash, and a restart must never shed jobs it already accepted.
	if !spec.replay {
		if err := r.admitLocked(ts, cost, false); err != nil {
			r.mu.Unlock()
			return nil, err
		}
	}
	r.mu.Unlock()

	j, err := newJob(r, key, spec)
	if err != nil {
		return nil, err
	}
	j.pkey = pkey
	r.mu.Lock()
	if live := r.byKey[key]; live != nil { // lost a race with an identical submission
		if err := r.admitRideLocked(&spec); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		live.absorbParamsLocked(spec)
		r.mu.Unlock()
		r.met.jobsCoalesced.Inc()
		live.trace(obs.Event{Kind: obs.EvCoalesced})
		return &SubmitOutcome{Job: live, Coalesced: true}, nil
	}
	if !spec.replay {
		if err := r.admitLocked(ts, cost, true); err != nil { // authoritative, spends tokens
			r.mu.Unlock()
			return nil, err
		}
	}
	r.registerLocked(j)
	r.activateLocked(j)
	r.met.jobsSubmitted.Inc()
	ts.submitted.Inc()
	if spec.replay {
		r.met.jobsReplayed.Inc()
	}
	jspec := j.spec // copy under the lock: absorbParamsLocked may mutate j.spec
	r.mu.Unlock()
	start = time.Now()
	r.journal.jobAccepted(r, j.key, jspec)
	r.met.submitJournal.Observe(time.Since(start).Seconds())
	j.trace(obs.Event{Kind: obs.EvSubmitted, Detail: spec.Tenant})
	if spec.Target != nil {
		r.log.Info("job submitted", "job", jobHex(j.id),
			"observable", spec.Target.Observable, "relErr", spec.Target.RelErr,
			"chunkPhotons", spec.ChunkPhotons)
	} else {
		r.log.Info("job submitted", "job", jobHex(j.id),
			"photons", spec.TotalPhotons, "chunks", j.nChunks)
	}
	return &SubmitOutcome{Job: j}, nil
}

// admitLocked evaluates every shed reason for a would-be fresh job of the
// given tenant: the global MaxActiveJobs cap first, then the per-tenant
// admission policy. debit=false probes (the pre-Build check, spends
// nothing); debit=true is the authoritative check that spends tokens.
// Either outcome of a failed check records exactly one shed — a refused
// submission fails at most one of the two calls.
func (r *Registry) admitLocked(ts *tenantStats, photons int64, debit bool) error {
	if r.opts.MaxActiveJobs > 0 && len(r.active) >= r.opts.MaxActiveJobs {
		return r.shedLocked(ts, &ShedError{
			Tenant:     ts.name,
			Reason:     ShedReasonCap,
			RetryAfter: capRetryAfter(len(r.active)),
			Detail:     fmt.Sprintf("%d active, cap %d", len(r.active), r.opts.MaxActiveJobs),
		})
	}
	var v AdmissionVerdict
	if debit {
		v = r.admission.Admit(ts.name, photons)
	} else {
		v = r.admission.Probe(ts.name, photons)
	}
	if !v.OK {
		return r.shedLocked(ts, &ShedError{
			Tenant: ts.name, Reason: v.Reason, RetryAfter: v.RetryAfter, Detail: v.Detail,
		})
	}
	return nil
}

// admitRideLocked admits a submission that rides existing work — a
// coalesced duplicate or a cache hit. Resubmitting a popular spec is
// still a submission, so it debits one token from the tenant's job-rate
// bucket (otherwise a tenant replays a live spec to bypass its jobs/sec
// quota entirely).
// The exemptions that remain are exactly the ones that cost nothing: the
// photon dimension (no new photons will be simulated), the MaxActiveJobs
// cap (no job joins the active set), and journal replay (the work was
// admitted before the crash).
func (r *Registry) admitRideLocked(spec *JobSpec) error {
	if spec.replay {
		return nil
	}
	ts := r.tenantLocked(spec.Tenant)
	v := r.admission.Admit(ts.name, 0)
	if !v.OK {
		return r.shedLocked(ts, &ShedError{
			Tenant: ts.name, Reason: v.Reason, RetryAfter: v.RetryAfter, Detail: v.Detail,
		})
	}
	return nil
}

// shedLocked accounts one refused submission and returns the error.
func (r *Registry) shedLocked(ts *tenantStats, e *ShedError) error {
	ts.shed.Inc()
	r.met.jobsShed.With(e.Reason).Inc()
	r.log.Warn("job shed", "tenant", ts.name, "reason", e.Reason,
		"retryAfter", e.RetryAfter, "detail", e.Detail)
	return e
}

// capRetryAfter scales the cap path's Retry-After with queue depth — one
// second per active job, clamped to [1s, 60s] — so a deeply backlogged
// service pushes clients further out than a barely-over one.
func capRetryAfter(active int) time.Duration {
	d := time.Duration(active) * time.Second
	if d < time.Second {
		d = time.Second
	}
	if d > time.Minute {
		d = time.Minute
	}
	return d
}

// tenantLocked lazily materialises a tenant's accounting bucket with its
// metric children pre-resolved (the reduce hot path adds photons per batch).
func (r *Registry) tenantLocked(name string) *tenantStats {
	ts, ok := r.tenants[name]
	if !ok {
		ts = &tenantStats{
			name:      name,
			submitted: r.met.tenantSubmitted.With(name),
			resumed:   r.met.tenantResumed.With(name),
			shed:      r.met.tenantShed.With(name),
			photons:   r.met.tenantPhotons.With(name),
		}
		r.tenants[name] = ts
	}
	return ts
}

// tenantStats is one tenant's lifetime accounting: its children of the
// per-tenant counter families, advanced under the registry lock.
type tenantStats struct {
	name                              string
	submitted, resumed, shed, photons *obs.Counter
}

// jobHex is the log spelling of a job ID (matches the HTTP API's).
func jobHex(id uint64) string { return fmt.Sprintf("%016x", id) }

// keysOf derives a normalized spec's content key and physics key.
func keysOf(spec *JobSpec) (key, pkey Key, err error) {
	total := spec.TotalPhotons
	if spec.Target != nil {
		total = 0 // open-ended: the tuple holds 0 whatever the caller left there
	}
	return deriveKeys(spec.Spec, total, spec.ChunkPhotons, spec.Seed, spec.Fan, spec.Target)
}

// shareGrid points a voxel submission at the grid of a live or retained job
// that Equals its own, before a job is built around it: every job keeps its
// spec, so -retain 1024 head jobs would otherwise pin 1024 copies of one
// 1.2 MB label array, and a journal replay decodes one per accept record. A
// grid is read-only once constructed (voxel.Grid), so any number of jobs may
// hold one. Compared off the registry lock, one pointer per distinct grid.
func (r *Registry) shareGrid(spec *JobSpec) {
	g := spec.Spec.Voxel
	if g == nil {
		return
	}
	var held []*voxel.Grid
	r.mu.Lock()
	for _, j := range r.order {
		if h := j.spec.Spec.Voxel; h != nil && !slices.Contains(held, h) {
			held = append(held, h)
		}
	}
	r.mu.Unlock()
	for _, h := range held {
		if h.Equal(g) {
			sp := *spec.Spec // never mutate the caller's spec
			sp.Voxel = h
			spec.Spec = &sp
			return
		}
	}
}

// SubmitSnapshot resumes a job from its journaled snapshot: already
// reduced chunks stay reduced and only the rest are queued. A fully
// complete snapshot yields a job born Done.
func (r *Registry) SubmitSnapshot(snap *Snapshot) (*Job, error) {
	spec := snap.Spec
	if err := spec.normalize(r.opts.MaxTargetPhotons); err != nil {
		return nil, err
	}
	if snap.Tally == nil || snap.NChunks < 0 || (spec.Target == nil && snap.NChunks == 0) {
		return nil, fmt.Errorf("service: snapshot is incomplete")
	}
	key, pkey, err := keysOf(&spec)
	if err != nil {
		return nil, err
	}
	r.shareGrid(&spec)

	// Build and restore outside the lock (see Submit).
	j, err := newJob(r, key, spec)
	if err != nil {
		return nil, err
	}
	j.pkey = pkey
	j.trace(obs.Event{Kind: obs.EvResumed, Detail: spec.Tenant, Value: float64(len(snap.Completed))})
	if j.openEnded() {
		// Re-issue the snapshot's chunk space; incomplete ids are queued
		// below and issuance continues past the high-water mark on demand.
		for j.nChunks < snap.NChunks {
			j.pending = append(j.pending, j.issueChunkLocked())
		}
	} else if j.nChunks != snap.NChunks {
		return nil, fmt.Errorf("service: snapshot has %d chunks, job derives %d",
			snap.NChunks, j.nChunks)
	}
	done := make(map[int]bool, len(snap.Completed))
	for _, id := range snap.Completed {
		if id < 0 || id >= j.nChunks {
			return nil, fmt.Errorf("service: snapshot completed chunk %d out of range", id)
		}
		if !done[id] {
			done[id] = true
			j.completed[id] = true
			j.nCompleted++
		}
	}
	j.tally = snap.Tally.Clone()
	j.publishEstimate(j.tally)
	pending := j.pending[:0]
	for _, id := range j.pending {
		if !done[id] {
			pending = append(pending, id)
		}
	}
	j.pending = pending
	// A fixed-count snapshot is complete when every chunk reduced; an
	// open-ended one when its restored tally already satisfies the target
	// (or its budget is spent with nothing left in flight).
	complete := j.nCompleted == j.nChunks &&
		(!j.openEnded() || j.targetMet || j.issuableChunksLocked() == 0)
	if j.openEnded() && j.targetMet {
		j.pending = nil
		complete = true
	}
	if complete {
		j.state = StateDone
		j.finishedAt = time.Now()
		close(j.finished)
		r.cache.Put(key, j.tally)
		r.cache.PutPhysics(pkey, j.tally)
	}

	r.mu.Lock()
	if live := r.byKey[key]; live != nil {
		r.mu.Unlock()
		return live, nil
	}
	r.registerLocked(j)
	// Resumes are admission-exempt (the work was admitted before the
	// restart) but they are submissions: count them.
	r.met.jobsResumed.Inc()
	j.tstats.resumed.Inc()
	if spec.replay {
		r.met.jobsReplayed.Inc()
	}
	if complete {
		r.checkDrainLocked()
	} else {
		r.activateLocked(j)
	}
	r.mu.Unlock()
	// Re-journal the restored job so the log is self-contained from here
	// on.
	r.journal.resumed(j)
	return j, nil
}

// freeIDLocked probes from a job's derived ID (JobID) to a registry-unique
// one, so IDs are stable across restarts of the same submission, name their
// shard (ShardOfID), and a stale worker from an unrelated previous run
// cannot collide with a live job by accident.
func (r *Registry) freeIDLocked(id uint64) uint64 {
	for id == 0 || r.jobs[id] != nil {
		id++
	}
	return id
}

// registerLocked assigns the job its registry-unique ID, adds it to the
// maps, and evicts old finished jobs.
func (r *Registry) registerLocked(j *Job) {
	j.id = r.freeIDLocked(JobID(&j.spec, j.key, j.pkey))
	r.seq++
	j.tstats = r.tenantLocked(j.spec.Tenant)
	j.tweight = r.opts.Tenants.Weight(j.spec.Tenant)
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	r.evictFinishedLocked()
}

// activateLocked puts a registered job with work to do in front of the
// dispatcher — on the active list, coalescible by key — and wakes the
// parked workers to start on it.
func (r *Registry) activateLocked(j *Job) {
	r.active = append(r.active, j)
	r.byKey[j.key] = j
	r.wakeLocked()
}

// evictFinishedLocked drops the oldest finished jobs over the RetainDone
// bound so a long-lived service's memory stays flat.
func (r *Registry) evictFinishedLocked() {
	if r.opts.RetainDone < 0 {
		return
	}
	finished := 0
	for _, jb := range r.order {
		if !jb.activeLocked() {
			finished++
		}
	}
	if finished <= r.opts.RetainDone {
		return
	}
	kept := r.order[:0]
	for _, jb := range r.order {
		if finished > r.opts.RetainDone && !jb.activeLocked() {
			delete(r.jobs, jb.id)
			finished--
			continue
		}
		kept = append(kept, jb)
	}
	r.order = kept
}

// Get returns the job with the given ID, or nil.
func (r *Registry) Get(id uint64) *Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// List returns statuses of every retained job in submission order.
func (r *Registry) List() []JobStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobStatus, 0, len(r.order))
	for _, j := range r.order {
		out = append(out, j.statusLocked())
	}
	return out
}

// Cancel stops a job: pending and in-flight chunks are dropped, late
// results are rejected, and waiters get ErrCanceled. Cancelling a finished
// job is an error.
func (r *Registry) Cancel(id uint64) error {
	r.mu.Lock()
	j := r.jobs[id]
	if j == nil {
		r.mu.Unlock()
		return fmt.Errorf("service: no job %016x", id)
	}
	if !j.activeLocked() {
		state := j.state
		r.mu.Unlock()
		return fmt.Errorf("service: job %016x already %s", id, state)
	}
	j.state = StateCanceled
	j.pending = nil
	j.outstanding = make(map[int]*chunkState)
	j.finishedAt = time.Now()
	close(j.finished)
	r.removeActiveLocked(j)
	delete(r.byKey, j.key)
	r.sched.Forget(j.id)
	j.trace(obs.Event{Kind: obs.EvCanceled})
	r.log.Info("job canceled", "job", jobHex(j.id))
	r.evictFinishedLocked()
	r.checkDrainLocked()
	key := j.key
	r.mu.Unlock()
	r.journal.canceled(r, key)
	return nil
}

// finishJobLocked marks a job whose last chunk just reduced as done. The
// caller must call sealJob after releasing the registry lock: waiters stay
// blocked on j.finished until then. The job stays in byKey until sealJob
// has filled the cache, so an identical submission arriving in between
// rides this job's finished channel instead of finding it neither in
// flight nor cached and computing it all again.
func (r *Registry) finishJobLocked(j *Job) {
	j.state = StateDone
	j.finishedAt = time.Now()
	r.removeActiveLocked(j)
	r.sched.Forget(j.id)
	r.evictFinishedLocked()
	r.checkDrainLocked()
}

// removeActiveLocked drops a job that just left the queued/running states
// from the dispatcher's active list.
func (r *Registry) removeActiveLocked(j *Job) {
	for i, a := range r.active {
		if a == j {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
}

// sealJob caches a finished job's tally — under both its exact content key
// and, when the tally carries moments, the physics index that serves
// meets-or-exceeds precision lookups — and releases its waiters.
func (r *Registry) sealJob(j *Job) {
	if r.sealHook != nil {
		r.sealHook()
	}
	// The job is done, so its tally is final (reduceGroup merges into live
	// jobs only): the cache, the job and every later hit share the one.
	r.cache.Put(j.key, j.tally)
	r.cache.PutPhysics(j.pkey, j.tally)
	r.mu.Lock()
	delete(r.byKey, j.key)
	// Stragglers for a done job still bump these under mu; read them there.
	reassigned, duplicates, rejected := j.reassigned, j.duplicates, j.rejected
	r.mu.Unlock()
	close(j.finished)
	r.log.Info("job done", "job", jobHex(j.id), "chunks", j.nChunks,
		"reassigned", reassigned, "duplicates", duplicates, "rejected", rejected)
}

// checkDrainLocked closes the drain channel once a one-shot registry has
// seen at least one submission and has no unfinished jobs left.
func (r *Registry) checkDrainLocked() {
	if !r.opts.DrainOnEmpty || r.seq == 0 || len(r.active) > 0 {
		return
	}
	r.drainOnce.Do(func() {
		close(r.drained)
		r.wakeLocked()
	})
}

// Drained returns a channel closed when a DrainOnEmpty registry has
// finished every submitted job (never closed for long-lived registries).
func (r *Registry) Drained() <-chan struct{} { return r.drained }

// Stats is the fleet/queue health snapshot behind GET /stats.
type Stats struct {
	Workers           int    `json:"workers"`
	JobsQueued        int    `json:"jobsQueued"`
	JobsRunning       int    `json:"jobsRunning"`
	JobsDone          int    `json:"jobsDone"`
	JobsCanceled      int    `json:"jobsCanceled"`
	PendingChunks     int    `json:"pendingChunks"`
	OutstandingChunks int    `json:"outstandingChunks"`
	ChunksAssigned    int64  `json:"chunksAssigned"`
	PhotonsCompleted  int64  `json:"photonsCompleted"`
	RejectedResults   int64  `json:"rejectedResults"`
	BatchesReduced    int64  `json:"batchesReduced"`
	TallyMerges       int64  `json:"tallyMerges"`
	CacheEntries      int    `json:"cacheEntries"`
	CacheHits         int64  `json:"cacheHits"`
	CacheMisses       int64  `json:"cacheMisses"`
	JobsSubmitted     int64  `json:"jobsSubmitted"`
	JobsResumed       int64  `json:"jobsResumed,omitempty"`
	JobsReplayed      int64  `json:"jobsReplayed,omitempty"`
	Policy            string `json:"policy"`
	Admission         string `json:"admission"`
	// Tenants is the per-tenant rollup: one entry per tenant ever seen.
	Tenants map[string]TenantStat `json:"tenants,omitempty"`
}

// TenantStat is one tenant's slice of the Stats rollup.
type TenantStat struct {
	Weight     float64 `json:"weight"`
	ActiveJobs int     `json:"activeJobs"`
	Submitted  int64   `json:"submitted"`
	Resumed    int64   `json:"resumed,omitempty"`
	Shed       int64   `json:"shed"`
	Photons    int64   `json:"photons"`
}

// Add folds another registry's snapshot into s — a gateway's merge of its
// shards' /stats. Counts sum; the settings are taken as found: policy and
// admission from the first snapshot added, a tenant's weight from the latest.
func (s *Stats) Add(o Stats) {
	if s.Policy == "" {
		s.Policy, s.Admission = o.Policy, o.Admission
	}
	s.Workers += o.Workers
	s.JobsQueued += o.JobsQueued
	s.JobsRunning += o.JobsRunning
	s.JobsDone += o.JobsDone
	s.JobsCanceled += o.JobsCanceled
	s.PendingChunks += o.PendingChunks
	s.OutstandingChunks += o.OutstandingChunks
	s.ChunksAssigned += o.ChunksAssigned
	s.PhotonsCompleted += o.PhotonsCompleted
	s.RejectedResults += o.RejectedResults
	s.BatchesReduced += o.BatchesReduced
	s.TallyMerges += o.TallyMerges
	s.CacheEntries += o.CacheEntries
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.JobsSubmitted += o.JobsSubmitted
	s.JobsResumed += o.JobsResumed
	s.JobsReplayed += o.JobsReplayed
	for name, t := range o.Tenants {
		if s.Tenants == nil {
			s.Tenants = make(map[string]TenantStat)
		}
		a := s.Tenants[name]
		a.Add(t)
		s.Tenants[name] = a
	}
}

// Add folds another registry's figures for the same tenant into t.
func (t *TenantStat) Add(o TenantStat) {
	t.Weight = o.Weight
	t.ActiveJobs += o.ActiveJobs
	t.Submitted += o.Submitted
	t.Resumed += o.Resumed
	t.Shed += o.Shed
	t.Photons += o.Photons
}

// count sums counters into the int64 the JSON bodies carry.
func count(cs ...*obs.Counter) int64 {
	var n uint64
	for _, c := range cs {
		n += c.Value()
	}
	return int64(n)
}

// Stats snapshots fleet and queue health.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.met
	s := Stats{
		Workers:          len(r.sessions),
		ChunksAssigned:   count(m.chunksGranted),
		PhotonsCompleted: count(m.photonsReduced),
		RejectedResults:  count(m.rejectedStale, m.rejectedBatch, m.rejectedBenign),
		BatchesReduced:   count(m.batchesReduced),
		TallyMerges:      count(m.tallyMerges),
		CacheEntries:     r.cache.Len(),
		CacheHits:        count(m.cacheHitExact, m.cacheHitPhysics),
		CacheMisses:      count(m.cacheMisses),
		JobsSubmitted:    count(m.jobsSubmitted),
		JobsResumed:      count(m.jobsResumed),
		JobsReplayed:     count(m.jobsReplayed),
		Policy:           r.opts.Policy.Name(),
		Admission:        r.admission.Name(),
	}
	s.Tenants = r.tenantRollupLocked()
	for _, j := range r.order {
		switch j.state {
		case StateQueued:
			s.JobsQueued++
		case StateRunning:
			s.JobsRunning++
		case StateDone:
			s.JobsDone++
		case StateCanceled:
			s.JobsCanceled++
		}
		// Only live jobs contribute queue depth: a job leaving the active
		// states (cancel, early precision finalize) sheds its chunks at
		// that transition, and any it could not shed — results mid-merge,
		// batches still buffered on workers — must not be reported as
		// schedulable backlog for a job the fleet will never serve again.
		if j.activeLocked() {
			s.PendingChunks += len(j.pending)
			s.OutstandingChunks += len(j.outstanding)
		}
	}
	return s
}

// tenantRollupLocked reads the counters and live job count of every tenant
// a submission has named: the figures /stats and /tenants both carry.
func (r *Registry) tenantRollupLocked() map[string]TenantStat {
	out := make(map[string]TenantStat, len(r.tenants))
	for name, ts := range r.tenants {
		out[name] = TenantStat{
			Weight:    r.opts.Tenants.Weight(name),
			Submitted: count(ts.submitted),
			Resumed:   count(ts.resumed),
			Shed:      count(ts.shed),
			Photons:   count(ts.photons),
		}
	}
	for _, j := range r.active {
		t := out[j.spec.Tenant]
		t.ActiveJobs++
		out[j.spec.Tenant] = t
	}
	return out
}

// TenantStatus is one tenant's live view behind GET /tenants: the Stats
// rollup's accounting and scheduling weight under its name, and — under a
// token-bucket admission policy — the current bucket levels.
type TenantStatus struct {
	Name string `json:"name"`
	TenantStat
	// Bucket state, present only when the admission policy keeps buckets.
	Class        *TenantClass `json:"class,omitempty"`
	JobTokens    *float64     `json:"jobTokens,omitempty"`
	PhotonTokens *float64     `json:"photonTokens,omitempty"`
}

// Tenants snapshots every tenant the registry knows about — seen by a
// submission, named in the configured table, or holding live admission
// buckets — sorted by name.
func (r *Registry) Tenants() []TenantStatus {
	byName := make(map[string]*TenantStatus)
	get := func(name string) *TenantStatus {
		t, ok := byName[name]
		if !ok {
			t = &TenantStatus{Name: name, TenantStat: TenantStat{Weight: r.opts.Tenants.Weight(name)}}
			byName[name] = t
		}
		return t
	}
	r.mu.Lock()
	rollup := r.tenantRollupLocked()
	r.mu.Unlock()
	for name, st := range rollup {
		get(name).TenantStat = st
	}
	if r.opts.Tenants != nil {
		for name := range r.opts.Tenants.Tenants {
			get(name)
		}
	}
	// Levels takes the admission policy's own lock; call it off r.mu.
	for _, lv := range r.admission.Levels() {
		t := get(lv.Tenant)
		class, jobs, photons := lv.Class, lv.JobTokens, lv.PhotonTokens
		t.Class, t.JobTokens, t.PhotonTokens = &class, &jobs, &photons
	}
	out := make([]TenantStatus, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
