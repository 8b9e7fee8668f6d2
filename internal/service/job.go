package service

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// JobState is the lifecycle of a job inside the registry.
//
//	Queued ──assign──▶ Running ──last chunk reduced──▶ Done
//	   │                  │
//	   └───────Cancel─────┴──▶ Canceled
//
// A cache-hit submission is born Done.
type JobState int

const (
	StateQueued JobState = iota + 1
	StateRunning
	StateDone
	StateCanceled
)

// String implements fmt.Stringer (also the HTTP API spelling).
func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// WorkerInfo summarises one worker's contribution to a job.
type WorkerInfo struct {
	Name      string
	Mflops    float64
	Chunks    int
	Connected time.Time
}

// Result is the outcome of a completed job.
type Result struct {
	// Tally is read-only — its job, the result cache and every later hit the
	// cache answers share the one; Clone before merging into it.
	Tally *mc.Tally
	// Elapsed is the wall-clock job duration, first assignment to last
	// reduction (zero for cache hits).
	Elapsed time.Duration
	// Chunks, Reassigned, Duplicates and Rejected describe scheduling
	// behaviour.
	Chunks     int
	Reassigned int
	Duplicates int
	Rejected   int
	// CacheHit reports the result was served from the content-addressed
	// cache without assigning any chunks.
	CacheHit bool
	// Target echoes a precision-targeted job's goal; TargetMet reports
	// whether the stopping rule fired (false means the photon cap ended
	// the job first — the tally still reports its achieved RSE).
	Target    *mc.Target
	TargetMet bool
	// Workers lists per-client contribution, sorted by name.
	Workers []WorkerInfo
}

// JobStatus is a point-in-time snapshot of a job (the GET /jobs/{id} body).
// For precision-targeted jobs TotalChunks counts chunks issued so far (the
// job is open-ended), PhotonsRun counts photons actually reduced, and
// Estimate/RelStdErr/CI95 report the live observable estimate — absent
// until two chunks have reduced, since one sample has no spread.
type JobStatus struct {
	ID              uint64     `json:"-"`
	IDHex           string     `json:"id"`
	Label           string     `json:"label,omitempty"`
	Tenant          string     `json:"tenant,omitempty"`
	State           string     `json:"state"`
	CacheHit        bool       `json:"cacheHit,omitempty"`
	TotalPhotons    int64      `json:"photons"`
	ChunkPhotons    int64      `json:"chunkPhotons"`
	CompletedChunks int        `json:"completedChunks"`
	TotalChunks     int        `json:"totalChunks"`
	Priority        int        `json:"priority,omitempty"`
	Weight          float64    `json:"weight,omitempty"`
	Reassigned      int        `json:"reassigned,omitempty"`
	Duplicates      int        `json:"duplicates,omitempty"`
	Rejected        int        `json:"rejected,omitempty"`
	Target          *mc.Target `json:"target,omitempty"`
	TargetMet       bool       `json:"targetMet,omitempty"`
	PhotonsRun      int64      `json:"photonsRun,omitempty"`
	Estimate        float64    `json:"estimate,omitempty"`
	RelStdErr       float64    `json:"relStdErr,omitempty"`
	CI95            float64    `json:"ci95,omitempty"`
	Submitted       time.Time  `json:"submitted"`
	Finished        time.Time  `json:"finished,omitzero"`
}

// chunkState tracks one outstanding work unit.
type chunkState struct {
	id       int
	photons  int64
	assigned time.Time
	session  uint64 // fleet session the chunk is out on
	worker   string
	tries    int
}

// Job is one simulation owned by a Registry. All mutable state is guarded
// by the registry's lock, except the tally: merges happen under the
// per-job redMu so the fleet's dispatch lock is never held across a
// (potentially grid-sized) Merge. Lock order is redMu before the registry
// lock — reducers take redMu, merge, then re-enter the registry lock to
// publish completion; the journal's snapshotRecord takes both in the same
// order to read a merge-consistent (completed set, tally) pair.
type Job struct {
	reg *Registry

	id   uint64
	key  Key
	pkey Key // physics key (meets-or-exceeds cache index)
	spec JobSpec

	// nChunks is the fixed chunk count of a budgeted job. A
	// precision-targeted job (spec.Target != nil) is open-ended: nChunks
	// is the high-water mark of chunks *issued* so far and grows as the
	// dispatcher synthesises new chunk ids.
	nChunks     int
	pending     []int // chunk ids awaiting assignment (LIFO on reassign)
	outstanding map[int]*chunkState
	photons     []int64 // photons per chunk
	completed   []bool
	nCompleted  int
	// queued stamps, per chunk, when the chunk last entered the pending
	// queue (submission, open-ended issuance, or any requeue) — the start
	// of a span's queue-wait segment. Parallel to photons/completed.
	queued []time.Time

	// Precision-job progress, published under the registry lock after
	// each merge so Status never needs the reduction lock: the live
	// estimate of the target observable, its relative standard error and
	// 95% CI half-width, photons reduced, and whether the stopping rule
	// fired (vs the photon cap).
	estimate   float64
	estRSE     float64
	estCI      float64
	photonsRun int64
	targetMet  bool

	// merging marks chunks claimed by an in-flight off-lock reduction:
	// no longer outstanding (reclaim must not requeue them), not yet
	// completed (drain must not fire). A concurrent result for a merging
	// chunk is a benign duplicate.
	merging map[int]bool
	redMu   sync.Mutex // serialises merges into tally; held before reg.mu
	tally   *mc.Tally

	// chunkSecs is an EWMA of observed per-chunk compute seconds (from
	// result Elapsed), used to cap multi-chunk grants so a worker running
	// them one after another cannot be handed more chunks than fit inside
	// the job's ChunkTimeout. Zero until the first result lands.
	chunkSecs float64

	state      JobState
	cacheHit   bool
	reassigned int
	duplicates int
	rejected   int
	workers    map[string]*WorkerInfo

	// tstats is the job's tenant accounting bucket and tweight the
	// tenant's scheduling weight, both resolved once by registerLocked so
	// the dispatch and reduce hot paths never do a map lookup per event.
	tstats  *tenantStats
	tweight float64

	submitted  time.Time
	started    time.Time
	finishedAt time.Time
	finished   chan struct{}

	// events is the job's bounded lifecycle trace (nil when disabled). It
	// has its own mutex and never nests under the registry lock's critical
	// sections for more than a ring append.
	events *obs.Trace
	// spans is the job's bounded per-chunk timing ring (nil when
	// disabled): queue-wait / wire+hold / compute / reduce segments joined
	// from server stamps and worker-reported compute durations.
	spans *obs.Spans
}

// newJob builds the chunk partition for a normalized spec. It is called
// outside the registry lock (Spec.Build can be expensive); the job's ID
// is assigned later by registerLocked.
func newJob(reg *Registry, key Key, spec JobSpec) (*Job, error) {
	cfg, err := spec.Spec.Build()
	if err != nil {
		return nil, err
	}
	n := spec.numChunks()
	j := &Job{
		reg:         reg,
		key:         key,
		spec:        spec,
		nChunks:     n,
		outstanding: make(map[int]*chunkState),
		photons:     make([]int64, n),
		completed:   make([]bool, n),
		merging:     make(map[int]bool),
		tally:       mc.NewTally(cfg),
		state:       StateQueued,
		workers:     make(map[string]*WorkerInfo),
		finished:    make(chan struct{}),
		submitted:   time.Now(),
		events:      reg.newTrace(),
		spans:       reg.newSpans(),
	}
	j.queued = make([]time.Time, n)
	remaining := spec.TotalPhotons
	for i := 0; i < n; i++ {
		p := spec.ChunkPhotons
		if p > remaining {
			p = remaining
		}
		remaining -= p
		j.photons[i] = p
		j.pending = append(j.pending, i)
		j.queued[i] = j.submitted
	}
	// An open-ended job starts with no chunks at all (numChunks returned
	// 0); the dispatcher issues them on demand via issueChunkLocked.
	return j, nil
}

// openEnded reports precision-targeted (run-until-precision) issuance.
func (j *Job) openEnded() bool { return j.spec.Target != nil }

// issuedPhotonsLocked is the photon total of every chunk issued so far
// (open-ended chunks are uniformly ChunkPhotons-sized).
func (j *Job) issuedPhotonsLocked() int64 {
	return int64(j.nChunks) * j.spec.ChunkPhotons
}

// issuableChunksLocked returns how many fresh chunks an open-ended job may
// still issue, capped for candidate accounting (the true remaining budget
// can be millions of chunks; schedulers only need "plenty").
func (j *Job) issuableChunksLocked() int {
	if !j.openEnded() || j.targetMet {
		return 0
	}
	left := (j.spec.Target.MaxPhotons - j.issuedPhotonsLocked()) / j.spec.ChunkPhotons
	if left <= 0 {
		return 0
	}
	if left > int64(protocol.MaxGrantChunks) {
		return protocol.MaxGrantChunks
	}
	return int(left)
}

// issueChunkLocked synthesises the next fresh chunk of an open-ended job.
// The caller must have checked issuableChunksLocked.
func (j *Job) issueChunkLocked() int {
	id := j.nChunks
	j.nChunks++
	j.photons = append(j.photons, j.spec.ChunkPhotons)
	j.completed = append(j.completed, false)
	j.queued = append(j.queued, time.Now())
	return id
}

// requeueLocked returns a chunk to the pending queue, restarting its
// queue-wait clock so span accounting measures the current wait, not the
// sum across reassignments, and wakes the parked workers to come and take
// it. Every requeue path must come through here.
func (j *Job) requeueLocked(id int) {
	j.pending = append(j.pending, id)
	if id >= 0 && id < len(j.queued) {
		j.queued[id] = time.Now()
	}
	j.reg.wakeLocked()
}

// queuedAtLocked returns when the chunk last entered the pending queue
// (zero for jobs predating the queue stamps, e.g. born-done jobs).
func (j *Job) queuedAtLocked(id int) time.Time {
	if id >= 0 && id < len(j.queued) {
		return j.queued[id]
	}
	return time.Time{}
}

// ID returns the job's registry-unique identifier (also the wire JobID).
func (j *Job) ID() uint64 { return j.id }

// NumChunks returns the total number of work units.
func (j *Job) NumChunks() int { return j.nChunks }

// Done returns a channel closed when the job finishes (done or cancelled).
func (j *Job) Done() <-chan struct{} { return j.finished }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	st := JobStatus{
		ID:              j.id,
		IDHex:           fmt.Sprintf("%016x", j.id),
		Label:           j.spec.Label,
		Tenant:          j.spec.Tenant,
		State:           j.state.String(),
		CacheHit:        j.cacheHit,
		TotalPhotons:    j.spec.TotalPhotons,
		ChunkPhotons:    j.spec.ChunkPhotons,
		CompletedChunks: j.nCompleted,
		TotalChunks:     j.nChunks,
		Priority:        j.spec.Priority,
		Weight:          j.spec.Weight,
		Reassigned:      j.reassigned,
		Duplicates:      j.duplicates,
		Rejected:        j.rejected,
		Target:          j.spec.Target,
		TargetMet:       j.targetMet,
		PhotonsRun:      j.photonsRun,
		Submitted:       j.submitted,
		Finished:        j.finishedAt,
	}
	// The estimate triple is published together after each merge; an
	// infinite RSE (fewer than two chunks) is withheld rather than sent
	// through JSON.
	if j.estRSE > 0 && !math.IsInf(j.estRSE, 1) {
		st.Estimate = j.estimate
		st.RelStdErr = j.estRSE
		st.CI95 = j.estCI
	}
	return st
}

// Progress returns the number of reduced chunks and the total.
func (j *Job) Progress() (completedChunks, total int) {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	return j.nCompleted, j.nChunks
}

// ErrCanceled is wrapped by Wait when the job was cancelled.
var ErrCanceled = fmt.Errorf("service: job canceled")

// Wait blocks until the job completes or the timeout elapses (zero waits
// forever), then returns the reduced result.
func (j *Job) Wait(timeout time.Duration) (*Result, error) {
	if timeout > 0 {
		select {
		case <-j.finished:
		case <-time.After(timeout):
			done, total := j.Progress()
			return nil, fmt.Errorf("service: job %016x incomplete after %v (%d/%d chunks)",
				j.id, timeout, done, total)
		}
	} else {
		<-j.finished
	}

	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	if j.state == StateCanceled {
		return nil, fmt.Errorf("%w (job %016x)", ErrCanceled, j.id)
	}
	res := &Result{
		Tally:      j.tally,
		Chunks:     j.nChunks,
		Reassigned: j.reassigned,
		Duplicates: j.duplicates,
		Rejected:   j.rejected,
		CacheHit:   j.cacheHit,
		Target:     j.spec.Target,
		TargetMet:  j.targetMet,
	}
	if !j.started.IsZero() {
		res.Elapsed = j.finishedAt.Sub(j.started)
	}
	for _, w := range j.workers {
		res.Workers = append(res.Workers, *w)
	}
	sort.Slice(res.Workers, func(i, k int) bool { return res.Workers[i].Name < res.Workers[k].Name })
	return res, nil
}

// bornDoneJob builds a completed job around a cached tally — no geometry
// construction, no chunk queue; the ID is assigned by registerLocked
// like any other job.
func bornDoneJob(reg *Registry, key Key, spec JobSpec, tally *mc.Tally) *Job {
	n := spec.numChunks()
	now := time.Now()
	j := &Job{
		reg:         reg,
		key:         key,
		spec:        spec,
		nChunks:     n,
		outstanding: make(map[int]*chunkState),
		completed:   make([]bool, n),
		nCompleted:  n,
		merging:     make(map[int]bool),
		tally:       tally,
		state:       StateDone,
		cacheHit:    true,
		workers:     make(map[string]*WorkerInfo),
		finished:    make(chan struct{}),
		submitted:   now,
		finishedAt:  now,
		events:      reg.newTrace(),
		spans:       reg.newSpans(),
	}
	for i := range j.completed {
		j.completed[i] = true
	}
	j.publishEstimate(tally)
	close(j.finished)
	return j
}

// publishEstimate refreshes the job's Status-visible estimate fields from
// a tally. Reducers call it under both the reduction and registry locks;
// construction paths (cache hits, snapshot resumes) call it before the job
// is published anywhere.
func (j *Job) publishEstimate(t *mc.Tally) {
	if t == nil || t.Moments == nil {
		return
	}
	observable := mc.ObsDiffuse
	if j.spec.Target != nil {
		observable = j.spec.Target.Observable
	}
	j.estimate, j.estCI = t.EstimateCI(observable)
	j.estRSE = t.RelStdErr(observable)
	j.photonsRun = t.Launched
	if j.spec.Target != nil && j.spec.Target.MetBy(t) {
		j.targetMet = true
	}
}

// absorbParamsLocked folds a coalesced duplicate submission's scheduling
// parameters into the live job, keeping the stronger of each: an urgent
// identical resubmission must not be silently demoted to the incumbent's
// priority or weight.
func (j *Job) absorbParamsLocked(spec JobSpec) {
	if spec.Priority > j.spec.Priority {
		j.spec.Priority = spec.Priority
	}
	if spec.Weight > j.spec.Weight {
		j.spec.Weight = spec.Weight
	}
	if j.spec.Label == "" {
		j.spec.Label = spec.Label
	}
}

// schedulable reports whether the job can receive assignments (lock held):
// requeued chunks for any job, plus fresh open-ended issuance while a
// precision target is unmet and under budget.
func (j *Job) schedulableLocked() bool {
	if j.state != StateQueued && j.state != StateRunning {
		return false
	}
	return len(j.pending) > 0 || j.issuableChunksLocked() > 0
}

// activeLocked reports whether the job still has work in flight or queued.
func (j *Job) activeLocked() bool {
	return j.state == StateQueued || j.state == StateRunning
}

// reclaimExpiredLocked requeues chunks whose results are overdue and
// returns the earliest deadline among those still outstanding (zero when
// none can expire) — when a parked dispatcher must look again.
func (j *Job) reclaimExpiredLocked(now time.Time) (next time.Time) {
	if j.spec.ChunkTimeout <= 0 || !j.activeLocked() {
		return next
	}
	for id, st := range j.outstanding {
		deadline := st.assigned.Add(j.spec.ChunkTimeout)
		if !now.After(deadline) {
			if next.IsZero() || deadline.Before(next) {
				next = deadline
			}
			continue
		}
		delete(j.outstanding, id)
		j.requeueLocked(id)
		j.reassigned++
		j.reg.met.chunksReassigned.Inc()
		j.trace(obs.Event{Kind: obs.EvChunkReassigned, Chunk: id,
			Worker: st.worker, Detail: "timeout"})
		j.reg.log.Debug("chunk timed out; requeued", "job", jobHex(j.id),
			"chunk", id, "worker", st.worker)
	}
	return next
}

// Snapshot is a job's resumable reduction state — what journal replay
// folds a job's accept and snapshot records into and hands to
// SubmitSnapshot.
type Snapshot struct {
	Spec      JobSpec
	NChunks   int
	Completed []int // sorted chunk ids already reduced
	Tally     *mc.Tally
}
