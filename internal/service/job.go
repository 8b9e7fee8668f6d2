package service

import (
	"fmt"
	"math"
	"slices"
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
// A cache hit is not a job of its own: an exact repeat is the finished job
// it repeats, a looser precision target the deeper run that meets it.
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
	// Tally is read-only — its job and every cache hit it answers share the
	// one; Clone before merging into it.
	Tally *mc.Tally
	// Elapsed is the wall-clock job duration, first assignment to last
	// reduction (zero for a job restored done from its snapshot).
	Elapsed time.Duration
	// Chunks, Reassigned, Duplicates and Rejected describe scheduling
	// behaviour.
	Chunks     int
	Reassigned int
	Duplicates int
	Rejected   int
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

// phase is where a chunk is in its lifecycle (DESIGN.md, *Exactly-once
// under batching*). A chunk's row holds one, so it is in exactly one.
type phase uint8

const (
	phasePending  phase = iota // on the job's pending stack
	phaseOut                   // granted, its result awaited
	phaseMerging               // claimed by a group whose merge is in flight
	phaseDone                  // reduced into the tally
	phaseStranded              // out when its job finished; never reduced
	nPhases
)

// chunk is one row of a job's chunk table. grant is the grant the chunk
// is out on, set exactly while it is out (setPhase clears it). It says who
// holds the chunk now, not who may return it: that right is the session's
// grant, which a timeout reclaim does not revoke, so a late result still
// claims a chunk the reclaim gave to someone else.
type chunk struct {
	phase  phase
	queued time.Time // when the chunk last entered pending
	grant  *grant
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
	pkey Key // physics key (the meets-or-exceeds index, byPhysics)
	spec JobSpec

	// chunks is the chunk table, one row per chunk id issued — all of
	// them at submission, but for a precision-targeted (open-ended) job —
	// and inPhase counts its rows by phase (setPhase). pending stacks the
	// pending rows' ids (LIFO on requeue); expiry queues the grants of a
	// job with a ChunkTimeout, one entry per grant, in grant order
	// (reclaimExpiredLocked).
	chunks  []chunk
	inPhase [nPhases]int
	pending []int
	expiry  []*grant

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

	redMu sync.Mutex // serialises merges into tally; held before reg.mu
	tally *mc.Tally

	// chunkSecs is an EWMA of observed per-chunk compute seconds (from
	// result Elapsed), used to cap multi-chunk grants so a worker running
	// them one after another cannot be handed more chunks than fit inside
	// the job's ChunkTimeout. Zero until the first result lands.
	chunkSecs float64

	state      JobState
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

	// events is the job's bounded lifecycle trace (nil when disabled), and
	// its one timeline: a chunk-completed event carries the chunk's span.
	// It has its own mutex and never nests under the registry lock's
	// critical sections for more than a ring append.
	events *obs.Trace
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
		reg:       reg,
		key:       key,
		spec:      spec,
		chunks:    make([]chunk, n),
		pending:   make([]int, n),
		tally:     mc.NewTally(cfg),
		state:     StateQueued,
		workers:   make(map[string]*WorkerInfo),
		finished:  make(chan struct{}),
		submitted: time.Now(),
		events:    reg.newTrace(),
	}
	j.inPhase[phasePending] = n
	for id := range j.chunks {
		j.chunks[id].queued = j.submitted
		j.pending[id] = id
	}
	// An open-ended job starts with no chunks at all (numChunks returned
	// 0); the dispatcher issues them on demand via issueChunkLocked.
	return j, nil
}

// setPhase moves chunk id to phase p; a chunk that is not out is on no
// grant.
func (j *Job) setPhase(id int, p phase) {
	c := &j.chunks[id]
	j.inPhase[c.phase]--
	j.inPhase[p]++
	c.phase = p
	if p != phaseOut {
		c.grant = nil
	}
}

// chunkPhotons is chunk id's photon count: ChunkPhotons, but for a
// budgeted job's last chunk, which takes what the others leave.
func (j *Job) chunkPhotons(id int) int64 {
	if j.openEnded() {
		return j.spec.ChunkPhotons
	}
	return min(j.spec.ChunkPhotons, j.spec.TotalPhotons-int64(id)*j.spec.ChunkPhotons)
}

// openEnded reports precision-targeted (run-until-precision) issuance.
func (j *Job) openEnded() bool { return j.spec.Target != nil }

// issuableChunksLocked returns how many fresh chunks an open-ended job may
// still issue, capped for candidate accounting (the true remaining budget
// can be millions of chunks; schedulers only need "plenty").
func (j *Job) issuableChunksLocked() int {
	if !j.openEnded() || j.targetMet {
		return 0
	}
	left := j.spec.Target.MaxPhotons/j.spec.ChunkPhotons - int64(len(j.chunks))
	if left <= 0 {
		return 0
	}
	if left > int64(protocol.MaxGrantChunks) {
		return protocol.MaxGrantChunks
	}
	return int(left)
}

// issueChunkLocked synthesises the next fresh chunk of an open-ended job
// and pushes it onto pending. The caller must have checked
// issuableChunksLocked.
func (j *Job) issueChunkLocked() {
	j.pending = append(j.pending, len(j.chunks))
	j.chunks = append(j.chunks, chunk{queued: time.Now()})
	j.inPhase[phasePending]++
}

// grantLocked pops the top of pending, issuing a fresh chunk first when an
// open-ended job has none queued, and hands it out on g.
func (j *Job) grantLocked(g *grant) int {
	if len(j.pending) == 0 {
		j.issueChunkLocked()
	}
	id := j.pending[len(j.pending)-1]
	j.pending = j.pending[:len(j.pending)-1]
	j.setPhase(id, phaseOut)
	j.chunks[id].grant = g
	g.chunks = append(g.chunks, id)
	return id
}

// claimLocked moves a chunk its group may merge into merging and returns
// its row as it was. The chunk is out, or pending again after a timeout
// reclaim: the late result wins, and takes it back off the stack.
func (j *Job) claimLocked(id int) chunk {
	was := j.chunks[id]
	if was.phase == phasePending {
		j.pending = slices.DeleteFunc(j.pending, func(p int) bool { return p == id })
	}
	j.setPhase(id, phaseMerging)
	return was
}

// requeueLocked reassigns a chunk that is out or merging: it returns to
// pending with its queue-wait clock restarted, so span accounting measures
// the current wait, not the sum across reassignments; it is counted and
// traced with the worker that had it and why; and the parked workers wake
// to come and take it. Every requeue path must come through here.
func (j *Job) requeueLocked(id int, worker, why string) {
	j.setPhase(id, phasePending)
	j.chunks[id].queued = time.Now()
	j.pending = append(j.pending, id)
	j.reassigned++
	j.reg.met.chunksReassigned.Inc()
	j.trace(obs.Event{Kind: obs.EvChunkReassigned, Chunk: id, Worker: worker, Detail: why})
	j.reg.log.Debug("chunk requeued", "job", jobHex(j.id), "chunk", id, "worker", worker, "why", why)
	j.reg.wakeLocked()
}

// ID returns the job's registry-unique identifier (also the wire JobID).
func (j *Job) ID() uint64 { return j.id }

// NumChunks returns the total number of work units.
func (j *Job) NumChunks() int { return len(j.chunks) }

// Done returns a channel closed when the job finishes (done or cancelled).
func (j *Job) Done() <-chan struct{} { return j.finished }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.reg.mu.Lock()
	defer j.reg.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() JobStatus {
	state := j.state
	if state == StateDone {
		select {
		case <-j.finished:
		default:
			// Between the last reduction and the seal the result is still
			// a 202 (see API.result): the job reads as running until its
			// result can be served, so "done" always means fetchable.
			state = StateRunning
		}
	}
	st := JobStatus{
		ID:              j.id,
		IDHex:           fmt.Sprintf("%016x", j.id),
		Label:           j.spec.Label,
		Tenant:          j.spec.Tenant,
		State:           state.String(),
		TotalPhotons:    j.spec.TotalPhotons,
		ChunkPhotons:    j.spec.ChunkPhotons,
		CompletedChunks: j.inPhase[phaseDone],
		TotalChunks:     len(j.chunks),
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
	return j.inPhase[phaseDone], len(j.chunks)
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
		Chunks:     len(j.chunks),
		Reassigned: j.reassigned,
		Duplicates: j.duplicates,
		Rejected:   j.rejected,
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

// publishEstimate refreshes the job's Status-visible estimate fields from
// a tally. Reducers call it under both the reduction and registry locks;
// a snapshot resume calls it before the job is published anywhere.
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

// reclaimExpiredLocked requeues the overdue chunks, oldest grant first and
// one grant's chunks by id, and returns the deadline of the oldest grant
// still live (zero if none) — when a parked dispatcher must look again. A
// grant is live while a row still points to it. ChunkTimeout is fixed per
// job, so expiry is in deadline order: the overdue grants are a prefix,
// and each grant is pushed and popped once.
func (j *Job) reclaimExpiredLocked(now time.Time) time.Time {
	for len(j.expiry) > 0 {
		g := j.expiry[0]
		live := slices.ContainsFunc(g.chunks, func(id int) bool { return j.chunks[id].grant == g })
		if deadline := g.at.Add(j.spec.ChunkTimeout); live && !now.After(deadline) {
			return deadline
		}
		j.expiry = j.expiry[1:]
		// The order of a grant's chunks matters only while one is out on it
		// (releaseGrantLocked requeues them in it), and after this none is.
		slices.Sort(g.chunks)
		for _, id := range g.chunks {
			if j.chunks[id].grant == g {
				j.requeueLocked(id, g.sess.name, "timeout")
			}
		}
	}
	return time.Time{}
}

// snapshot is a job's resumable reduction state: a decoded snapshot
// record, which journal replay hands to Registry.restore beside the spec
// of the key's accept record.
type snapshot struct {
	NChunks   int
	Completed []int // sorted chunk ids already reduced
	Tally     *mc.Tally
}

// resume applies a snapshot to a job newJob just built, before it is
// registered: reduced chunks stay reduced and only the rest stay pending. A
// fixed-count snapshot is complete when every chunk reduced; an open-ended
// one when its restored tally already meets the target (or its budget is
// spent with nothing left in flight). A complete one leaves the job Done.
func (j *Job) resume(snap *snapshot) error {
	if snap.Tally == nil || (!j.openEnded() && snap.NChunks == 0) {
		return fmt.Errorf("service: snapshot is incomplete")
	}
	if j.openEnded() {
		// Re-issue the snapshot's chunk space; incomplete ids are queued
		// below and issuance continues past the high-water mark on demand.
		for len(j.chunks) < snap.NChunks {
			j.issueChunkLocked()
		}
	} else if len(j.chunks) != snap.NChunks {
		return fmt.Errorf("service: snapshot has %d chunks, job derives %d",
			snap.NChunks, len(j.chunks))
	}
	for _, id := range snap.Completed {
		if id < 0 || id >= len(j.chunks) {
			return fmt.Errorf("service: snapshot completed chunk %d out of range", id)
		}
		j.setPhase(id, phaseDone)
	}
	j.tally = snap.Tally.Clone()
	j.publishEstimate(j.tally)
	j.pending = slices.DeleteFunc(j.pending, func(id int) bool { return j.chunks[id].phase == phaseDone })
	if j.targetMet || j.inPhase[phaseDone] == len(j.chunks) && j.issuableChunksLocked() == 0 {
		j.state = StateDone
		j.finishedAt = time.Now()
		close(j.finished)
	}
	return nil
}
