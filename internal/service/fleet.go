package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// session is one live worker connection. The registry lock guards the
// fields below; each session is driven by a single HandleConn goroutine.
type session struct {
	id        uint64
	name      string
	mflops    float64
	remote    string // transport remote address ("" for in-memory pipes)
	connected time.Time
	lastSeen  time.Time // last TaskRequest from this connection
	// assigned is the set of chunks this session owns: its latest grant. An
	// entry lives until its result is reduced, the worker's next request
	// arrives without it (abandoned → requeued), or the connection drops.
	assigned  map[chunkRef]*assignment
	knownJobs map[uint64]bool // descriptors already shipped on this conn

	// Per-session profile: the worker's latest piggybacked WorkerReport
	// (hasReport false until one arrives — pre-telemetry workers never
	// send one), the count of chunks this session has had reduced, and the
	// server's own ack-timing throughput inference (an EWMA of group
	// photons over grant-to-arrival wall time) — the reported-vs-inferred
	// pair GET /fleet exposes.
	report      protocol.WorkerReport
	hasReport   bool
	completed   int
	inferredPPS float64

	// parked is true while the session's TaskRequest is waiting on the
	// server for something schedulable (see dispatch).
	parked bool
}

// blend folds a sample into an EWMA, seeding on first use — the shared
// smoothing for the server's per-job chunkSecs and per-session throughput
// profiles (and the same 0.7/0.3 the worker uses for its reported EWMAs).
func blend(cur, sample float64) float64 {
	if cur == 0 {
		return sample
	}
	return 0.7*cur + 0.3*sample
}

// chunkRef names one chunk of one job.
type chunkRef struct {
	job   uint64
	chunk int
}

// parkMax is the dispatcher's only timer constant: the longest a parked
// TaskRequest goes unanswered. At the limit it is answered with an empty
// NoWork and the worker asks again at once, so an idle session still
// exchanges a frame about once a second — which is what keeps its
// telemetry report and lastSeen fresh, finds a vanished peer (the send
// fails) and bounds how long a worker whose transport cannot be
// interrupted waits to notice its Stop.
const parkMax = time.Second

// assignment pins a handed-out chunk to the session it went to.
type assignment struct {
	job     *Job
	chunkID int
}

// Serve accepts worker connections on l until l is closed — or, for a
// DrainOnEmpty registry, until every submitted job has finished. Each
// connection is handled on its own goroutine.
func (r *Registry) Serve(l net.Listener) error {
	go func() {
		<-r.drained
		l.Close()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-r.drained:
				return nil
			default:
				return err
			}
		}
		go func() {
			if err := r.HandleConn(conn); err != nil && !errors.Is(err, io.EOF) {
				r.log.Warn("connection ended", "err", err)
			}
		}()
	}
}

// HandleConn speaks the protocol with one worker over any stream transport
// (TCP connection or in-memory pipe).
func (r *Registry) HandleConn(rw io.ReadWriteCloser) error {
	pc := protocol.NewConn(rw)
	defer pc.Close()

	first, err := pc.Recv()
	if err != nil {
		return err
	}
	if first.Type != protocol.MsgHello || first.Hello == nil {
		pc.Send(&protocol.Message{Type: protocol.MsgError,
			Error: &protocol.Error{Msg: "expected hello"}})
		return fmt.Errorf("service: expected hello, got %v", first.Type)
	}
	if first.Hello.Version != protocol.Version {
		pc.Send(&protocol.Message{Type: protocol.MsgError,
			Error: &protocol.Error{Msg: fmt.Sprintf("version mismatch: server %d, client %d",
				protocol.Version, first.Hello.Version)}})
		return fmt.Errorf("service: version mismatch from %q", first.Hello.Name)
	}
	remote := ""
	if nc, ok := rw.(net.Conn); ok {
		remote = nc.RemoteAddr().String()
	}
	sess := r.registerSession(first.Hello, remote)
	defer r.releaseSession(sess)

	err = pc.Send(&protocol.Message{Type: protocol.MsgWelcome, Welcome: &protocol.Welcome{
		Version:    protocol.Version,
		ServerName: "mcqueue",
	}})
	if err != nil {
		return err
	}

	// scratch is this connection's reusable decode target: batch tallies
	// land in it, are merged into the job, and the buffers are reused for
	// the next group — steady-state batch decoding allocates almost
	// nothing.
	var scratch mc.Tally
	for {
		msg, err := pc.Recv()
		if err != nil {
			return err
		}
		if msg.Type != protocol.MsgTaskRequest {
			return fmt.Errorf("service: unexpected message %v from %q", msg.Type, sess.name)
		}
		req := msg.Request
		var acks *protocol.BatchAck
		if req.Batch != nil {
			acks = &protocol.BatchAck{Acks: r.reduceBatch(sess, req.Batch, &scratch)}
		}
		// A request that flushed results is answered at once — its acks must
		// not wait out a park — and so is one that asks for nothing.
		reply := r.dispatch(sess, req, acks == nil && req.Want > 0)
		reply.BatchAck = acks
		if err := pc.Send(reply); err != nil {
			return err
		}
		if reply.Type == protocol.MsgNoWork && reply.NoWork.Done {
			return nil
		}
	}
}

func (r *Registry) registerSession(h *protocol.Hello, remote string) *session {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextSess++
	name := h.Name
	if name == "" {
		name = fmt.Sprintf("worker-%d", r.nextSess)
	}
	now := time.Now()
	sess := &session{
		id:        r.nextSess,
		name:      name,
		mflops:    h.Mflops,
		remote:    remote,
		connected: now,
		lastSeen:  now,
		assigned:  make(map[chunkRef]*assignment),
		knownJobs: make(map[uint64]bool),
	}
	r.sessions[sess.id] = sess
	r.met.sessionsTotal.Inc()
	if r.seenNames[name] {
		r.met.reconnects.Inc()
	}
	r.seenNames[name] = true
	r.log.Info("worker connected", "worker", name, "mflops", h.Mflops)
	return sess
}

// releaseSession requeues every chunk outstanding on a dropped connection.
func (r *Registry) releaseSession(sess *session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.sessions, sess.id)
	for ref, a := range sess.assigned {
		r.releaseAssignmentLocked(sess, ref, a)
	}
}

// releaseAssignmentLocked abandons one of the session's assignments,
// requeueing its chunk if it is still outstanding on this session. Every
// path that gives up on an assignment (disconnect, a request that does not
// flush the chunk, an unmergeable result) must come through here — a
// chunk left in outstanding with no owner would otherwise wedge a
// ChunkTimeout=0 job forever.
func (r *Registry) releaseAssignmentLocked(sess *session, ref chunkRef, a *assignment) {
	delete(sess.assigned, ref)
	j := a.job
	if !j.activeLocked() {
		return
	}
	if st := j.outstanding[ref.chunk]; st != nil && st.session == sess.id {
		delete(j.outstanding, ref.chunk)
		j.requeueLocked(ref.chunk)
		j.reassigned++
		r.met.chunksReassigned.Inc()
		j.trace(obs.Event{Kind: obs.EvChunkReassigned, Chunk: ref.chunk,
			Worker: sess.name, Detail: "abandoned"})
		r.log.Debug("chunk abandoned; requeued", "job", jobHex(j.id),
			"chunk", ref.chunk, "worker", sess.name)
	}
}

// dispatch answers one TaskRequest. When nothing is schedulable and the
// request may park, it is parked instead of answered: the goroutine waits
// for the registry's wake signal and scans again, so the worker — blocked
// in Recv, which is the long-poll — gets its chunk the moment one exists
// and no timer sits between a submission and its first photon. A request
// whose reply carries acks, or that asked for no grant (mayPark false), is
// told NoWork at once.
//
// The wake channel is read in the critical section that found nothing
// schedulable, and every transition that can make a job schedulable or
// close drained swaps it under the same lock (wakeLocked), so a wake-up
// cannot fall between the check and the wait. Two timers bound a park: the
// earliest outstanding chunk deadline the scan saw (ChunkTimeout reclaim
// must fire even when every worker is parked and nobody asks) and parkMax.
func (r *Registry) dispatch(sess *session, req *protocol.TaskRequest, mayPark bool) *protocol.Message {
	noWork := func() *protocol.Message {
		return &protocol.Message{Type: protocol.MsgNoWork, NoWork: &protocol.NoWork{}}
	}
	start := time.Now()
	r.mu.Lock()
	r.syncSessionLocked(sess, req, start)
	reply, reclaimAt := r.assignLocked(sess, req)
	if reply == nil && !mayPark {
		reply = noWork()
	}
	if reply != nil {
		r.mu.Unlock()
		return reply
	}

	sess.parked = true
	r.met.workersParked.Inc()
	timer := time.NewTimer(parkMax)
	defer timer.Stop()
	for reply == nil {
		wake := r.wake
		r.mu.Unlock()
		wait := parkMax - time.Since(start)
		if !reclaimAt.IsZero() {
			wait = min(wait, time.Until(reclaimAt))
		}
		timer.Reset(wait)
		select {
		case <-wake:
		case <-timer.C:
		}
		r.mu.Lock()
		if reply, reclaimAt = r.assignLocked(sess, req); reply == nil && time.Since(start) >= parkMax {
			reply = noWork()
		}
	}
	sess.parked = false
	r.mu.Unlock()
	r.met.workersParked.Dec()
	r.met.parkSeconds.Observe(time.Since(start).Seconds())
	return reply
}

// wakeLocked releases every parked request to scan again. Call it from
// every transition that can make a job schedulable or close drained.
func (r *Registry) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// syncSessionLocked folds a TaskRequest's advertised state into the
// session: liveness, telemetry, the descriptors the worker still caches —
// and gives up the assignments the request did not flush.
func (r *Registry) syncSessionLocked(sess *session, req *protocol.TaskRequest, now time.Time) {
	if sess.assigned == nil { // tests construct sessions directly
		sess.assigned = make(map[chunkRef]*assignment)
	}
	sess.lastSeen = now
	if req.Report != nil {
		// Fold the piggybacked telemetry into the session profile. The
		// report is the worker's own EWMA state, so the latest one simply
		// replaces the previous — no server-side re-smoothing.
		sess.report = *req.Report
		sess.hasReport = true
	}
	// The request's KnownJobs list is authoritative: the worker may have
	// evicted descriptors it advertised earlier, in which case the next
	// assignment of that job must re-carry the descriptor.
	clear(sess.knownJobs)
	for _, id := range req.KnownJobs {
		sess.knownJobs[id] = true
	}
	// A worker hands back everything it computed with its next request, and
	// the request's batch has been reduced by now: whatever the session
	// still owns, the worker walked away from.
	for ref, a := range sess.assigned {
		r.releaseAssignmentLocked(sess, ref, a)
	}
}

// assignLocked is one dispatch scan: reclaim overdue chunks everywhere,
// gather the schedulable jobs, let the cross-job policy choose and grant.
// A nil reply means nothing is schedulable; reclaimAt is then the earliest
// deadline of a chunk still outstanding (zero if none can expire), the
// moment a scan could next find work with no other transition.
func (r *Registry) assignLocked(sess *session, req *protocol.TaskRequest) (reply *protocol.Message, reclaimAt time.Time) {
	if req.Want <= 0 {
		return nil, time.Time{} // a flush from a worker that is leaving: nothing asked for
	}
	now := time.Now()
	policy := r.opts.Policy
	cands := r.candScratch[:0]
	jobs := r.jobScratch[:0]
	outstanding := false
	pendTotal := 0
	for _, j := range r.active {
		if next := j.reclaimExpiredLocked(now); !next.IsZero() && (reclaimAt.IsZero() || next.Before(reclaimAt)) {
			reclaimAt = next
		}
		if len(j.outstanding) > 0 || len(j.merging) > 0 {
			outstanding = true
		}
		if !j.schedulableLocked() {
			continue
		}
		// Open-ended jobs count their issuable headroom (capped) alongside
		// requeued chunks, so grant sizing sees real depth.
		pendTotal += len(j.pending) + j.issuableChunksLocked()
		cands = append(cands, policy.candidate(j))
		jobs = append(jobs, j)
	}
	r.candScratch, r.jobScratch = cands, jobs // reuse the backing arrays

	if len(cands) == 0 {
		if !outstanding && r.opts.DrainOnEmpty && r.seq > 0 {
			r.checkDrainLocked()
			select {
			case <-r.drained:
				return &protocol.Message{Type: protocol.MsgNoWork,
					NoWork: &protocol.NoWork{Done: true}}, time.Time{}
			default:
			}
		}
		return nil, reclaimAt
	}

	// r.active is in submission order (a job is registered and activated in
	// one critical section), so the scheduler's earlier-candidate tie-break
	// is first-come-first-served.
	j := jobs[r.sched.Pick(cands)]

	// Grant up to Want chunks of the picked job in one reply. Every grant
	// gets its own outstanding entry (so per-chunk timeout reassignment is
	// unchanged) and its own policy charge (so fair-share accounting stays
	// per chunk; only the interleaving granularity coarsens).
	want := min(req.Want, protocol.MaxGrantChunks)
	if want > 1 {
		// Keep the tail parallel: when the whole schedulable queue is
		// shallow relative to the fleet, never hand one worker more than
		// its fleet-fair share of it.
		if n := len(r.sessions); n > 1 {
			if fair := (pendTotal + n - 1) / n; fair < want {
				want = fair
			}
		}
		// Keep the grant inside the timeout envelope: on a one-core worker
		// the grant's chunks run one after another, so the last chunk's
		// clock runs for the whole window (a worker with more cores runs
		// them side by side, and the bound is conservative there).
		// Granting more than ~a quarter of the timeout's worth of estimated
		// compute would make spurious reclaims — and, with all-or-nothing
		// batches, wholesale recomputes — systematic. With no estimate yet,
		// probe one chunk at a time.
		if j.spec.ChunkTimeout > 0 {
			byTimeout := 1
			if j.chunkSecs > 0 {
				byTimeout = int(j.spec.ChunkTimeout.Seconds() / (4 * j.chunkSecs))
			}
			if byTimeout < want {
				want = byTimeout
			}
		}
		if want < 1 {
			want = 1
		}
	}
	grant := func() protocol.ChunkGrant {
		var id int
		if n := len(j.pending); n > 0 {
			id = j.pending[n-1]
			j.pending = j.pending[:n-1]
		} else {
			// Open-ended issuance: synthesise the next fresh chunk. The
			// schedulable check (or the loop condition below) guaranteed
			// budget headroom.
			id = j.issueChunkLocked()
		}
		tries := 1
		if st := j.outstanding[id]; st != nil {
			tries = st.tries + 1
		}
		j.outstanding[id] = &chunkState{
			id: id, photons: j.photons[id], assigned: now,
			session: sess.id, worker: sess.name, tries: tries,
		}
		r.met.chunksGranted.Inc()
		j.trace(obs.Event{Kind: obs.EvChunkGranted, Chunk: id, Worker: sess.name})
		if policy.charge {
			r.sched.Charge(j.id, float64(j.photons[id]))
		}
		sess.assigned[chunkRef{j.id, id}] = &assignment{job: j, chunkID: id}
		return protocol.ChunkGrant{ChunkID: id, Stream: id, Photons: j.photons[id]}
	}

	if j.state == StateQueued {
		j.state = StateRunning
	}
	if j.started.IsZero() {
		j.started = now
	}
	if _, ok := j.workers[sess.name]; !ok {
		j.workers[sess.name] = &WorkerInfo{
			Name: sess.name, Mflops: sess.mflops, Connected: sess.connected,
		}
	}

	assign := &protocol.TaskAssign{JobID: j.id, Grants: []protocol.ChunkGrant{grant()}}
	for len(assign.Grants) < want && (len(j.pending) > 0 || j.issuableChunksLocked() > 0) {
		assign.Grants = append(assign.Grants, grant())
	}
	if !sess.knownJobs[j.id] {
		streams := j.nChunks
		if j.openEnded() {
			streams = 0 // open-ended: workers must not bound the stream index
		}
		assign.Job = &protocol.Job{
			ID:      j.id,
			Spec:    *j.spec.Spec,
			Seed:    j.spec.Seed,
			Streams: streams,
			Fan:     j.spec.Fan,
			Target:  j.spec.Target,
		}
		sess.knownJobs[j.id] = true
	}
	return &protocol.Message{Type: protocol.MsgTaskAssign, Assign: assign}, time.Time{}
}

// reduceBatch reduces a worker-side pre-reduced batch group by group,
// returning one ack per covered chunk in batch order. Each group's tally
// is decoded into the caller's scratch tally off the registry lock.
func (r *Registry) reduceBatch(sess *session, b *protocol.ResultBatch, scratch *mc.Tally) []protocol.ResultAck {
	// Counted on the way in: the last group may finish a job, and whoever
	// its Wait releases must find the batch that did it in the books.
	r.met.batchesReduced.Inc()
	acks := make([]protocol.ResultAck, 0, b.NumChunks())
	for i := range b.Groups {
		g := &b.Groups[i]
		if err := mc.DecodeTallyInto(scratch, g.TallyData); err != nil {
			// The payload is unusable; give the chunks back to the queue so
			// an honest recompute can finish the job.
			acks = append(acks, r.rejectGroup(sess, g, fmt.Sprintf("undecodable tally: %v", err))...)
			continue
		}
		acks = append(acks, r.reduceGroup(sess, g.JobID, g.Chunks, scratch, g.Elapsed, g.ChunkSecs)...)
	}
	return acks
}

// rejectGroup rejects every chunk of a group, requeueing the ones this
// session legitimately owned.
func (r *Registry) rejectGroup(sess *session, g *protocol.BatchGroup, reason string) []protocol.ResultAck {
	r.mu.Lock()
	defer r.mu.Unlock()
	acks := make([]protocol.ResultAck, 0, len(g.Chunks))
	for _, id := range g.Chunks {
		ref := chunkRef{g.JobID, id}
		if a := sess.assigned[ref]; a != nil {
			r.releaseAssignmentLocked(sess, ref, a)
			a.job.rejected++
			a.job.trace(obs.Event{Kind: obs.EvChunkRejected, Chunk: id,
				Worker: sess.name, Detail: reason})
		}
		r.met.rejectedBatch.Inc()
		acks = append(acks, protocol.ResultAck{JobID: g.JobID, ChunkID: id, Rejected: true, Reason: reason})
	}
	r.log.Warn("rejected result group", "worker", sess.name,
		"chunks", len(g.Chunks), "reason", reason)
	return acks
}

// spanSeed is the server-side half of one chunk's span, captured at claim
// time (phase 1) while the chunk's outstanding entry still exists, and
// joined with compute/reduce durations at publish time (phase 3).
type spanSeed struct {
	idx     int // index into the group's chunk list (for per-chunk timings)
	chunk   int
	granted time.Time
	queued  time.Time
}

// reduceGroup performs the exactly-once reduction of one pre-merged group
// of chunks in three phases:
//
//  1. under the registry lock, classify every covered chunk (duplicate,
//     stale, or claimable) and — only if the whole group is claimable —
//     claim the chunks by moving them from outstanding into the job's
//     merging set;
//  2. off the registry lock, under the job's redMu, merge the combined
//     tally — the fleet keeps dispatching while a large tally merges;
//  3. re-enter the registry lock to publish completion, credit the worker
//     and detect job finish.
//
// A group is all-or-nothing: the tally is the sum of all covered chunks,
// so if any chunk is a duplicate (the timeout-reassignment race) the
// others are requeued for an honest recompute instead of merging a blob
// that would double-count. Chunk tallies are pure functions of the stream
// index, so the recompute reproduces the identical result.
//
// secs, when it has one entry per chunk, is the worker-reported per-chunk
// compute time (BatchGroup.ChunkSecs); it refines the span compute
// segment, which otherwise falls back to an even share of elapsed.
func (r *Registry) reduceGroup(sess *session, jobID uint64, chunks []int, tally *mc.Tally, elapsed time.Duration, secs []float64) []protocol.ResultAck {
	arrival := time.Now()
	acks := make([]protocol.ResultAck, len(chunks))
	for i, id := range chunks {
		acks[i] = protocol.ResultAck{JobID: jobID, ChunkID: id}
	}
	reject := func(i int, class *obs.Counter, reason string) {
		acks[i].Rejected = true
		acks[i].Reason = reason
		class.Inc()
	}

	// Phase 1: classify and claim under the registry lock.
	r.mu.Lock()
	sess.lastSeen = arrival
	j := r.jobs[jobID]
	if j == nil {
		for i, id := range chunks {
			delete(sess.assigned, chunkRef{jobID, id})
			reject(i, r.met.rejectedStale, fmt.Sprintf("unknown job %016x", jobID))
		}
		r.mu.Unlock()
		r.log.Warn("rejected result for unknown job", "worker", sess.name, "job", jobHex(jobID))
		return acks
	}
	if j.state == StateCanceled {
		for i, id := range chunks {
			delete(sess.assigned, chunkRef{jobID, id}) // nothing to requeue; Cancel dropped the chunks
			reject(i, r.met.rejectedStale, fmt.Sprintf("job %016x canceled", jobID))
			j.rejected++
			j.trace(obs.Event{Kind: obs.EvChunkRejected, Chunk: id,
				Worker: sess.name, Detail: "canceled"})
		}
		r.mu.Unlock()
		r.log.Warn("rejected result for canceled job", "worker", sess.name, "job", jobHex(jobID))
		return acks
	}
	if j.state == StateDone {
		// An early-finalized precision job (a done fixed-count job has
		// every chunk completed and takes the duplicate path below):
		// chunks reduced before the stopping point are the benign
		// duplicate race, stragglers computed past it are benign-rejected
		// — acknowledged, never merged, never requeued.
		for i, id := range chunks {
			delete(sess.assigned, chunkRef{jobID, id})
			if id >= 0 && id < j.nChunks && j.completed[id] {
				acks[i].Duplicate = true
				j.duplicates++
				r.met.duplicates.Inc()
			} else {
				reject(i, r.met.rejectedBenign, fmt.Sprintf("job %016x already finalized", jobID))
				j.rejected++
				j.trace(obs.Event{Kind: obs.EvChunkRejected, Chunk: id,
					Worker: sess.name, Detail: "already finalized"})
			}
		}
		r.mu.Unlock()
		return acks
	}

	claimable := true
	seen := make(map[int]bool, len(chunks))
	for i, id := range chunks {
		switch {
		case seen[id]:
			// A repeated chunk in one group would double-count its
			// completion; nothing honest produces it.
			reject(i, r.met.rejectedStale, fmt.Sprintf("job %016x chunk %d listed twice in one group", jobID, id))
			j.rejected++
			claimable = false
			continue
		case id < 0 || id >= j.nChunks:
			reject(i, r.met.rejectedStale, fmt.Sprintf("job %016x has no chunk %d", jobID, id))
			j.rejected++
			claimable = false
		case j.completed[id] || j.merging[id]:
			// Already reduced (or being reduced): the reassignment race.
			acks[i].Duplicate = true
			j.duplicates++
			r.met.duplicates.Inc()
			// Any outstanding entry for a completed chunk is stale (a
			// reassignment the merge beat to the finish line); drop it so
			// the reclaim loop cannot requeue an already-reduced chunk.
			if j.completed[id] {
				delete(j.outstanding, id)
			}
			delete(sess.assigned, chunkRef{jobID, id})
			claimable = false
		case sess.assigned[chunkRef{jobID, id}] == nil:
			reject(i, r.met.rejectedStale, fmt.Sprintf("job %016x chunk %d does not match a current assignment of the session",
				jobID, id))
			j.rejected++
			claimable = false
		}
		seen[id] = true
	}
	if !claimable {
		// Mixed group: requeue the chunks that were honestly owned so the
		// fleet recomputes them, and report why.
		for i, id := range chunks {
			if acks[i].Duplicate || acks[i].Rejected {
				continue
			}
			ref := chunkRef{jobID, id}
			r.releaseAssignmentLocked(sess, ref, sess.assigned[ref])
			reject(i, r.met.rejectedBatch, fmt.Sprintf("job %016x chunk %d rode a partially stale batch; requeued", jobID, id))
			j.rejected++
			j.trace(obs.Event{Kind: obs.EvChunkRejected, Chunk: id,
				Worker: sess.name, Detail: "partially stale batch"})
		}
		r.mu.Unlock()
		r.log.Warn("rejected partially stale result group", "worker", sess.name,
			"job", jobHex(jobID), "chunks", len(chunks))
		return acks
	}
	// Claim the chunks, seeding spans from the outstanding entries before
	// they go. A chunk whose entry is missing or owned by another session
	// (a timeout reclaim raced this flush — the late result still wins the
	// reduction) has no trustworthy grant stamp, so it gets no span. Seeds
	// are gathered even when the per-job ring is disabled: the aggregate
	// span histograms observe regardless.
	var seeds []spanSeed
	var minGranted time.Time
	for i, id := range chunks {
		if st := j.outstanding[id]; st != nil && st.session == sess.id {
			seeds = append(seeds, spanSeed{idx: i, chunk: id,
				granted: st.assigned, queued: j.queuedAtLocked(id)})
			if minGranted.IsZero() || st.assigned.Before(minGranted) {
				minGranted = st.assigned
			}
		}
		delete(j.outstanding, id) // late result wins over any reassignment
		j.merging[id] = true
		delete(sess.assigned, chunkRef{jobID, id})
	}
	r.mu.Unlock()

	// Phase 2: merge off the registry lock. redMu serialises merges into
	// this job's tally and orders before the registry lock (the journal's
	// snapshotRecord takes them in the same order).
	j.redMu.Lock()
	// Re-check liveness now that the reduction lock is held: a cancel —
	// or another batch meeting the job's precision target — may have
	// landed while this group waited, and a job that left the active
	// states must not absorb more weight. Its tally is either published
	// to waiters and the cache (Done) or discarded (Canceled); merging
	// into it after the fact would corrupt the former and waste work on
	// the latter, and /stats lifecycle counters would drift from the
	// tallies behind them. State changes to Done require this redMu, so
	// the check cannot go stale before the merge below.
	r.mu.Lock()
	live := j.activeLocked()
	r.mu.Unlock()
	var mergeErr error
	var mergeDur time.Duration
	if live {
		mergeStart := time.Now()
		mergeErr = j.tally.Merge(tally)
		mergeDur = time.Since(mergeStart)
		r.met.reduceSeconds.Observe(mergeDur.Seconds())
	}

	// Phase 3: publish.
	r.mu.Lock()
	var finished *Job
	var reduced bool
	switch {
	case mergeErr != nil:
		for i, id := range chunks {
			delete(j.merging, id)
			if j.activeLocked() {
				j.requeueLocked(id) // honest recompute
				j.reassigned++
				r.met.chunksReassigned.Inc()
				j.trace(obs.Event{Kind: obs.EvChunkReassigned, Chunk: id,
					Worker: sess.name, Detail: "unmergeable tally"})
			}
			reject(i, r.met.rejectedBatch, fmt.Sprintf("unmergeable tally: %v", mergeErr))
			j.rejected++
		}
		r.log.Warn("rejected unmergeable result group", "worker", sess.name,
			"job", jobHex(jobID), "chunks", len(chunks), "err", mergeErr)
	case !live || !j.activeLocked():
		// The job was canceled (possibly mid-merge: that weight is
		// invisible — a canceled tally is never returned or cached) or
		// finalized while this group waited on the reduction lock; the
		// chunks are already dropped or moot.
		reason, class := "canceled", r.met.rejectedStale
		if j.state == StateDone {
			reason, class = "already finalized", r.met.rejectedBenign
		}
		for i := range chunks {
			delete(j.merging, chunks[i])
			reject(i, class, fmt.Sprintf("job %016x %s", jobID, reason))
			j.rejected++
			j.trace(obs.Event{Kind: obs.EvChunkRejected, Chunk: chunks[i],
				Worker: sess.name, Detail: reason})
		}
	default:
		reduced = true
		for _, id := range chunks {
			delete(j.merging, id)
			j.completed[id] = true
			j.nCompleted++
			j.trace(obs.Event{Kind: obs.EvChunkCompleted, Chunk: id, Worker: sess.name})
			// If a timeout reclaimed this chunk before the late result
			// landed, it is back in pending (purge it or the fleet
			// recomputes a reduced chunk) — or was even re-assigned while
			// the merge ran (drop the stale outstanding entry so the
			// reclaim loop cannot requeue a completed chunk).
			delete(j.outstanding, id)
			for i, p := range j.pending {
				if p == id {
					j.pending = append(j.pending[:i], j.pending[i+1:]...)
					break
				}
			}
		}
		if w := j.workers[sess.name]; w != nil {
			w.Chunks += len(chunks)
		}
		if elapsed > 0 {
			j.chunkSecs = blend(j.chunkSecs, elapsed.Seconds()/float64(len(chunks)))
		}
		// Session profile: chunks credited, and the ack-timing throughput
		// inference — group photons over earliest-grant-to-arrival wall
		// time. It folds compute, wire and hold into one number (unlike
		// the worker's reported kernel-only EWMA), which is exactly the
		// reported-vs-inferred contrast /fleet exists to show.
		sess.completed += len(chunks)
		if !minGranted.IsZero() {
			if wall := arrival.Sub(minGranted).Seconds(); wall > 0 {
				sess.inferredPPS = blend(sess.inferredPPS, float64(tally.Launched)/wall)
			}
		}
		// Join the phase-1 seeds with the worker-reported compute and this
		// merge's duration into per-chunk spans; the segment histograms
		// observe every span even after the per-job ring wraps.
		reduceShare := mergeDur / time.Duration(len(chunks))
		for _, sd := range seeds {
			compute := elapsed / time.Duration(len(chunks))
			if len(secs) == len(chunks) {
				compute = time.Duration(secs[sd.idx] * float64(time.Second))
			}
			queue := sd.granted.Sub(sd.queued)
			if sd.queued.IsZero() || queue < 0 {
				queue = 0
			}
			wire := arrival.Sub(sd.granted) - compute
			if wire < 0 {
				wire = 0
			}
			j.spans.Record(obs.Span{
				Chunk: sd.chunk, Worker: sess.name, Granted: sd.granted,
				Queue: queue, Wire: wire, Compute: compute, Reduce: reduceShare,
			})
			r.met.spanQueue.Observe(queue.Seconds())
			r.met.spanWire.Observe(wire.Seconds())
			r.met.spanCompute.Observe(compute.Seconds())
			r.met.spanReduce.Observe(reduceShare.Seconds())
		}
		r.met.tallyMerges.Inc()
		r.met.chunksCompleted.Add(uint64(len(chunks)))
		r.met.photonsReduced.Add(uint64(tally.Launched))
		j.tstats.photons.Add(uint64(tally.Launched))
		// Re-estimate the observable off the dispatch-critical path (the
		// moment arithmetic is a handful of float ops on the already
		// redMu-guarded tally) and publish it for Status readers.
		j.publishEstimate(j.tally)
		if j.openEnded() {
			j.trace(obs.Event{Kind: obs.EvEstimate, Value: j.estRSE})
		}
		switch {
		case j.openEnded() && j.targetMet:
			// The stopping rule fired: finalize immediately. Granting
			// stops, queued and in-flight chunks are shed (stragglers
			// that still flush are benign-rejected above), and the
			// result is normalized by the photons actually reduced.
			j.pending = nil
			j.outstanding = make(map[int]*chunkState)
			r.finishJobLocked(j)
			finished = j
			j.trace(obs.Event{Kind: obs.EvFinalized, Detail: "target-met", Value: j.estRSE})
			r.log.Info("job met precision target", "job", jobHex(j.id),
				"observable", j.spec.Target.Observable, "relErr", j.spec.Target.RelErr,
				"photons", j.photonsRun)
		case j.nCompleted == j.nChunks && (!j.openEnded() || j.issuableChunksLocked() == 0):
			// Fixed-count: every chunk reduced. Open-ended: the photon
			// cap is spent and nothing is left in flight — the job
			// finishes unmet, reporting its achieved RSE.
			r.finishJobLocked(j)
			finished = j
			detail := "complete"
			if j.openEnded() {
				detail = "budget-exhausted"
			}
			j.trace(obs.Event{Kind: obs.EvFinalized, Detail: detail, Value: j.estRSE})
		}
	}
	r.mu.Unlock()
	j.redMu.Unlock()
	if reduced {
		// Journal off both locks. On finalize this runs before sealJob:
		// waiters stay blocked on j.finished until the final snapshot is
		// appended, so nothing can mutate the returned tally mid-encode.
		r.journal.chunksReduced(r, j, len(chunks), finished != nil)
	}
	if finished != nil {
		r.sealJob(finished) // cache clone + waiter release, off the hot lock
	}
	return acks
}

// SessionStatus is one live worker session in the GET /fleet table: the
// connection's identity and freshness, the chunks it owns and has
// completed, and the reported-vs-inferred throughput pair — the worker's
// own kernel EWMA next to the server's ack-timing estimate. The reported
// fields (photons/sec through version) are zero/absent for sessions that
// have never piggybacked a WorkerReport.
type SessionStatus struct {
	ID                    uint64    `json:"id"`
	Name                  string    `json:"name"`
	Remote                string    `json:"remote,omitempty"`
	Mflops                float64   `json:"mflops,omitempty"`
	Connected             time.Time `json:"connectedSince"`
	LastSeen              time.Time `json:"lastSeen"`
	State                 string    `json:"state"` // "parked" awaiting work, else "computing"
	ChunksHeld            int       `json:"chunksHeld"`
	ChunksCompleted       int       `json:"chunksCompleted"`
	InferredPhotonsPerSec float64   `json:"inferredPhotonsPerSec,omitempty"`
	ReportedPhotonsPerSec float64   `json:"reportedPhotonsPerSec,omitempty"`
	ChunkSeconds          float64   `json:"chunkSeconds,omitempty"`
	EncodeSeconds         float64   `json:"encodeSeconds,omitempty"`
	Goroutines            int       `json:"goroutines,omitempty"`
	HeapBytes             uint64    `json:"heapBytes,omitempty"`
	Version               string    `json:"version,omitempty"`
}

// Fleet snapshots every live worker session, ordered by session id
// (connection order): who is connected, how fast each worker says it is,
// and how fast the server has observed it to be — what speed-profile-driven
// grants (parked in ROADMAP) would read.
func (r *Registry) Fleet() []SessionStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SessionStatus, 0, len(r.sessions))
	for _, s := range r.sessions {
		ss := SessionStatus{
			ID:                    s.id,
			Name:                  s.name,
			Remote:                s.remote,
			Mflops:                s.mflops,
			Connected:             s.connected,
			LastSeen:              s.lastSeen,
			State:                 "computing",
			ChunksHeld:            len(s.assigned),
			ChunksCompleted:       s.completed,
			InferredPhotonsPerSec: s.inferredPPS,
		}
		if s.parked {
			ss.State = "parked"
		}
		if s.hasReport {
			ss.ReportedPhotonsPerSec = s.report.PhotonsPerSec
			ss.ChunkSeconds = s.report.ChunkSecs
			ss.EncodeSeconds = s.report.EncodeSecs
			ss.Goroutines = s.report.Goroutines
			ss.HeapBytes = s.report.HeapBytes
			ss.Version = s.report.Version
		}
		out = append(out, ss)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
