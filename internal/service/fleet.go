package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sort"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/stats"
)

// session is one live worker connection. The registry lock guards the
// fields below; each session is driven by a single HandleConn goroutine.
type session struct {
	id        uint64
	name      string
	mflops    float64
	build     string // the worker's build string, from its Hello
	remote    string // transport remote address ("" for in-memory pipes)
	connected time.Time
	lastSeen  time.Time // last TaskRequest from this connection
	// grant is what the session owns: its latest TaskAssign (nil once
	// given up). One job, because the batch is its grant: a request hands
	// back what the worker computed, syncSessionLocked gives up the rest,
	// and only then does assignLocked grant the next job's chunks.
	grant     *grant
	described protocol.Descriptors // the descriptors the worker holds

	// Per-session profile: the count of chunks this session has had
	// reduced, and its one speed, an EWMA of group photons over
	// grant-to-arrival wall time — what GET /fleet shows.
	completed   int
	inferredPPS float64

	// parked is true while the session's TaskRequest is waiting on the
	// server for something schedulable (see dispatch).
	parked bool
}

// grant is one TaskAssign: the job, the session it went to and when, and
// the ids of its chunks the session still owns. A chunk stays in chunks
// until its result is settled, the worker's next request arrives without
// it (abandoned → requeued), or the connection drops. Every row out on the
// grant points to it, and a job with a ChunkTimeout queues it once on its
// expiry queue, where it is live while some row still points to it.
// releaseGrantLocked leaves the record as it is: it may still be queued.
type grant struct {
	job    *Job
	sess   *session
	at     time.Time
	chunks []int
}

// holds reports whether the grant owns chunk id of job jobID.
func (g *grant) holds(jobID uint64, id int) bool {
	return g != nil && g.job.id == jobID && slices.Contains(g.chunks, id)
}

// drop takes chunk id of job jobID out of the grant, reporting whether the
// grant owned it.
func (g *grant) drop(jobID uint64, id int) bool {
	if !g.holds(jobID, id) {
		return false
	}
	g.chunks = slices.DeleteFunc(g.chunks, func(c int) bool { return c == id })
	return true
}

// parkMax is the dispatcher's only timer constant: the longest a parked
// TaskRequest goes unanswered. At the limit it is answered with an empty
// NoWork and the worker asks again at once, so an idle session still
// exchanges a frame about once a second — which is what keeps its
// lastSeen fresh, finds a vanished peer (the send fails) and bounds how
// long a worker whose transport cannot be interrupted waits to notice its
// Stop.
const parkMax = time.Second

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

	// A first frame that is not a Hello is most likely a v6 worker's gob
	// Hello: it is answered in the encoding that worker reads, so it stops
	// redialling with a version mismatch instead of a decode error.
	first, err := pc.Recv()
	if err != nil || first.Type != protocol.MsgHello {
		io.WriteString(rw, protocol.V6Refusal)
		if err == nil {
			err = fmt.Errorf("service: expected hello, got %v", first.Type)
		}
		return err
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
		reply, desc := r.dispatch(sess, req, acks == nil && req.Want > 0)
		if desc != nil {
			// Encoded here, off the registry lock: a voxel grid's labels are
			// megabytes.
			if reply.Assign.Job.Submission, err = AppendSubmission(nil, desc); err != nil {
				return err
			}
		}
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
		build:     h.Build,
		remote:    remote,
		connected: now,
		lastSeen:  now,
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
	r.releaseGrantLocked(sess)
}

// releaseGrantLocked gives up every chunk the session still owns. Every
// path that walks away from a grant (disconnect, a request that does not
// flush it) must come through here — a chunk left out with no owner would
// otherwise wedge a ChunkTimeout=0 job forever.
func (r *Registry) releaseGrantLocked(sess *session) {
	if g := sess.grant; g != nil {
		for _, id := range g.chunks {
			r.releaseLocked(sess, g.job, id, "abandoned")
		}
	}
	sess.grant = nil
}

// releaseLocked requeues a chunk the session gives up, if the job is still
// active and the chunk still out on the session's grant (a timeout may have
// reclaimed it already).
func (r *Registry) releaseLocked(sess *session, j *Job, id int, why string) {
	if sess.grant != nil && j.activeLocked() && j.chunks[id].grant == sess.grant {
		j.requeueLocked(id, sess.name, why)
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
// oldest grant's deadline (ChunkTimeout reclaim must fire even when every
// worker is parked and nobody asks) and parkMax.
//
// desc is set when the reply is a TaskAssign of a job whose descriptor the
// session does not hold (protocol.Descriptors): the spec the caller
// encodes into the descriptor, copied under the lock.
func (r *Registry) dispatch(sess *session, req *protocol.TaskRequest, mayPark bool) (reply *protocol.Message, desc *JobSpec) {
	noWork := func() *protocol.Message {
		return &protocol.Message{Type: protocol.MsgNoWork, NoWork: &protocol.NoWork{}}
	}
	start := time.Now()
	r.mu.Lock()
	r.syncSessionLocked(sess, start)
	reply, desc, reclaimAt := r.assignLocked(sess, req)
	if reply == nil && !mayPark {
		reply = noWork()
	}
	if reply != nil {
		r.mu.Unlock()
		return reply, desc
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
		if reply, desc, reclaimAt = r.assignLocked(sess, req); reply == nil && time.Since(start) >= parkMax {
			reply = noWork()
		}
	}
	sess.parked = false
	r.mu.Unlock()
	r.met.workersParked.Dec()
	r.met.parkSeconds.Observe(time.Since(start).Seconds())
	return reply, desc
}

// wakeLocked releases every parked request to scan again. Call it from
// every transition that can make a job schedulable or close drained.
func (r *Registry) wakeLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}

// syncSessionLocked folds a TaskRequest into the session: it is alive,
// and it gives up the chunks of its grant the request did not flush.
func (r *Registry) syncSessionLocked(sess *session, now time.Time) {
	sess.lastSeen = now
	// A worker hands back everything it computed with its next request, and
	// the request's batch has been reduced by now: whatever the session
	// still owns, the worker walked away from.
	r.releaseGrantLocked(sess)
}

// assignLocked is one dispatch scan: reclaim overdue chunks everywhere,
// gather the schedulable jobs, let the cross-job policy choose and grant.
// A nil reply means nothing is schedulable; reclaimAt is then the earliest
// deadline of a chunk still out (zero if none can expire), the moment a
// scan could next find work with no other transition.
func (r *Registry) assignLocked(sess *session, req *protocol.TaskRequest) (reply *protocol.Message, desc *JobSpec, reclaimAt time.Time) {
	if req.Want <= 0 {
		return nil, nil, time.Time{} // a flush from a worker that is leaving: nothing asked for
	}
	now := time.Now()
	policy := r.opts.Policy
	cands := r.candScratch[:0]
	jobs := r.jobScratch[:0]
	pendTotal := 0
	for _, j := range r.active {
		if next := j.reclaimExpiredLocked(now); !next.IsZero() && (reclaimAt.IsZero() || next.Before(reclaimAt)) {
			reclaimAt = next
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
		// An active job with nothing to grant has chunks out or merging.
		if len(r.active) == 0 && r.opts.DrainOnEmpty && r.seq > 0 {
			r.checkDrainLocked()
			select {
			case <-r.drained:
				return &protocol.Message{Type: protocol.MsgNoWork,
					NoWork: &protocol.NoWork{Done: true}}, nil, time.Time{}
			default:
			}
		}
		return nil, nil, reclaimAt
	}

	// r.active is in submission order (a job is registered and activated in
	// one critical section), so the scheduler's earlier-candidate tie-break
	// is first-come-first-served.
	j := jobs[r.sched.Pick(cands)]

	// Grant up to Want chunks of the picked job in one reply, all on one
	// grant record (one deadline), each its own policy charge (so
	// fair-share accounting stays per chunk; only the interleaving
	// granularity coarsens).
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
	// A fresh record, never the last one's: a given-up grant may still be
	// on the expiry queue, and syncSessionLocked gave it up.
	g := &grant{job: j, sess: sess, at: now, chunks: make([]int, 0, want)}
	sess.grant = g
	if j.spec.ChunkTimeout > 0 {
		j.expiry = append(j.expiry, g)
	}
	grantOne := func() protocol.ChunkGrant {
		id := j.grantLocked(g) // schedulable: pending or issuable
		photons := j.chunkPhotons(id)
		r.met.chunksGranted.Inc()
		j.trace(obs.Event{Kind: obs.EvChunkGranted, Chunk: id, Worker: sess.name})
		if policy.charge {
			r.sched.Charge(j.id, float64(photons))
		}
		return protocol.ChunkGrant{ChunkID: id, Stream: id, Photons: photons}
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

	assign := &protocol.TaskAssign{JobID: j.id, Grants: []protocol.ChunkGrant{grantOne()}}
	for len(assign.Grants) < want && (len(j.pending) > 0 || j.issuableChunksLocked() > 0) {
		assign.Grants = append(assign.Grants, grantOne())
	}
	if !sess.described.Has(j.id) {
		streams := len(j.chunks)
		if j.openEnded() {
			streams = 0 // open-ended: workers must not bound the stream index
		}
		assign.Job = &protocol.Job{ID: j.id, Streams: streams}
		sess.described.Add(j.id)
		// A copy: a coalesced duplicate may raise the job's priority or
		// weight once the lock is released.
		spec := j.spec
		desc = &spec
	}
	return &protocol.Message{Type: protocol.MsgTaskAssign, Assign: assign}, desc, time.Time{}
}

// reduceBatch reduces a worker-side pre-reduced batch group by group,
// returning one ack per covered chunk in batch order.
func (r *Registry) reduceBatch(sess *session, b *protocol.ResultBatch, scratch *mc.Tally) []protocol.ResultAck {
	// Counted on the way in: the last group may finish a job, and whoever
	// its Wait releases must find the batch that did it in the books.
	r.met.batchesReduced.Inc()
	acks := make([]protocol.ResultAck, 0, b.NumChunks())
	for i := range b.Groups {
		acks = append(acks, r.reduceGroup(sess, &b.Groups[i], scratch)...)
	}
	return acks
}

// verdict is the reducer's decision about one returned chunk: a row of
// DESIGN.md's *Result integrity* table.
type verdict uint8

const (
	vClaim       verdict = iota // merges, if every chunk of its group may
	vUndecodable                // the group's tally does not decode
	vUnknownJob                 // the group names no job of this registry
	vCanceled                   // the job was canceled
	vFinalized                  // a straggler computed past an early finalize
	vDuplicate                  // already reduced or being reduced
	vTwice                      // listed twice in one group
	vNoChunk                    // the job has no such chunk
	vNotGranted                 // not in the session's grant
	vRequeued                   // honest, but its group cannot merge
	vUnmergeable                // the claimed group's tally did not merge
)

// requeues reports whether the verdict hands the chunk back for an honest
// recompute, bit-identical since a chunk's tally is a function of its stream.
func (v verdict) requeues() bool {
	return v == vUndecodable || v == vRequeued || v == vUnmergeable
}

// rejection is a rejecting verdict's counter class, ack reason and event
// detail; cause is the decode or merge error.
func (r *Registry) rejection(v verdict, jobID uint64, id int, cause error) (class *obs.Counter, reason, detail string) {
	switch v {
	case vUndecodable:
		reason = fmt.Sprintf("undecodable tally: %v", cause)
		return r.met.rejectedBatch, reason, reason
	case vUnknownJob:
		return r.met.rejectedStale, fmt.Sprintf("unknown job %016x", jobID), ""
	case vCanceled:
		return r.met.rejectedStale, fmt.Sprintf("job %016x canceled", jobID), "canceled"
	case vFinalized:
		return r.met.rejectedBenign, fmt.Sprintf("job %016x already finalized", jobID), "already finalized"
	case vTwice:
		return r.met.rejectedStale, fmt.Sprintf("job %016x chunk %d listed twice in one group", jobID, id), "listed twice"
	case vNoChunk:
		return r.met.rejectedStale, fmt.Sprintf("job %016x has no chunk %d", jobID, id), "no such chunk"
	case vNotGranted:
		return r.met.rejectedStale, fmt.Sprintf("job %016x chunk %d does not match a current assignment of the session",
			jobID, id), "not in grant"
	case vRequeued:
		return r.met.rejectedBatch, fmt.Sprintf("job %016x chunk %d rode a partially stale batch; requeued", jobID, id),
			"partially stale batch"
	default: // vUnmergeable
		return r.met.rejectedBatch, fmt.Sprintf("unmergeable tally: %v", cause), "unmergeable tally"
	}
}

// inactiveVerdict judges a chunk of a job that left the active states before
// its group claimed it or while the group waited to merge. A finalized
// job's reduced chunks are duplicates, the rest stragglers of an early
// finalize: acknowledged, never merged, never requeued.
func inactiveVerdict(j *Job, id int) verdict {
	switch {
	case j.state == StateCanceled:
		return vCanceled
	case id >= 0 && id < len(j.chunks) && j.chunks[id].phase == phaseDone:
		return vDuplicate
	default:
		return vFinalized
	}
}

// classifyLocked gives every chunk of a returned group its verdict, the
// first case that fits it: a tally that does not decode rejects the whole
// group, whatever else is true of its chunks. The group merges all or
// nothing — its tally is the sum of all its chunks — so unless every chunk
// is claimable, the claimable ones are requeued instead (vRequeued).
func classifyLocked(sess *session, j *Job, jobID uint64, chunks []int, decodeErr error) (vs []verdict, claimable bool) {
	vs = make([]verdict, len(chunks))
	seen := make(map[int]bool, len(chunks))
	for i, id := range chunks {
		switch {
		case decodeErr != nil:
			vs[i] = vUndecodable
		case j == nil:
			vs[i] = vUnknownJob
		case !j.activeLocked():
			vs[i] = inactiveVerdict(j, id)
		case seen[id]: // would double-count; nothing honest sends it
			vs[i] = vTwice
		case id < 0 || id >= len(j.chunks):
			vs[i] = vNoChunk
		case j.chunks[id].phase >= phaseMerging:
			vs[i] = vDuplicate // the reassignment race
		case !sess.grant.holds(jobID, id):
			vs[i] = vNotGranted
		}
		seen[id] = true
	}
	claimable = !slices.ContainsFunc(vs, func(v verdict) bool { return v != vClaim })
	for i := range vs {
		if !claimable && vs[i] == vClaim {
			vs[i] = vRequeued
		}
	}
	return vs, claimable
}

// settleLocked applies the verdicts of a group that does not merge: each
// chunk's ack, counter, job counts, timeline (one chunk-rejected event per
// rejection the job counts) and fate. Chunks the group did not claim
// leave the session's grant; a requeueing verdict gives them back to the
// queue, claimed ones (merging) while the job is active.
func (r *Registry) settleLocked(sess *session, j *Job, jobID uint64, chunks []int, vs []verdict, claimed bool, cause error) []protocol.ResultAck {
	acks := make([]protocol.ResultAck, len(chunks))
	warn := ""
	for i, id := range chunks {
		acks[i] = protocol.ResultAck{JobID: jobID, ChunkID: id}
		owned := !claimed && sess.grant.drop(jobID, id)
		if vs[i] == vDuplicate {
			acks[i].Duplicate = true
			r.met.duplicates.Inc()
			j.duplicates++
			continue
		}
		class, reason, detail := r.rejection(vs[i], jobID, id, cause)
		acks[i].Rejected, acks[i].Reason = true, reason
		class.Inc()
		if warn == "" && class != r.met.rejectedBenign {
			warn = reason
		}
		// An unusable tally is charged to the job only for the chunks the
		// session owned; the rest could be anyone's.
		if j == nil || vs[i] == vUndecodable && !owned {
			continue
		}
		switch {
		case !vs[i].requeues():
		case claimed && j.activeLocked():
			j.requeueLocked(id, sess.name, detail)
		case owned:
			r.releaseLocked(sess, j, id, detail)
		}
		j.rejected++
		j.trace(obs.Event{Kind: obs.EvChunkRejected, Chunk: id, Worker: sess.name, Detail: detail})
	}
	if warn != "" {
		r.log.Warn("rejected result group", "worker", sess.name, "job", jobHex(jobID),
			"chunks", len(chunks), "reason", warn)
	}
	return acks
}

// joinSpan completes one chunk's span — the server-side half is its row as
// the claim found it out (phase 1), compute and reduce are known at publish
// time (phase 3) — and observes its segments on the aggregate histograms.
func (r *Registry) joinSpan(c chunk, id int, worker string, arrival time.Time, compute, reduce time.Duration) *obs.Span {
	granted := c.grant.at
	queue := granted.Sub(c.queued)
	if c.queued.IsZero() || queue < 0 {
		queue = 0
	}
	wire := max(arrival.Sub(granted)-compute, 0)
	r.met.spanQueue.Observe(queue.Seconds())
	r.met.spanWire.Observe(wire.Seconds())
	r.met.spanCompute.Observe(compute.Seconds())
	r.met.spanReduce.Observe(reduce.Seconds())
	return &obs.Span{Chunk: id, Worker: worker, Granted: granted,
		Queue: queue, Wire: wire, Compute: compute, Reduce: reduce}
}

// reduceGroup performs the exactly-once reduction of one pre-merged group
// of chunks in three phases, after decoding its tally into the caller's
// scratch tally off the registry lock:
//
//  1. under the registry lock, classify every covered chunk
//     (classifyLocked) and — only if the whole group is claimable — claim
//     the chunks into merging (claimLocked); a group that is not is
//     settled there;
//  2. off the registry lock, under the job's redMu, merge the combined
//     tally — the fleet keeps dispatching while a large tally merges;
//  3. re-enter the registry lock to publish completion, credit the worker
//     and detect job finish — or settle the claimed chunks, if the merge
//     failed or the job left the active states while the group waited.
//
// The group's ChunkSecs, when it has one entry per chunk, is the
// worker-reported per-chunk compute time; it refines the span compute
// segment, which otherwise falls back to an even share of Elapsed.
func (r *Registry) reduceGroup(sess *session, g *protocol.BatchGroup, tally *mc.Tally) []protocol.ResultAck {
	decodeErr := mc.DecodeTallyInto(tally, g.TallyData)
	arrival := time.Now()
	chunks, elapsed, secs := g.Chunks, g.Elapsed, g.ChunkSecs

	// Phase 1: classify and claim under the registry lock.
	r.mu.Lock()
	sess.lastSeen = arrival
	j := r.jobs[g.JobID]
	vs, claimable := classifyLocked(sess, j, g.JobID, chunks, decodeErr)
	if !claimable {
		acks := r.settleLocked(sess, j, g.JobID, chunks, vs, false, decodeErr)
		r.mu.Unlock()
		return acks
	}
	// Claim the chunks, seeding spans from their rows as they were. A
	// chunk that is not out on this session's grant (a timeout reclaim
	// raced this flush) has no trustworthy grant time, so it gets no span.
	// Seeds are gathered even when the job's trace is disabled: the
	// aggregate span histograms observe regardless. The late result wins
	// over the reclaim: while the chunk merges it is neither granted nor
	// reclaimed, and a failed merge queues it once.
	held := sess.grant // non-nil: every chunk of a claimable group is in it
	seeds := make([]chunk, len(chunks))
	seeded := false
	for i, id := range chunks {
		if c := j.claimLocked(id); c.grant == held {
			seeds[i], seeded = c, true
		}
		held.drop(g.JobID, id)
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
	// to waiters and repeats (Done) or discarded (Canceled); merging
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
	if mergeErr != nil || !j.activeLocked() {
		// A cancel mid-merge leaves that weight in a tally nobody reads: a
		// canceled tally is never returned or cached.
		for i, id := range chunks {
			vs[i] = vUnmergeable
			if mergeErr == nil {
				vs[i] = inactiveVerdict(j, id)
			}
		}
		acks := r.settleLocked(sess, j, g.JobID, chunks, vs, true, mergeErr)
		r.mu.Unlock()
		j.redMu.Unlock()
		return acks
	}
	var finished *Job
	// Each chunk is recorded once: its chunk-completed event carries its
	// span, the phase-1 seed joined with the worker-reported compute and
	// this merge's duration. The segment histograms observe every span,
	// even after the job's ring wraps.
	acks := make([]protocol.ResultAck, len(chunks))
	reduceShare := mergeDur / time.Duration(len(chunks))
	for i, id := range chunks {
		acks[i] = protocol.ResultAck{JobID: g.JobID, ChunkID: id}
		j.setPhase(id, phaseDone)
		var span *obs.Span
		if seed := seeds[i]; seed.grant != nil {
			compute := elapsed / time.Duration(len(chunks))
			if len(secs) == len(chunks) {
				compute = time.Duration(secs[i] * float64(time.Second))
			}
			span = r.joinSpan(seed, id, sess.name, arrival, compute, reduceShare)
		}
		j.trace(obs.Event{Kind: obs.EvChunkCompleted, Chunk: id, Worker: sess.name, Span: span})
	}
	if w := j.workers[sess.name]; w != nil {
		w.Chunks += len(chunks)
	}
	if elapsed > 0 {
		j.chunkSecs = stats.EWMA(j.chunkSecs, elapsed.Seconds()/float64(len(chunks)))
	}
	// Session profile: chunks credited, and the session's speed — group
	// photons over grant-to-arrival wall time. A grant's chunks run side by
	// side, so it reads the whole worker, all cores; it folds compute, wire
	// and hold into one number, and a chunk's span splits the wire off.
	sess.completed += len(chunks)
	if seeded {
		if wall := arrival.Sub(held.at).Seconds(); wall > 0 {
			sess.inferredPPS = stats.EWMA(sess.inferredPPS, float64(tally.Launched)/wall)
		}
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
		// The stopping rule fired: finalize immediately. Nothing is
		// granted or requeued again (stragglers that still flush are
		// benign-rejected), and the result is normalized by the photons
		// actually reduced.
		r.finishJobLocked(j, StateDone)
		finished = j
		j.trace(obs.Event{Kind: obs.EvFinalized, Detail: "target-met", Value: j.estRSE})
		r.log.Info("job met precision target", "job", jobHex(j.id),
			"observable", j.spec.Target.Observable, "relErr", j.spec.Target.RelErr,
			"photons", j.photonsRun)
	case j.inPhase[phaseDone] == len(j.chunks) && (!j.openEnded() || j.issuableChunksLocked() == 0):
		// Fixed-count: every chunk reduced. Open-ended: the photon
		// cap is spent and nothing is left in flight — the job
		// finishes unmet, reporting its achieved RSE.
		r.finishJobLocked(j, StateDone)
		finished = j
		detail := "complete"
		if j.openEnded() {
			detail = "budget-exhausted"
		}
		j.trace(obs.Event{Kind: obs.EvFinalized, Detail: detail, Value: j.estRSE})
	}
	r.mu.Unlock()
	j.redMu.Unlock()
	// Journal off both locks. On finalize this runs before sealJob:
	// waiters stay blocked on j.finished until the final snapshot is
	// appended, so nothing can mutate the returned tally mid-encode.
	r.journal.chunksReduced(r, j, len(chunks), finished != nil)
	if finished != nil {
		r.sealJob(finished) // physics index + waiter release, off the hot lock
	}
	return acks
}

// SessionStatus is one live worker session in the GET /fleet table: the
// connection's identity, build and freshness, the chunks it owns and has
// completed, and its speed as the server measures it from grant to
// result arrival (absent until a grant has come back).
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
	Version               string    `json:"version,omitempty"`
}

// Fleet snapshots every live worker session, ordered by session id
// (connection order): who is connected, with which build, and how fast
// the server has observed each to be — what speed-profile-driven grants
// (the ROADMAP's heterogeneous-fleet work) would read.
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
			ChunksCompleted:       s.completed,
			InferredPhotonsPerSec: s.inferredPPS,
			Version:               s.build,
		}
		if s.grant != nil {
			ss.ChunksHeld = len(s.grant.chunks)
		}
		if s.parked {
			ss.State = "parked"
		}
		out = append(out, ss)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}
