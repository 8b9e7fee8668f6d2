package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/source"
	"repro/internal/tissue"
)

// slabSpec returns a cheap layered simulation spec; thickness varies the
// content key, so different thicknesses are different jobs.
func slabSpec(thicknessMM float64) *mc.Spec {
	model := tissue.HomogeneousSlab("slab", tissue.ScalpProps, thicknessMM)
	return mc.NewSpec(model,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
}

// localTally computes the ground-truth reduction of a job's streams.
func localTally(t *testing.T, spec *mc.Spec, total, chunk int64, seed uint64) *mc.Tally {
	t.Helper()
	return localTallyFan(t, spec, total, chunk, seed, 0)
}

// localTallyFan is localTally for fanned jobs: the standalone decomposition
// a fan-width-f distributed job must reproduce.
func localTallyFan(t *testing.T, spec *mc.Spec, total, chunk int64, seed uint64, fan int) *mc.Tally {
	t.Helper()
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	streams := int((total + chunk - 1) / chunk)
	want := mc.NewTally(cfg)
	remaining := total
	for s := 0; s < streams; s++ {
		n := chunk
		if n > remaining {
			n = remaining
		}
		remaining -= n
		tt, err := mc.RunStreamFan(cfg, n, seed, s, streams, fan)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Merge(tt); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// startWorkers attaches n in-memory pipe workers to the registry and
// arranges for their goroutines to die when the test ends.
func startWorkers(t *testing.T, reg *Registry, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		server, client := net.Pipe()
		go reg.HandleConn(server)
		name := string(rune('a' + i))
		go func() {
			// Long-lived registries never say Done; the worker exits when
			// the test closes its pipe.
			_, _ = workClient(client, name)
		}()
		t.Cleanup(func() { client.Close() })
	}
}

// oneChunkBatch is the single-result path: a batch covering one chunk.
func oneChunkBatch(jobID uint64, chunk int, tally *mc.Tally) *protocol.ResultBatch {
	return &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
		JobID: jobID, Chunks: []int{chunk}, TallyData: mc.AppendTally(nil, tally),
	}}}
}

// flushOnly is the request of a worker that is leaving: it hands back a
// batch and asks for no grant, so the reply is NoWork plus the acks.
func flushOnly(b *protocol.ResultBatch) *protocol.Message {
	return &protocol.Message{Type: protocol.MsgTaskRequest, Request: &protocol.TaskRequest{Batch: b}}
}

// oneGrant is a single-chunk assignment as the hand-driven tests hold it.
type oneGrant struct {
	JobID uint64
	protocol.ChunkGrant
}

// grantOf unpacks the i-th chunk of an assignment.
func grantOf(a *protocol.TaskAssign, i int) *oneGrant {
	return &oneGrant{JobID: a.JobID, ChunkGrant: a.Grants[i]}
}

// nextChunk asks for one chunk on the session's behalf, never parking; nil
// means nothing was assigned.
func (r *Registry) nextChunk(sess *session) *oneGrant {
	msg := r.nextAssignment(sess, want(1))
	if msg.Type != protocol.MsgTaskAssign {
		return nil
	}
	return grantOf(msg.Assign, 0)
}

// reduceOne delivers one chunk's tally through the production batch
// reducer and returns that chunk's ack.
func reduceOne(reg *Registry, sess *session, a *oneGrant, tally *mc.Tally) protocol.ResultAck {
	return reg.reduceBatch(sess, oneChunkBatch(a.JobID, a.ChunkID, tally), &mc.Tally{})[0]
}

// workClient is a minimal one-chunk-per-round-trip worker loop.
func workClient(rw net.Conn, name string) (int, error) {
	return batchClient(rw, name, 1)
}

// batchClient is a minimal worker that mirrors distsys.Work's result plane
// (which lives above this package in the import graph): every request asks
// for up to window chunks, the grant is computed with the job's fan and
// pre-reduced into one group, and the batch rides the next request.
func batchClient(rw net.Conn, name string, window int) (int, error) {
	pc := protocol.NewConn(rw)
	defer pc.Close()
	if err := pc.Send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: name}}); err != nil {
		return 0, err
	}
	if _, err := pc.Recv(); err != nil {
		return 0, err
	}
	type rt struct {
		cfg     *mc.Config
		seed    uint64
		streams int
		fan     int
	}
	jobs := map[uint64]*rt{}
	var batch *protocol.ResultBatch
	accepted := 0
	for {
		if err := pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest,
			Request: &protocol.TaskRequest{Want: window, Batch: batch}}); err != nil {
			return accepted, err
		}
		msg, err := pc.Recv()
		if err != nil {
			return accepted, err
		}
		if batch != nil {
			if msg.BatchAck == nil {
				return accepted, errors.New("flush reply lost its batch ack")
			}
			for _, a := range msg.BatchAck.Acks {
				if !a.Rejected {
					accepted++
				}
			}
			batch = nil
		}
		switch msg.Type {
		case protocol.MsgTaskAssign:
			a := msg.Assign
			r := jobs[a.JobID]
			if r == nil {
				if a.Submission == nil {
					return accepted, errors.New("assign without descriptor")
				}
				spec, err := DecodeSubmission(a.Submission)
				if err != nil {
					return accepted, err
				}
				cfg, err := spec.Spec.Build()
				if err != nil {
					return accepted, err
				}
				r = &rt{cfg: cfg, seed: spec.Seed, streams: spec.NumChunks(), fan: spec.Fan}
				jobs[a.JobID] = r
			}
			group := protocol.BatchGroup{JobID: a.JobID}
			var sum *mc.Tally
			for _, g := range a.Grants {
				tally, err := mc.RunStreamFan(r.cfg, g.Photons, r.seed, g.ChunkID, r.streams, r.fan)
				if err != nil {
					return accepted, err
				}
				if sum == nil {
					sum = tally
				} else if err := sum.Merge(tally); err != nil {
					return accepted, err
				}
				group.Chunks = append(group.Chunks, g.ChunkID)
			}
			group.TallyData = mc.AppendTally(nil, sum)
			batch = &protocol.ResultBatch{Groups: []protocol.BatchGroup{group}}
		case protocol.MsgNoWork:
			if msg.NoWork.Done {
				return accepted, nil
			}
		default:
			return accepted, errors.New("unexpected message")
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	reg := New(Options{})
	if _, err := reg.Submit(JobSpec{}); err == nil {
		t.Fatal("job without spec accepted")
	}
	if _, err := reg.Submit(JobSpec{Spec: slabSpec(5)}); err == nil {
		t.Fatal("zero-photon job accepted")
	}
}

func TestChunkPartition(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1050, ChunkPhotons: 100})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job
	if j.NumChunks() != 11 {
		t.Fatalf("chunks = %d, want 11", j.NumChunks())
	}
	// Total photons across chunks must be conserved (the tail chunk is
	// short).
	var total int64
	for id := range j.NumChunks() {
		total += j.chunkPhotons(id)
	}
	if total != 1050 {
		t.Fatalf("chunk photons sum to %d, want 1050", total)
	}
	if j.chunkPhotons(10) != 50 {
		t.Fatalf("tail chunk has %d photons, want 50", j.chunkPhotons(10))
	}
}

// contentKey is a submission's content key, as RoutingKeys derives it.
func contentKey(t *testing.T, js JobSpec) Key {
	t.Helper()
	key, _, err := RoutingKeys(&js, 0)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestKeyOfDistinguishesJobs(t *testing.T) {
	job := func(spec *mc.Spec, photons, chunk int64, seed uint64) Key {
		return contentKey(t, JobSpec{Spec: spec, TotalPhotons: photons, ChunkPhotons: chunk, Seed: seed})
	}
	base := job(slabSpec(5), 1000, 100, 1)
	cases := map[string]Key{
		"spec":     job(slabSpec(6), 1000, 100, 1),
		"photons":  job(slabSpec(5), 2000, 100, 1),
		"chunking": job(slabSpec(5), 1000, 200, 1),
		"seed":     job(slabSpec(5), 1000, 100, 2),
	}
	for dim, key := range cases {
		if key == base {
			t.Fatalf("changing %s did not change the cache key", dim)
		}
	}
	if again := job(slabSpec(5), 1000, 100, 1); again != base {
		t.Fatal("identical submission hashed differently")
	}
}

func TestCoalesceIdenticalActiveSubmission(t *testing.T) {
	reg := New(Options{})
	first, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	second, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Coalesced || second.Job != first.Job {
		t.Fatal("identical active submission not coalesced")
	}
	if s := reg.Stats(); s.JobsQueued != 1 {
		t.Fatalf("coalesced submission created a second job: %+v", s)
	}
	// An urgent duplicate must not be demoted to the incumbent's
	// scheduling parameters: the live job absorbs the stronger ones.
	urgent, err := reg.Submit(JobSpec{
		Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 3,
		Priority: 9, Weight: 4, Label: "urgent",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !urgent.Coalesced {
		t.Fatal("identical submission with different scheduling params not coalesced")
	}
	st := first.Job.Status()
	if st.Priority != 9 || st.Weight != 4 || st.Label != "urgent" {
		t.Fatalf("coalesce dropped scheduling params: %+v", st)
	}
}

// TestIdenticalSubmissionBetweenFinishAndSeal drives the window between a
// job's last reduction (finishJobLocked) and the release of its waiters
// (sealJob). An identical submission arriving there used to find the job
// neither in flight nor cached and ran it all again; it must ride the
// finishing job instead: one computation, one job ID.
func TestIdenticalSubmissionBetweenFinishAndSeal(t *testing.T) {
	reg := New(Options{})
	spec := JobSpec{Spec: slabSpec(5), TotalPhotons: 200, ChunkPhotons: 100, Seed: 31}
	first, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var rider *SubmitOutcome
	var riderErr error
	reg.sealHook = func() { rider, riderErr = reg.Submit(spec) }
	startWorkers(t, reg, 1)
	res, err := first.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if riderErr != nil {
		t.Fatal(riderErr)
	}
	if !rider.Coalesced || rider.Job.ID() != first.Job.ID() {
		t.Fatalf("submission in the finish→seal window got job %016x (coalesced %v, cached %v), want to ride %016x",
			rider.Job.ID(), rider.Coalesced, rider.Cached, first.Job.ID())
	}
	rode, err := rider.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rode.Tally != res.Tally {
		t.Fatal("the rider did not get the finishing job's tally")
	}
	if st := reg.Stats(); st.JobsSubmitted != 1 || st.ChunksAssigned != 2 {
		t.Fatalf("the job was computed more than once: %+v", st)
	}
	// Once sealed the job is finished: the next identical submission is an
	// exact hit, answered with the job itself.
	third, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Coalesced || third.Job.ID() != first.Job.ID() {
		t.Fatalf("post-seal submission: job %016x cached %v coalesced %v, want %016x, cached",
			third.Job.ID(), third.Cached, third.Coalesced, first.Job.ID())
	}
}

func TestCancel(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Cancel(out.Job.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Job.Wait(time.Second); !errors.Is(err, ErrCanceled) {
		t.Fatalf("wait on canceled job: %v", err)
	}
	if st := out.Job.Status(); st.State != "canceled" {
		t.Fatalf("state %q after cancel", st.State)
	}
	if err := reg.Cancel(out.Job.ID()); err == nil {
		t.Fatal("double cancel accepted")
	}
	// A canceled job no longer blocks an identical resubmission.
	again, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if again.Coalesced || again.Cached {
		t.Fatal("resubmission after cancel was deduplicated")
	}
}

// TestConcurrentJobsSharedFleet is the concurrent-job end-to-end check:
// two jobs with different specs submitted to one registry over a 3-worker
// in-memory fleet finish with tallies matching their single-job runs, and
// a duplicate submission is answered with the job that ran it without
// launching photons. The fleet speaks the full v3 result plane — job A fans each
// chunk across 2 sub-streams and both jobs' results ride pre-reduced
// batches (flush threshold 3) with timeout reassignment armed — and must
// still reproduce the standalone fan-matched decompositions exactly.
func TestConcurrentJobsSharedFleet(t *testing.T) {
	reg := New(Options{Policy: FairShare()})
	for i := 0; i < 3; i++ {
		server, client := net.Pipe()
		go reg.HandleConn(server)
		name := string(rune('a' + i))
		go func() {
			// Long-lived registries never say Done; the worker exits when
			// the test closes its pipe.
			_, _ = batchClient(client, name, 3)
		}()
		t.Cleanup(func() { client.Close() })
	}

	specA, specB := slabSpec(5), slabSpec(8)
	const totalA, chunkA, seedA, fanA = 3000, 250, 11, 2
	const totalB, chunkB, seedB = 2000, 200, 23

	var outA, outB *SubmitOutcome
	var err error
	if outA, err = reg.Submit(JobSpec{
		Spec: specA, TotalPhotons: totalA, ChunkPhotons: chunkA, Seed: seedA,
		Fan: fanA, ChunkTimeout: 10 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if outB, err = reg.Submit(JobSpec{Spec: specB, TotalPhotons: totalB, ChunkPhotons: chunkB, Seed: seedB}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var resA, resB *Result
	var errA, errB error
	wg.Add(2)
	go func() { defer wg.Done(); resA, errA = outA.Job.Wait(60 * time.Second) }()
	go func() { defer wg.Done(); resB, errB = outB.Job.Wait(60 * time.Second) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}

	wantA := localTallyFan(t, specA, totalA, chunkA, seedA, fanA)
	wantB := localTally(t, specB, totalB, chunkB, seedB)
	if resA.Tally.Launched != totalA || resB.Tally.Launched != totalB {
		t.Fatalf("launched %d/%d, want %d/%d",
			resA.Tally.Launched, resB.Tally.Launched, totalA, totalB)
	}
	if math.Abs(resA.Tally.AbsorbedWeight-wantA.AbsorbedWeight) > 1e-9 {
		t.Fatalf("job A absorbed %g != standalone %g", resA.Tally.AbsorbedWeight, wantA.AbsorbedWeight)
	}
	if math.Abs(resB.Tally.AbsorbedWeight-wantB.AbsorbedWeight) > 1e-9 {
		t.Fatalf("job B absorbed %g != standalone %g", resB.Tally.AbsorbedWeight, wantB.AbsorbedWeight)
	}
	if resA.Tally.DetectedCount != wantA.DetectedCount || resB.Tally.DetectedCount != wantB.DetectedCount {
		t.Fatal("multi-job detection counts differ from standalone runs")
	}

	// Duplicate submission (same fan → same content key): answered with
	// job A itself, zero new chunks assigned.
	assignedBefore := reg.Stats().ChunksAssigned
	dup, err := reg.Submit(JobSpec{Spec: specA, TotalPhotons: totalA, ChunkPhotons: chunkA, Seed: seedA, Fan: fanA})
	if err != nil {
		t.Fatal(err)
	}
	// A different fan is a different decomposition, hence a different key;
	// fan ≤ 1 keeps the legacy key format.
	fanned := func(fan int) Key {
		return contentKey(t, JobSpec{Spec: specA, TotalPhotons: totalA, ChunkPhotons: chunkA, Seed: seedA, Fan: fan})
	}
	kFan, kPlain, kOne := fanned(fanA), fanned(0), fanned(1)
	if kFan == kPlain {
		t.Fatal("fan width did not change the content key")
	}
	if kOne != kPlain {
		t.Fatal("fan 1 changed the legacy content key")
	}
	if !dup.Cached || dup.Job != outA.Job {
		t.Fatalf("duplicate submission: %+v, want job A itself, cached", dup)
	}
	dupRes, err := dup.Job.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if dupRes.Tally != resA.Tally {
		t.Fatal("the duplicate's tally is not job A's")
	}
	if after := reg.Stats().ChunksAssigned; after != assignedBefore {
		t.Fatalf("cache hit assigned %d chunks", after-assignedBefore)
	}
}

// TestFairSharePolicyInterleavesJobs drives the dispatcher directly (no
// workers) and checks weighted fair-share assignment ratios.
func TestFairSharePolicyInterleavesJobs(t *testing.T) {
	reg := New(Options{Policy: FairShare()})
	heavy, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 9000, ChunkPhotons: 100, Seed: 1, Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	light, err := reg.Submit(JobSpec{Spec: slabSpec(8), TotalPhotons: 9000, ChunkPhotons: 100, Seed: 2, Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{id: 999, name: "probe"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()

	counts := map[uint64]int{}
	for i := 0; i < 40; i++ {
		msg := reg.nextAssignment(sess, want(1))
		if msg.Type != protocol.MsgTaskAssign {
			t.Fatalf("assignment %d: got %v", i, msg.Type)
		}
		counts[msg.Assign.JobID]++
		completeAssign(reg, sess, msg.Assign)
	}
	h, l := counts[heavy.Job.ID()], counts[light.Job.ID()]
	if h+l != 40 {
		t.Fatalf("assignments went to unknown jobs: %v", counts)
	}
	ratio := float64(h) / float64(l)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("3:1 weights assigned at ratio %.2f (%d vs %d)", ratio, h, l)
	}
}

// completeAssign marks a probe session's assigned chunks as reduced without
// running physics, so dispatcher tests can drain queues synchronously.
func completeAssign(reg *Registry, sess *session, a *protocol.TaskAssign) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	j := reg.jobs[a.JobID]
	for _, g := range a.Grants {
		j.setPhase(g.ChunkID, phaseDone)
		sess.grant.drop(a.JobID, g.ChunkID)
	}
}

// TestPriorityPolicyDrainsHighFirst checks strict priority ordering.
func TestPriorityPolicyDrainsHighFirst(t *testing.T) {
	reg := New(Options{Policy: Priority()})
	lo, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 500, ChunkPhotons: 100, Seed: 1, Priority: 0})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := reg.Submit(JobSpec{Spec: slabSpec(8), TotalPhotons: 500, ChunkPhotons: 100, Seed: 2, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{id: 999, name: "probe"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()
	for i := 0; i < 5; i++ {
		msg := reg.nextAssignment(sess, want(1))
		if msg.Assign.JobID != hi.Job.ID() {
			t.Fatalf("assignment %d went to low-priority job", i)
		}
		completeAssign(reg, sess, msg.Assign)
	}
	if a := reg.nextChunk(sess); a.JobID != lo.Job.ID() {
		t.Fatal("low-priority job not served after high drained")
	}
}

// TestFIFODrainsInOrder checks the default policy serves submission order.
func TestFIFODrainsInOrder(t *testing.T) {
	reg := New(Options{})
	first, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err = reg.Submit(JobSpec{Spec: slabSpec(8), TotalPhotons: 300, ChunkPhotons: 100, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	sess := &session{id: 999, name: "probe"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()
	for i := 0; i < 3; i++ {
		msg := reg.nextAssignment(sess, want(1))
		if msg.Assign.JobID != first.Job.ID() {
			t.Fatalf("assignment %d left the FIFO head", i)
		}
		completeAssign(reg, sess, msg.Assign)
	}
}

// TestAbandonedAssignmentRequeued guards against stranded chunks: with
// ChunkTimeout=0 a chunk abandoned by a new task-request (or by an
// unmergeable result) must return to the pending queue, or the job could
// never complete.
func TestAbandonedAssignmentRequeued(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 200, ChunkPhotons: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job
	sess := &session{id: 999, name: "probe"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()

	first := reg.nextChunk(sess)
	// Request again without delivering a result: the first chunk must be
	// requeued, not left ownerless in outstanding.
	second := reg.nextChunk(sess)
	reg.mu.Lock()
	pending, outstanding := len(j.pending), j.inPhase[phaseOut]
	reassigned := j.reassigned
	reg.mu.Unlock()
	if pending+outstanding != 2 || outstanding != 1 {
		t.Fatalf("chunk stranded: pending %d, outstanding %d after abandon", pending, outstanding)
	}
	if reassigned != 1 {
		t.Fatalf("reassigned = %d, want 1", reassigned)
	}
	_ = first

	// An unmergeable tally must also requeue the chunk (and count as a
	// rejection), so a malformed result cannot wedge the job.
	ack := reduceOne(reg, sess, second, &mc.Tally{})
	if !ack.Rejected {
		t.Fatal("unmergeable tally not rejected")
	}
	reg.mu.Lock()
	pending, outstanding = len(j.pending), j.inPhase[phaseOut]
	reg.mu.Unlock()
	if pending != 2 || outstanding != 0 {
		t.Fatalf("chunk stranded after bad merge: pending %d, outstanding %d", pending, outstanding)
	}
}

// TestLateResultAfterReclaimDoesNotRecompute drives the timeout-reclaim
// race by hand: chunks time out and are requeued, then the original
// workers' results land late. The late merges must purge the requeued
// copies from pending/outstanding so the fleet never recomputes an
// already-reduced chunk, and the third worker's redundant result must be
// acked as a benign duplicate.
func TestLateResultAfterReclaimDoesNotRecompute(t *testing.T) {
	spec := slabSpec(5)
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{
		Spec: spec, TotalPhotons: 200, ChunkPhotons: 100, Seed: 14,
		ChunkTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	chunkTally := func(a *oneGrant) *mc.Tally {
		tt, err := mc.RunStream(cfg, a.Photons, 14, a.ChunkID, j.NumChunks())
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	newSess := func(id uint64) *session {
		s := &session{id: id, name: fmt.Sprintf("s%d", id)}
		reg.mu.Lock()
		reg.sessions[s.id] = s
		reg.mu.Unlock()
		return s
	}
	s1, s2, s3 := newSess(101), newSess(102), newSess(103)

	a1 := reg.nextChunk(s1)
	a2 := reg.nextChunk(s2)
	time.Sleep(60 * time.Millisecond) // both chunks overdue
	a3 := reg.nextChunk(s3)
	if a3 == nil {
		t.Fatal("no chunk reclaimed after timeout")
	}

	// The original workers deliver late; both must still be reduced (they
	// computed the right streams) and must clean up the requeued copies.
	if ack := reduceOne(reg, s1, a1, chunkTally(a1)); ack.Rejected || ack.Duplicate {
		t.Fatalf("late result 1 not reduced: %+v", ack)
	}
	reg.mu.Lock()
	for _, p := range j.pending {
		if p == a1.ChunkID {
			t.Fatal("merged chunk still in pending (would be recomputed)")
		}
	}
	reg.mu.Unlock()
	if ack := reduceOne(reg, s2, a2, chunkTally(a2)); ack.Rejected || ack.Duplicate {
		t.Fatalf("late result 2 not reduced: %+v", ack)
	}
	if ack := reduceOne(reg, s3, a3, chunkTally(a3)); !ack.Duplicate {
		t.Fatalf("redundant reassigned result not a duplicate: %+v", ack)
	}

	res, err := j.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 200 {
		t.Fatalf("launched %d, want 200 (chunk recomputed or lost)", res.Tally.Launched)
	}
	if res.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", res.Duplicates)
	}
	reg.mu.Lock()
	pending, outstanding := len(j.pending), j.inPhase[phaseOut]
	reg.mu.Unlock()
	if pending != 0 || outstanding != 0 {
		t.Fatalf("queue not clean after completion: pending %d, outstanding %d", pending, outstanding)
	}
}

// TestPartiallyStaleBatchRequeued drives the batched reduction through the
// timeout-reassignment race: a batch covering one chunk another session
// already reduced must not merge its combined tally (it would double-count
// the duplicate), and the honestly-owned chunks must be requeued so an
// honest recompute — bit-identical, chunk tallies being pure functions of
// the stream — completes the job exactly once.
func TestPartiallyStaleBatchRequeued(t *testing.T) {
	spec := slabSpec(5)
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{
		Spec: spec, TotalPhotons: 300, ChunkPhotons: 100, Seed: 19,
		ChunkTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	chunkTally := func(a *oneGrant) *mc.Tally {
		tt, err := mc.RunStream(cfg, a.Photons, 19, a.ChunkID, j.NumChunks())
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	newSess := func(id uint64) *session {
		s := &session{id: id, name: fmt.Sprintf("s%d", id)}
		reg.mu.Lock()
		reg.sessions[s.id] = s
		reg.mu.Unlock()
		return s
	}
	s1, s2 := newSess(201), newSess(202)

	// s1 takes two chunks in one grant (the job needs a compute estimate for
	// that: a timed job with none is probed a chunk at a time), both time
	// out, and s2 recomputes one of them.
	reg.mu.Lock()
	j.chunkSecs = 1e-3
	reg.mu.Unlock()
	grant := reg.nextAssignment(s1, want(2)).Assign
	if len(grant.Grants) != 2 {
		t.Fatalf("s1 granted %d chunks, want 2", len(grant.Grants))
	}
	a1, a2 := grantOf(grant, 0), grantOf(grant, 1)
	time.Sleep(60 * time.Millisecond)
	a3 := reg.nextChunk(s2)
	if a3.ChunkID != a2.ChunkID {
		// LIFO requeue hands back the most recently reclaimed chunk; the
		// test only needs *some* overlap, so track which one s2 got.
		t.Logf("s2 recomputes chunk %d", a3.ChunkID)
	}
	if ack := reduceOne(reg, s2, a3, chunkTally(a3)); ack.Rejected || ack.Duplicate {
		t.Fatalf("s2 recompute not reduced: %+v", ack)
	}

	// s1 now flushes a pre-reduced batch covering both chunks — one of
	// which s2 already completed. Nothing from this blob may merge.
	combined := mc.NewTally(cfg)
	if err := combined.Merge(chunkTally(a1)); err != nil {
		t.Fatal(err)
	}
	if err := combined.Merge(chunkTally(a2)); err != nil {
		t.Fatal(err)
	}
	launchedBefore := func() int64 {
		reg.mu.Lock()
		defer reg.mu.Unlock()
		return j.tally.Launched
	}()
	acks := reg.reduceBatch(s1, &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
		JobID:     a1.JobID,
		Chunks:    []int{a1.ChunkID, a2.ChunkID},
		TallyData: mc.AppendTally(nil, combined),
	}}}, &mc.Tally{})
	if len(acks) != 2 {
		t.Fatalf("got %d acks for a 2-chunk batch", len(acks))
	}
	var dups, rejects int
	for _, a := range acks {
		switch {
		case a.Duplicate:
			dups++
		case a.Rejected:
			rejects++
		}
	}
	if dups != 1 || rejects != 1 {
		t.Fatalf("acks = %+v, want one duplicate and one rejected-requeued", acks)
	}
	if got := func() int64 {
		reg.mu.Lock()
		defer reg.mu.Unlock()
		return j.tally.Launched
	}(); got != launchedBefore {
		t.Fatalf("partially stale batch leaked %d photons into the tally", got-launchedBefore)
	}

	// The fresh chunk is back in pending; an honest recompute finishes the
	// job with exactly-once totals.
	for {
		a := reg.nextChunk(s2)
		if a == nil {
			break
		}
		if ack := reduceOne(reg, s2, a, chunkTally(a)); ack.Rejected {
			t.Fatalf("honest recompute rejected: %+v", ack)
		}
	}
	res, err := j.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 300 {
		t.Fatalf("launched %d, want 300 (double count or lost chunk)", res.Tally.Launched)
	}
	want := localTally(t, spec, 300, 100, 19)
	if math.Abs(res.Tally.AbsorbedWeight-want.AbsorbedWeight) > 1e-9 {
		t.Fatalf("absorbed %g != standalone %g", res.Tally.AbsorbedWeight, want.AbsorbedWeight)
	}
}

// TestGrantCappedByChunkTimeout keeps multi-chunk grants inside the
// timeout envelope: a one-core worker computes its grant serially, so
// handing it more chunks than fit in ChunkTimeout would guarantee spurious
// reclaims and batch-wide recomputes. With no compute estimate the dispatcher
// probes one chunk; once results carry Elapsed it grants up to a quarter
// of the timeout's worth.
func TestGrantCappedByChunkTimeout(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{
		Spec: slabSpec(5), TotalPhotons: 3200, ChunkPhotons: 100, Seed: 31,
		ChunkTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job
	sess := &session{id: 401, name: "probe"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()

	// No estimate yet: probe a single chunk even though 8 were requested.
	a := reg.nextAssignment(sess, want(8)).Assign
	if len(a.Grants) != 1 {
		t.Fatalf("untimed job granted %d chunks before any estimate", len(a.Grants))
	}
	completeAssign(reg, sess, a)

	// 100 ms per chunk against a 2 s timeout: at most 2s/(4×100ms) = 5.
	reg.mu.Lock()
	j.chunkSecs = 0.1
	reg.mu.Unlock()
	a = reg.nextAssignment(sess, want(8)).Assign
	if got := len(a.Grants); got != 5 {
		t.Fatalf("granted %d chunks, want 5 (2s timeout / 4×100ms chunks)", got)
	}

	// A job without a timeout grants the full request.
	reg2 := New(Options{})
	out2, err := reg2.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 3200, ChunkPhotons: 100, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	sess2 := &session{id: 402, name: "probe2"}
	reg2.mu.Lock()
	reg2.sessions[sess2.id] = sess2
	reg2.mu.Unlock()
	a = reg2.nextAssignment(sess2, want(8)).Assign
	if got := len(a.Grants); got != 8 {
		t.Fatalf("untimed job granted %d chunks, want 8", got)
	}
	_ = out2
}

// TestBatchGroupRepeatedChunkRejected guards the claim protocol against a
// hostile group listing the same chunk twice, which would double-count
// its completion and finish the job with missing chunks.
func TestBatchGroupRepeatedChunkRejected(t *testing.T) {
	spec := slabSpec(5)
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: spec, TotalPhotons: 200, ChunkPhotons: 100, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	j := out.Job
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{id: 301, name: "hostile"}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()
	a := reg.nextChunk(sess)

	tt, err := mc.RunStream(cfg, a.Photons, 27, a.ChunkID, j.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	acks := reg.reduceBatch(sess, &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
		JobID:     a.JobID,
		Chunks:    []int{a.ChunkID, a.ChunkID},
		TallyData: mc.AppendTally(nil, tt),
	}}}, &mc.Tally{})
	for i, ack := range acks {
		if !ack.Rejected {
			t.Fatalf("ack %d for a repeated-chunk group not rejected: %+v", i, ack)
		}
	}
	reg.mu.Lock()
	completed, launched := j.inPhase[phaseDone], j.tally.Launched
	reg.mu.Unlock()
	if completed != 0 || launched != 0 {
		t.Fatalf("repeated-chunk group reduced anyway: %d completed, %d launched", completed, launched)
	}
}

// oldHello is, as raw frame bytes, the Hello of a worker speaking an older
// protocol: version · name · rate, and from v9 on · build. (v2 and v4 workers
// spoke gob; their version numbers ride this layout here, and a gob Hello's
// own refusal is distsys's TestRejectedHelloEndsWorkLoop/v6.)
func oldHello(version int, name string, mflops float64, build string) []byte {
	b := []byte{byte(protocol.MsgHello)}
	b = binary.AppendVarint(b, int64(version))
	b = append(binary.AppendUvarint(b, uint64(len(name))), name...)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(mflops))
	if version >= 9 {
		b = append(binary.AppendUvarint(b, uint64(len(build))), build...)
	}
	return append(binary.AppendUvarint(nil, uint64(len(b))), b...)
}

// TestOldWorkerRejectedGracefully pins the version gate: a worker speaking
// an older protocol — v2, the v4 that still had single-result frames, the
// v7 whose task requests listed the jobs it knew, the v8 whose requests
// could carry a telemetry report and whose Hello has no build string, or
// the v9 whose Hello carries a rate and whose grants a stream index — sends
// the Hello bytes it always sent and gets a clear error message at the
// handshake and a closed session: no hang, no mid-session failure on its
// first unknown frame.
func TestOldWorkerRejectedGracefully(t *testing.T) {
	for _, version := range []int{2, 4, 7, 8, 9} {
		reg := New(Options{})
		server, client := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- reg.HandleConn(server) }()

		pc := protocol.NewConn(client)
		defer pc.Close()
		go client.Write(oldHello(version, "legacy", 100, "old-build"))
		reply, err := pc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type != protocol.MsgError || reply.Error == nil {
			t.Fatalf("v%d hello answered with %v, want a protocol error", version, reply.Type)
		}
		if !strings.Contains(reply.Error.Msg, "version mismatch") {
			t.Fatalf("unclear rejection message: %q", reply.Error.Msg)
		}
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("server treated the v%d worker as accepted", version)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("server hung on a v%d worker", version)
		}
		if _, err := pc.Recv(); err == nil {
			t.Fatal("session left open after version rejection")
		}
	}
}

// TestFinishedTallyIsShared pins the contract Result.Tally states: a
// finished tally is immutable, so the job that computed it and every
// repeat it answers hand out the one tally — no clone on the way in or out
// — and a straggler's late result for the done job is refused without
// touching it.
func TestFinishedTallyIsShared(t *testing.T) {
	reg := New(Options{})
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 200, ChunkPhotons: 100, Seed: 12}
	out, err := reg.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	startWorkers(t, reg, 1)
	res, err := out.Job.Wait(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := tallyBytes(t, res.Tally)

	for i := range 2 {
		hit, err := reg.Submit(js)
		if err != nil || !hit.Cached || hit.Job != out.Job {
			t.Fatalf("resubmission %d: %+v, %v; want the finished job itself", i, hit, err)
		}
		cached, err := hit.Job.Wait(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Tally != res.Tally {
			t.Fatalf("hit %d was handed a copy of the tally, want the job's own", i)
		}
	}

	straggler := oneChunkBatch(out.Job.ID(), 0, localTally(t, js.Spec, 100, 100, js.Seed))
	if ack := reg.reduceBatch(probeSession(reg), straggler, &mc.Tally{})[0]; !ack.Duplicate && !ack.Rejected {
		t.Fatalf("a result for a finished job was taken: %+v", ack)
	}
	if !bytes.Equal(tallyBytes(t, res.Tally), want) {
		t.Fatal("a late result was merged into a finished, shared tally")
	}
}

// TestRepeatIsTheJob: an exact repeat of a finished job is that job — its
// ID, answered "cached", no new job in the list, no chunk granted, one
// exact hit on /metrics each — for as long as RetainDone keeps the job.
// Once it is evicted, a repeat runs afresh.
func TestRepeatIsTheJob(t *testing.T) {
	oreg := obs.NewRegistry()
	reg := New(Options{RetainDone: 3, Obs: oreg})
	ts := httptest.NewServer(NewAPI(reg).Handler())
	defer ts.Close()
	startWorkers(t, reg, 1)
	req := func(seed uint64) JobRequest {
		return JobRequest{Spec: slabSpec(5), Photons: 200, ChunkPhotons: 100, Seed: seed}
	}
	run := func(seed uint64) JobAccepted {
		t.Helper()
		acc, code := postJob(t, ts, req(seed))
		if code != http.StatusCreated || acc.Cached || acc.Coalesced {
			t.Fatalf("job %d: http %d %+v, want a fresh job", seed, code, acc)
		}
		waitDone(t, ts, acc.ID)
		return acc
	}
	exactHits := func() float64 {
		t.Helper()
		var buf bytes.Buffer
		if err := oreg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return parseExposition(t, buf.Bytes())[`service_cache_hits_total{index="exact"}`]
	}
	repeatA := func(id string) {
		t.Helper()
		acc, code := postJob(t, ts, req(1))
		if code != http.StatusOK || !acc.Cached || acc.ID != id {
			t.Fatalf("repeat of %s: http %d %+v, want the job itself, cached", id, code, acc)
		}
	}

	a := run(1)
	granted, hits := reg.Stats().ChunksAssigned, exactHits()
	for range 5 {
		repeatA(a.ID)
	}
	if n := len(reg.List()); n != 1 {
		t.Fatalf("%d jobs listed after five repeats, want the one that ran", n)
	}
	if got := reg.Stats().ChunksAssigned; got != granted {
		t.Fatalf("repeats granted %d chunks", got-granted)
	}
	if got := exactHits() - hits; got != 5 {
		t.Fatalf("exact hits rose by %v, want 5", got)
	}

	// A is retained, and answers, while two more jobs that ran join it.
	run(2)
	run(3)
	repeatA(a.ID)
	// A fourth evicts A, the oldest: the bound is RetainDone, and a repeat
	// of A runs afresh.
	run(4)
	var st JobStatus
	if code := getJSON(t, ts.URL+"/jobs/"+a.ID, &st); code != http.StatusNotFound {
		t.Fatalf("job %s: http %d after eviction, want 404", a.ID, code)
	}
	if again := run(1); again.ID != a.ID {
		t.Fatalf("rerun of A has ID %s, want its derived ID %s", again.ID, a.ID)
	}
}

// TestPhysicsIndex pins what a looser target is answered from: per physics
// key, the deepest retained job that ran, whichever order the runs came
// in. A target the run does not meet is not served, and a job that leaves
// the registry — evicted after its seal or before it — leaves the index
// with it. A hit is the run itself, cached, and its tally meets the target.
func TestPhysicsIndex(t *testing.T) {
	const chunk, seed = 125, 1
	loose := func() JobSpec {
		return JobSpec{Spec: targetSpec(5), ChunkPhotons: chunk, Seed: seed,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.9, MinPhotons: chunk}}
	}
	// run submits a fixed-count moments-tracking job of the one physics and
	// waits for it.
	run := func(t *testing.T, reg *Registry, photons int64) *Job {
		t.Helper()
		out, err := reg.Submit(JobSpec{Spec: targetSpec(5), TotalPhotons: photons, ChunkPhotons: chunk, Seed: seed})
		if err != nil || out.Cached || out.Coalesced {
			t.Fatalf("%d photons: %+v, %v; want a fresh job", photons, out, err)
		}
		if _, err := out.Job.Wait(time.Minute); err != nil {
			t.Fatal(err)
		}
		return out.Job
	}
	// served asserts a looser target is a physics hit answered by run.
	served := func(t *testing.T, reg *Registry, run *Job) {
		t.Helper()
		tgt := loose()
		out, err := reg.Submit(tgt)
		if err != nil || !out.Cached || out.Job != run {
			t.Fatalf("looser target: %+v, %v; want the %016x run, cached", out, err, run.ID())
		}
		res, err := out.Job.Wait(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally != run.tally || !tgt.Target.MetBy(res.Tally) {
			t.Fatalf("hit served %d photons, want the %d-photon run's tally meeting the target",
				res.Tally.Launched, run.tally.Launched)
		}
	}
	// missed asserts a looser target finds no run to answer it.
	missed := func(t *testing.T, reg *Registry) {
		t.Helper()
		out, err := reg.Submit(loose())
		if err != nil || out.Cached {
			t.Fatalf("looser target: %+v, %v; want a fresh job", out, err)
		}
		reg.Cancel(out.Job.ID())
	}

	t.Run("deeper run replaces a shallower one", func(t *testing.T) {
		reg := New(Options{})
		startWorkers(t, reg, 1)
		run(t, reg, 500)
		served(t, reg, run(t, reg, 1000))
	})
	t.Run("shallower later run does not displace", func(t *testing.T) {
		reg := New(Options{})
		startWorkers(t, reg, 1)
		deep := run(t, reg, 1000)
		run(t, reg, 500)
		served(t, reg, deep)
	})
	t.Run("a flood of looser targets does not evict the run", func(t *testing.T) {
		// A hit takes no retention slot: with room for two finished jobs,
		// three looser targets are all answered by the one run, and it
		// stays retained to answer more.
		reg := New(Options{RetainDone: 2})
		startWorkers(t, reg, 1)
		deep := run(t, reg, 1000)
		for range 3 {
			served(t, reg, deep)
		}
		if reg.Get(deep.ID()) != deep || len(reg.List()) != 1 {
			t.Fatalf("after the flood the registry lists %d jobs, the run retained: %v",
				len(reg.List()), reg.Get(deep.ID()) == deep)
		}
	})
	t.Run("an unmet target is not served", func(t *testing.T) {
		reg := New(Options{})
		startWorkers(t, reg, 1)
		deep := run(t, reg, 1000)
		strict := loose()
		strict.Target.MinPhotons = deep.tally.Launched + chunk
		out, err := reg.Submit(strict)
		if err != nil || out.Cached {
			t.Fatalf("target the run does not meet: %+v, %v; want a fresh job", out, err)
		}
		reg.Cancel(out.Job.ID())
	})
	t.Run("evicting the deepest run drops its entry", func(t *testing.T) {
		reg := New(Options{RetainDone: 1})
		startWorkers(t, reg, 1)
		run(t, reg, 1000)
		other, err := reg.Submit(JobSpec{Spec: slabSpec(9), TotalPhotons: 100, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.Job.Wait(time.Minute); err != nil { // evicts the run
			t.Fatal(err)
		}
		missed(t, reg)
	})
	t.Run("a job evicted before its seal is not indexed", func(t *testing.T) {
		reg := New(Options{RetainDone: 1})
		var once sync.Once
		// Between the run's finish and its seal, a canceled job makes it
		// the oldest of two finished jobs, and it is evicted.
		reg.sealHook = func() {
			once.Do(func() {
				out, err := reg.Submit(JobSpec{Spec: slabSpec(9), TotalPhotons: 100, Seed: 2})
				if err != nil {
					t.Error(err)
					return
				}
				reg.Cancel(out.Job.ID())
			})
		}
		startWorkers(t, reg, 1)
		gone := run(t, reg, 1000)
		if reg.Get(gone.ID()) != nil {
			t.Fatal("the run was not evicted before its seal")
		}
		missed(t, reg)
	})
}

// TestRetainDoneEviction checks finished jobs are bounded.
func TestRetainDoneEviction(t *testing.T) {
	reg := New(Options{RetainDone: 2})
	var ids []uint64
	for seed := uint64(1); seed <= 4; seed++ {
		out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, out.Job.ID())
		if err := reg.Cancel(out.Job.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Get(ids[0]) != nil || reg.Get(ids[1]) != nil {
		t.Fatal("oldest finished jobs not evicted")
	}
	if reg.Get(ids[2]) == nil || reg.Get(ids[3]) == nil {
		t.Fatal("recent finished jobs evicted")
	}
}

// TestDrainOnEmpty checks one-shot registries tell workers Done.
func TestDrainOnEmpty(t *testing.T) {
	reg := New(Options{DrainOnEmpty: true})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go reg.HandleConn(server)
	chunks, err := workClient(client, "solo")
	if err != nil {
		t.Fatal(err)
	}
	if chunks != 3 {
		t.Fatalf("worker computed %d chunks, want 3", chunks)
	}
	if _, err := out.Job.Wait(time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-reg.Drained():
	default:
		t.Fatal("registry not drained after last job")
	}
}
