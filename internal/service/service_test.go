package service

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
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
	var known []uint64
	var batch *protocol.ResultBatch
	accepted := 0
	for {
		if err := pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest,
			Request: &protocol.TaskRequest{KnownJobs: known, Want: window, Batch: batch}}); err != nil {
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
				if a.Job == nil {
					return accepted, errors.New("assign without descriptor")
				}
				cfg, err := a.Job.Spec.Build()
				if err != nil {
					return accepted, err
				}
				r = &rt{cfg: cfg, seed: a.Job.Seed, streams: a.Job.Streams, fan: a.Job.Fan}
				jobs[a.JobID] = r
				known = append(known, a.JobID)
			}
			group := protocol.BatchGroup{JobID: a.JobID}
			var sum *mc.Tally
			for _, g := range a.Grants {
				tally, err := mc.RunStreamFan(r.cfg, g.Photons, r.seed, g.Stream, r.streams, r.fan)
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
	for _, p := range j.photons {
		total += p
	}
	if total != 1050 {
		t.Fatalf("chunk photons sum to %d, want 1050", total)
	}
	if j.photons[10] != 50 {
		t.Fatalf("tail chunk has %d photons, want 50", j.photons[10])
	}
}

func TestKeyOfDistinguishesJobs(t *testing.T) {
	base, _ := KeyOf(slabSpec(5), 1000, 100, 1)
	cases := map[string]Key{}
	k, _ := KeyOf(slabSpec(6), 1000, 100, 1)
	cases["spec"] = k
	k, _ = KeyOf(slabSpec(5), 2000, 100, 1)
	cases["photons"] = k
	k, _ = KeyOf(slabSpec(5), 1000, 200, 1)
	cases["chunking"] = k
	k, _ = KeyOf(slabSpec(5), 1000, 100, 2)
	cases["seed"] = k
	for dim, key := range cases {
		if key == base {
			t.Fatalf("changing %s did not change the cache key", dim)
		}
	}
	again, _ := KeyOf(slabSpec(5), 1000, 100, 1)
	if again != base {
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
// job's last reduction (finishJobLocked) and its tally reaching the cache
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
	// Once sealed the job has left the in-flight index: the next identical
	// submission is an ordinary cache hit.
	third, err := reg.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Coalesced {
		t.Fatalf("post-seal submission: cached %v coalesced %v, want a cache hit", third.Cached, third.Coalesced)
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
// a duplicate submission is served from the cache without launching
// photons. The fleet speaks the full v3 result plane — job A fans each
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

	// Duplicate submission (same fan → same content key): served from
	// cache, zero new chunks assigned.
	assignedBefore := reg.Stats().ChunksAssigned
	dup, err := reg.Submit(JobSpec{Spec: specA, TotalPhotons: totalA, ChunkPhotons: chunkA, Seed: seedA, Fan: fanA})
	if err != nil {
		t.Fatal(err)
	}
	// A different fan is a different decomposition, hence a different key;
	// fan ≤ 1 keeps the legacy key format.
	kFan, _ := KeyOfFan(specA, totalA, chunkA, seedA, fanA)
	kPlain, _ := KeyOf(specA, totalA, chunkA, seedA)
	kOne, _ := KeyOfFan(specA, totalA, chunkA, seedA, 1)
	if kFan == kPlain {
		t.Fatal("fan width did not change the content key")
	}
	if kOne != kPlain {
		t.Fatal("fan 1 changed the legacy content key")
	}
	if !dup.Cached {
		t.Fatal("duplicate submission not served from cache")
	}
	dupRes, err := dup.Job.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !dupRes.CacheHit {
		t.Fatal("cached result not flagged")
	}
	if math.Abs(dupRes.Tally.AbsorbedWeight-resA.Tally.AbsorbedWeight) > 0 {
		t.Fatal("cached tally differs from the original result")
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
	sess := &session{id: 999, name: "probe", knownJobs: map[uint64]bool{}}
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
		if !j.completed[g.ChunkID] {
			j.completed[g.ChunkID] = true
			j.nCompleted++
		}
		delete(j.outstanding, g.ChunkID)
		delete(sess.assigned, chunkRef{a.JobID, g.ChunkID})
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
	sess := &session{id: 999, name: "probe", knownJobs: map[uint64]bool{}}
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
	sess := &session{id: 999, name: "probe", knownJobs: map[uint64]bool{}}
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
	sess := &session{id: 999, name: "probe", knownJobs: map[uint64]bool{}}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()

	first := reg.nextChunk(sess)
	// Request again without delivering a result: the first chunk must be
	// requeued, not left ownerless in outstanding.
	second := reg.nextChunk(sess)
	reg.mu.Lock()
	pending, outstanding := len(j.pending), len(j.outstanding)
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
	pending, outstanding = len(j.pending), len(j.outstanding)
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
		tt, err := mc.RunStream(cfg, a.Photons, 14, a.Stream, j.NumChunks())
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	newSess := func(id uint64) *session {
		s := &session{id: id, name: fmt.Sprintf("s%d", id), knownJobs: map[uint64]bool{}}
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
	pending, outstanding := len(j.pending), len(j.outstanding)
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
		tt, err := mc.RunStream(cfg, a.Photons, 19, a.Stream, j.NumChunks())
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	newSess := func(id uint64) *session {
		s := &session{id: id, name: fmt.Sprintf("s%d", id),
			assigned: map[chunkRef]*assignment{}, knownJobs: map[uint64]bool{}}
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
	sess := &session{id: 401, name: "probe",
		assigned: map[chunkRef]*assignment{}, knownJobs: map[uint64]bool{}}
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
	sess2 := &session{id: 402, name: "probe2",
		assigned: map[chunkRef]*assignment{}, knownJobs: map[uint64]bool{}}
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
	sess := &session{id: 301, name: "hostile",
		assigned: map[chunkRef]*assignment{}, knownJobs: map[uint64]bool{}}
	reg.mu.Lock()
	reg.sessions[sess.id] = sess
	reg.mu.Unlock()
	a := reg.nextChunk(sess)

	tt, err := mc.RunStream(cfg, a.Photons, 27, a.Stream, j.NumChunks())
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
	completed, launched := j.nCompleted, j.tally.Launched
	reg.mu.Unlock()
	if completed != 0 || launched != 0 {
		t.Fatalf("repeated-chunk group reduced anyway: %d completed, %d launched", completed, launched)
	}
}

// TestOldWorkerRejectedGracefully pins the version gate: a worker speaking
// an older protocol — v2, or the v4 that still had single-result frames —
// gets a clear error message at the handshake and a closed session: no
// hang, no mid-session failure on its first unknown frame.
func TestOldWorkerRejectedGracefully(t *testing.T) {
	for _, version := range []int{2, 4} {
		reg := New(Options{})
		server, client := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- reg.HandleConn(server) }()

		pc := protocol.NewConn(client)
		defer pc.Close()
		if err := pc.Send(&protocol.Message{Type: protocol.MsgHello,
			Hello: &protocol.Hello{Version: version, Name: "legacy"}}); err != nil {
			t.Fatal(err)
		}
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
// finished tally is immutable, so the job that computed it, the cache and
// every hit the cache answers hand out the one tally — no clone on the way
// in or out — and a straggler's late result for the done job is refused
// without touching it.
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
		if err != nil || !hit.Cached {
			t.Fatalf("resubmission %d: %+v, %v; want a cache hit", i, hit, err)
		}
		cached, err := hit.Job.Wait(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Tally != res.Tally {
			t.Fatalf("hit %d was handed a copy of the tally, want the job's own", i)
		}
	}
	if reg.cache.Get(out.Job.key) != res.Tally {
		t.Fatal("the cache holds a copy of the job's tally, want the job's own")
	}

	straggler := oneChunkBatch(out.Job.ID(), 0, localTally(t, js.Spec, 100, 100, js.Seed))
	if ack := reg.reduceBatch(probeSession(reg), straggler, &mc.Tally{})[0]; !ack.Duplicate && !ack.Rejected {
		t.Fatalf("a result for a finished job was taken: %+v", ack)
	}
	if !bytes.Equal(tallyBytes(t, res.Tally), want) {
		t.Fatal("a late result was merged into a finished, shared tally")
	}
}

// TestResultCache pins a registry's result cache: each index is FIFO
// bounded on its own, a physics key keeps its deepest run whichever order
// the runs arrive in, an evicted key reads as a miss, and a negative size
// is the disabled cache. It stores and returns the pointers it is given;
// TestFinishedTallyIsShared pins that the registry does not clone around
// it.
func TestResultCache(t *testing.T) {
	key := func(seed uint64) Key {
		k, err := KeyOf(slabSpec(5), 100, 100, seed)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	shallow := localTally(t, targetSpec(5), 500, 125, 1)
	deep := localTally(t, targetSpec(5), 1000, 125, 1)
	loose := &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.9, MinPhotons: 1}
	if !loose.MetBy(shallow) || !loose.MetBy(deep) {
		t.Fatal("test tallies do not meet the loose target")
	}
	for _, tc := range []struct {
		name  string
		size  int
		fill  func(c *ResultCache)
		check func(t *testing.T, c *ResultCache)
	}{
		{"exact index evicts oldest first", 2,
			func(c *ResultCache) {
				c.Put(key(1), shallow)
				c.Put(key(2), deep)
				c.Put(key(3), shallow)
				c.PutPhysics(key(1), deep) // the physics index has room of its own
			},
			func(t *testing.T, c *ResultCache) {
				if c.Get(key(1)) != nil {
					t.Fatal("oldest exact entry survived the bound")
				}
				if c.Get(key(2)) != deep || c.Get(key(3)) != shallow || c.Len() != 2 {
					t.Fatalf("newer entries lost: len %d", c.Len())
				}
				if c.GetMeeting(key(1), loose) != deep {
					t.Fatal("exact-index eviction reached into the physics index")
				}
			}},
		{"physics index evicts oldest first", 2,
			func(c *ResultCache) {
				c.PutPhysics(key(1), deep)
				c.PutPhysics(key(2), deep)
				c.PutPhysics(key(3), deep)
			},
			func(t *testing.T, c *ResultCache) {
				if c.GetMeeting(key(1), loose) != nil {
					t.Fatal("oldest physics entry survived the bound")
				}
				if c.GetMeeting(key(2), loose) != deep || c.GetMeeting(key(3), loose) != deep {
					t.Fatal("newer physics entries lost")
				}
			}},
		{"deeper run replaces a shallower one", 2,
			func(c *ResultCache) { c.PutPhysics(key(1), shallow); c.PutPhysics(key(1), deep) },
			func(t *testing.T, c *ResultCache) {
				if c.GetMeeting(key(1), loose) != deep {
					t.Fatal("deeper run did not win the physics key")
				}
			}},
		{"shallower later run does not displace", 2,
			func(c *ResultCache) { c.PutPhysics(key(1), deep); c.PutPhysics(key(1), shallow) },
			func(t *testing.T, c *ResultCache) {
				if c.GetMeeting(key(1), loose) != deep {
					t.Fatal("a shallower run displaced the stored deeper one")
				}
				strict := &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.9, MinPhotons: deep.Launched + 1}
				if c.GetMeeting(key(1), strict) != nil {
					t.Fatal("served a target the stored run does not meet")
				}
			}},
		{"negative size disables", -1,
			func(c *ResultCache) { c.Put(key(1), deep); c.PutPhysics(key(1), deep) },
			func(t *testing.T, c *ResultCache) {
				if c.Get(key(1)) != nil || c.GetMeeting(key(1), loose) != nil || c.Len() != 0 {
					t.Fatal("disabled cache stored something")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewResultCache(tc.size)
			tc.fill(c)
			tc.check(t, c)
		})
	}
}

// TestRetainDoneEviction checks finished jobs are bounded.
func TestRetainDoneEviction(t *testing.T) {
	reg := New(Options{RetainDone: 2, CacheSize: -1})
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
	reg := New(Options{DrainOnEmpty: true, CacheSize: -1})
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
