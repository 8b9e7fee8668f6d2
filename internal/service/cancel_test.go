package service

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/protocol"
)

// TestStatsLifecycleConsistentUnderConcurrentCancel is the regression test
// for lifecycle-counter consistency: jobs canceled while their batches are
// mid-reduction must leave /stats coherent at every observable instant —
// the four state counters always partition the retained jobs, a job never
// reports queue depth after leaving the active states, and the fleet
// quiesces with zero pending/outstanding chunks instead of recomputing
// work for dead jobs. (The reducer re-checks liveness under the reduction
// lock before merging; without that, a cancel racing phase 2 let the dead
// job keep absorbing weight while the counters claimed it was gone.)
func TestStatsLifecycleConsistentUnderConcurrentCancel(t *testing.T) {
	reg := New(Options{Policy: FairShare(), RetainDone: -1})
	startWorkers(t, reg, 3)

	const jobs = 8
	outs := make([]*SubmitOutcome, jobs)
	for i := 0; i < jobs; i++ {
		out, err := reg.Submit(JobSpec{
			Spec:         slabSpec(4 + float64(i)), // distinct keys
			TotalPhotons: 2000,
			ChunkPhotons: 100,
			Seed:         uint64(100 + i),
			ChunkTimeout: 5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		outs[i] = out
	}

	// Poll the invariant while cancels race the reductions.
	stopPolling := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPolling:
				return
			default:
			}
			st := reg.Stats()
			if got := st.JobsQueued + st.JobsRunning + st.JobsDone + st.JobsCanceled; got != jobs {
				t.Errorf("state counters sum to %d, want %d (%+v)", got, jobs, st)
				return
			}
			if st.PendingChunks < 0 || st.OutstandingChunks < 0 {
				t.Errorf("negative queue depth: %+v", st)
				return
			}
		}
	}()

	// Cancel every odd job from concurrent goroutines while the fleet is
	// reducing; tolerate losing the race with completion.
	var cancelWG sync.WaitGroup
	for i := 1; i < jobs; i += 2 {
		cancelWG.Add(1)
		go func(id uint64) {
			defer cancelWG.Done()
			err := reg.Cancel(id)
			if err != nil && !errorsIsAlreadyFinished(err) {
				t.Errorf("cancel: %v", err)
			}
		}(outs[i].Job.ID())
	}
	cancelWG.Wait()

	// Every job settles: evens complete, odds are canceled or completed.
	doneStates := map[string]int{}
	for i, out := range outs {
		res, err := out.Job.Wait(60 * time.Second)
		switch {
		case err == nil:
			doneStates["done"]++
			if res.Tally.Launched != 2000 {
				t.Errorf("job %d launched %d, want 2000", i, res.Tally.Launched)
			}
		case errors.Is(err, ErrCanceled):
			doneStates["canceled"]++
		default:
			t.Fatalf("job %d: %v", i, err)
		}
	}
	close(stopPolling)
	pollWG.Wait()

	// Quiesce: give in-flight batches a moment to drain, then the
	// counters must agree with the observed terminal states and no dead
	// job may still be charged queue depth.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := reg.Stats()
		if st.PendingChunks == 0 && st.OutstandingChunks == 0 &&
			st.JobsDone == doneStates["done"] && st.JobsCanceled == doneStates["canceled"] &&
			st.JobsQueued == 0 && st.JobsRunning == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet did not quiesce consistently: %+v vs terminal %v", st, doneStates)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And canceled jobs reject late interest rather than resurrecting.
	for i := 1; i < jobs; i += 2 {
		if err := reg.Cancel(outs[i].Job.ID()); err == nil {
			t.Errorf("double cancel of job %d accepted", i)
		}
	}
}

// errorsIsAlreadyFinished matches the Cancel error for a job that beat the
// cancel to a terminal state.
func errorsIsAlreadyFinished(err error) bool {
	return err != nil && strings.Contains(err.Error(), "already")
}

// TestUndecodableBatchRejectedAndRequeued drives the undecodable verdict: a
// batch whose tally bytes do not decode must reject every covered chunk,
// requeue the honestly owned ones, and leave the job finishable by an
// honest worker.
func TestUndecodableBatchRejectedAndRequeued(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess := reg.registerSession(&protocol.Hello{Name: "hostile"}, "")
	defer reg.releaseSession(sess)

	msg := reg.nextAssignment(sess, want(2))
	if msg.Type != protocol.MsgTaskAssign {
		t.Fatalf("expected assignment, got %v", msg.Type)
	}
	var chunks []int
	for _, g := range msg.Assign.Grants {
		chunks = append(chunks, g.ChunkID)
	}
	var scratch mc.Tally
	acks := reg.reduceBatch(sess, &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
		JobID:     msg.Assign.JobID,
		Chunks:    chunks,
		TallyData: []byte{0xFF, 0xFF, 0xFF},
	}}}, &scratch)
	if len(acks) != len(chunks) {
		t.Fatalf("%d acks for %d chunks", len(acks), len(chunks))
	}
	for _, a := range acks {
		if !a.Rejected {
			t.Fatalf("undecodable chunk %d not rejected: %+v", a.ChunkID, a)
		}
	}
	st := out.Job.Status()
	if st.Rejected != len(chunks) {
		t.Fatalf("job counted %d rejections, want %d", st.Rejected, len(chunks))
	}

	// The requeued chunks are still assignable and the job completes.
	startWorkers(t, reg, 1)
	res, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 300 {
		t.Fatalf("launched %d after recompute", res.Tally.Launched)
	}
}

// TestServeDrainsFleet covers Registry.Serve end to end over real TCP: a
// DrainOnEmpty registry accepts workers, finishes its jobs, tells the
// fleet Done and returns.
func TestServeDrainsFleet(t *testing.T) {
	reg := New(Options{DrainOnEmpty: true})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 400, ChunkPhotons: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- reg.Serve(l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workClient(conn, "tcp-worker"); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Job.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestResubmitAfterCancelTakesTheID: a resubmission of a canceled job is
// the job under its ID again — the ID replay restores it under — and the
// canceled job leaves the registry. A worker still holding a grant of the
// canceled run flushes it after the resubmission: the keys are equal, so
// the chunk is one of the resubmission's, it reduces, and the finished
// tally is byte-identical to an uninterrupted run folded in the same order.
func TestResubmitAfterCancelTakesTheID(t *testing.T) {
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 41}
	compute := func(reg *Registry, g *oneGrant) *protocol.ResultBatch {
		t.Helper()
		j := reg.Get(g.JobID)
		cfg, err := j.spec.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		tally, err := mc.RunStreamFan(cfg, g.Photons, j.spec.Seed, g.ChunkID, len(j.chunks), j.spec.Fan)
		if err != nil {
			t.Fatal(err)
		}
		return oneChunkBatch(g.JobID, g.ChunkID, tally)
	}
	reduce := func(reg *Registry, sess *session, b *protocol.ResultBatch) {
		t.Helper()
		if acks := reg.reduceBatch(sess, b, &mc.Tally{}); len(acks) != 1 || acks[0].Rejected || acks[0].Duplicate {
			t.Fatalf("chunk not reduced: %+v", acks)
		}
	}
	drain := func(reg *Registry, sess *session) {
		t.Helper()
		for g := reg.nextChunk(sess); g != nil; g = reg.nextChunk(sess) {
			reduce(reg, sess, compute(reg, g))
		}
	}

	base := New(Options{})
	outBase, err := base.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	drain(base, probeSession(base))
	resBase, err := outBase.Job.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}

	reg := New(Options{})
	sess := probeSession(reg)
	canceled, err := reg.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	id := canceled.Job.ID()
	held := reg.nextChunk(sess)
	if held == nil || held.JobID != id {
		t.Fatalf("grant %+v, want a chunk of job %016x", held, id)
	}
	late := compute(reg, held)
	if err := reg.Cancel(id); err != nil {
		t.Fatal(err)
	}
	out, err := reg.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached || out.Coalesced || out.Job == canceled.Job {
		t.Fatalf("resubmission after a cancel: %+v, want a fresh job", out)
	}
	if out.Job.ID() != id || reg.Get(id) != out.Job {
		t.Fatalf("resubmission is job %016x, want the canceled job's ID %016x", out.Job.ID(), id)
	}
	if list := reg.List(); len(list) != 1 || list[0].State != StateQueued.String() {
		t.Fatalf("registry lists %+v, want only the queued resubmission", list)
	}
	reduce(reg, sess, late)
	drain(reg, sess)
	res, err := out.Job.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mc.AppendTally(nil, res.Tally), mc.AppendTally(nil, resBase.Tally)) {
		t.Fatal("the resubmission's tally differs from the uninterrupted run's")
	}
}
