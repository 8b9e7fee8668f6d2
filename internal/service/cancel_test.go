package service

import (
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

// TestUndecodableBatchRejectedAndRequeued drives the rejectGroup path: a
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
