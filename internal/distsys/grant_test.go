package distsys

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/service"
)

// handServer is the server end of one worker session driven by hand: it
// welcomes the worker, then answers each task request with the grant the
// caller names, acking whatever batch rode in.
type handServer struct {
	tb   testing.TB
	pc   *protocol.Conn
	job  *protocol.Job
	sent bool // the job's descriptor has gone out
}

// startHandSession runs Work(opts) over a net.Pipe against a hand-driven
// server for job; the channel yields Work's error when the session ends.
func startHandSession(tb testing.TB, job *protocol.Job, opts WorkerOptions) (*handServer, <-chan error) {
	tb.Helper()
	server, client := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := Work(client, opts)
		done <- err
	}()
	s := &handServer{tb: tb, pc: protocol.NewConn(server), job: job}
	tb.Cleanup(func() { s.pc.Close() })
	if m := s.recv(); m.Type != protocol.MsgHello {
		tb.Fatalf("worker opened with %v, want hello", m.Type)
	}
	if err := s.pc.Send(&protocol.Message{Type: protocol.MsgWelcome,
		Welcome: &protocol.Welcome{Version: protocol.Version}}); err != nil {
		tb.Fatal(err)
	}
	return s, done
}

func (s *handServer) recv() *protocol.Message {
	s.tb.Helper()
	m, err := s.pc.Recv()
	if err != nil {
		s.tb.Fatal(err)
	}
	return m
}

// exchange reads the worker's next task request and answers it with grants,
// or with Done when grants is empty. It returns the batch group the request
// handed back, nil when it carried none.
func (s *handServer) exchange(grants []protocol.ChunkGrant) *protocol.BatchGroup {
	s.tb.Helper()
	req := s.recv()
	if req.Type != protocol.MsgTaskRequest {
		s.tb.Fatalf("worker sent %v, want a task request", req.Type)
	}
	reply := &protocol.Message{Type: protocol.MsgNoWork, NoWork: &protocol.NoWork{Done: true}}
	if len(grants) > 0 {
		reply = &protocol.Message{Type: protocol.MsgTaskAssign,
			Assign: &protocol.TaskAssign{JobID: s.job.ID, Grants: grants}}
		if !s.sent {
			reply.Assign.Job, s.sent = s.job, true
		}
	}
	var group *protocol.BatchGroup
	if b := req.Request.Batch; b != nil {
		group = &b.Groups[0]
		acks := make([]protocol.ResultAck, len(group.Chunks))
		for i, c := range group.Chunks {
			acks[i] = protocol.ResultAck{JobID: group.JobID, ChunkID: c}
		}
		reply.BatchAck = &protocol.BatchAck{Acks: acks}
	}
	if err := s.pc.Send(reply); err != nil {
		s.tb.Fatal(err)
	}
	return group
}

func chunkIDs(grants []protocol.ChunkGrant) []int {
	ids := make([]int, len(grants))
	for i, g := range grants {
		ids[i] = g.ChunkID
	}
	return ids
}

// TestGrantBatchIndependentOfGOMAXPROCS: a grant's chunks run side by side
// but merge in grant order, so one session's batches are the same bytes on
// one, two or four cores — the bytes of merging mc.RunStream's chunk
// tallies in grant order.
func TestGrantBatchIndependentOfGOMAXPROCS(t *testing.T) {
	spec := quickSpec()
	spec.TrackMoments = true
	spec.PathGrid = &mc.GridSpec{N: 8, Edge: 20} // the kernels' pooled visit buffers
	const seed, streams = 17, 12
	job := &protocol.Job{ID: 5, Spec: *spec, Seed: seed, Streams: streams}
	// Grants of one, eight and three chunks, out of stream order, of
	// differing sizes.
	var grants [][]protocol.ChunkGrant
	for _, order := range [][]int{{4}, {11, 0, 7, 2, 9, 5, 1, 10}, {3, 8, 6}} {
		var grant []protocol.ChunkGrant
		for _, s := range order {
			grant = append(grant, protocol.ChunkGrant{ChunkID: s, Stream: s, Photons: int64(100 + 10*s)})
		}
		grants = append(grants, grant)
	}

	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for _, grant := range grants {
		var merged *mc.Tally
		for _, g := range grant {
			chunk, err := mc.RunStream(cfg, g.Photons, seed, g.Stream, streams)
			if err != nil {
				t.Fatal(err)
			}
			if merged == nil {
				merged = chunk
			} else if err := merged.Merge(chunk); err != nil {
				t.Fatal(err)
			}
		}
		want = append(want, mc.AppendTally(nil, merged))
	}

	session := func(procs int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		s, done := startHandSession(t, job, WorkerOptions{Name: "w"})
		s.exchange(grants[0])
		for i := range grants {
			var next []protocol.ChunkGrant
			if i+1 < len(grants) {
				next = grants[i+1]
			}
			got := s.exchange(next)
			if got == nil || !slices.Equal(got.Chunks, chunkIDs(grants[i])) {
				t.Fatalf("GOMAXPROCS %d, grant %d: batch covers %v, want %v", procs, i, got, chunkIDs(grants[i]))
			}
			if !bytes.Equal(got.TallyData, want[i]) {
				t.Errorf("GOMAXPROCS %d, grant %d: batch differs from the in-order merge of its chunks", procs, i)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
	}
	for _, procs := range []int{1, 2, 4} {
		session(procs)
	}
}

// TestStopMidGrantHandsBackStartedPrefix: Stop closed while a grant of four
// runs on two kernels starts no further chunk; the two already started
// finish and are handed back — the grant's first two — and the server
// requeues the other two at once, which a second worker then computes.
func TestStopMidGrantHandsBackStartedPrefix(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	reg := service.New(service.Options{CacheSize: -1})
	submit := func(photons, chunk int64) *service.Job {
		t.Helper()
		out, err := reg.Submit(service.JobSpec{Spec: quickSpec(), TotalPhotons: photons, ChunkPhotons: chunk, Seed: uint64(photons)})
		if err != nil {
			t.Fatal(err)
		}
		return out.Job
	}
	// A cheap job of three chunks opens the worker's window 1, 2, 4; the
	// next job's four chunks then arrive as one grant.
	warm := submit(30, 10)
	server, client := net.Pipe()
	go reg.HandleConn(server)
	oreg := obs.NewRegistry()
	stop := make(chan struct{})
	type result struct {
		stats *WorkerStats
		err   error
	}
	left := make(chan result, 1)
	go func() {
		stats, err := Work(client, WorkerOptions{Name: "leaver", FlushChunks: 4, Stop: stop, Obs: oreg})
		left <- result{stats, err}
	}()
	if _, err := warm.Wait(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	const chunk = 8000 // ≈ 0.1 s of kernel each: Stop lands well inside the two started
	job := submit(4*chunk, chunk)
	kinds := func(kind obs.EventKind) []int {
		events, _ := job.Events()
		var ids []int
		for _, e := range events {
			if e.Kind == kind {
				ids = append(ids, e.Chunk)
			}
		}
		return ids
	}
	assigns := oreg.CounterVec("worker_conn_frames_total", "", "dir", "type").With("recv", "task-assign")
	deadline := time.Now().Add(30 * time.Second)
	for assigns.Value() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("the grant of four never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}
	// From the grant's arrival to both chunks started is a spec build and
	// a goroutine start.
	time.Sleep(30 * time.Millisecond)
	close(stop)
	r := <-left
	if r.err != nil {
		t.Fatalf("stop mid-grant is a clean drain, got %v", r.err)
	}

	granted := kinds(obs.EvChunkGranted)
	if len(granted) != 4 {
		t.Fatalf("granted %v, want one grant of four", granted)
	}
	if got := kinds(obs.EvChunkCompleted); !slices.Equal(got, granted[:2]) {
		t.Errorf("handed back %v of grant %v, want its first two", got, granted)
	}
	if got := kinds(obs.EvChunkReassigned); !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(granted[2:]))) {
		t.Errorf("requeued %v of grant %v, want its last two", got, granted)
	}
	if n := oreg.Counter("worker_chunks_computed_total", "").Value(); n != 5 || r.stats.Chunks != 5 {
		t.Errorf("worker computed %d chunks and had %d accepted, want 5 and 5 (3 warm-up, 2 of the grant)", n, r.stats.Chunks)
	}

	server2, client2 := net.Pipe()
	go reg.HandleConn(server2)
	stop2 := make(chan struct{})
	finished := make(chan error, 1)
	go func() {
		_, err := Work(client2, WorkerOptions{Name: "finisher", Stop: stop2})
		finished <- err
	}()
	res, err := job.Wait(60 * time.Second)
	close(stop2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 4*chunk {
		t.Fatalf("launched %d photons, want %d", res.Tally.Launched, 4*chunk)
	}
	if err := <-finished; err != nil {
		t.Fatal(err)
	}
}

// TestChunkBudgetsCapParallelGrants: DrainAfterChunks and FailAfterChunks
// cut the grant that reaches them before it starts, so a worker computing
// its grants on two kernels computes exactly its budget and the server
// reduces exactly that. The window opens 1, 2, 4: the third grant is cut
// to three for the drain and to two for the failure.
func TestChunkBudgetsCapParallelGrants(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		name    string
		opts    WorkerOptions
		budget  int
		wantErr error
	}{
		{"drain", WorkerOptions{DrainAfterChunks: 6}, 6, nil},
		{"fail", WorkerOptions{FailAfterChunks: 5}, 5, ErrInjectedFailure},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dm, err := NewDataManager(JobOptions{Spec: quickSpec(), TotalPhotons: 1600, ChunkPhotons: 100, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			server, client := net.Pipe()
			go dm.HandleConn(server)
			oreg := obs.NewRegistry()
			opts := tc.opts
			opts.Name, opts.FlushChunks, opts.Obs = tc.name, 8, oreg
			stats, err := Work(client, opts)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Work returned %v, want %v", err, tc.wantErr)
			}
			computed := int(oreg.Counter("worker_chunks_computed_total", "").Value())
			done, _ := dm.Progress()
			if computed != tc.budget || stats.Chunks != tc.budget || done != tc.budget {
				t.Fatalf("computed %d, accepted %d, reduced %d chunks, want %d each", computed, stats.Chunks, done, tc.budget)
			}
		})
	}
}

// TestReportedRateMatchesInferred: the photon rate an idle two-core worker
// reports on /fleet agrees with the one the server infers from grant-to-
// result timing. A per-chunk rate would read half the inferred one, because
// the grant's chunks run side by side.
func TestReportedRateMatchesInferred(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	reg := service.New(service.Options{CacheSize: -1})
	out, err := reg.Submit(service.JobSpec{Spec: quickSpec(), TotalPhotons: 40 * 1500, ChunkPhotons: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go reg.HandleConn(server)
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Work(client, WorkerOptions{Name: "duo", Stop: stop})
		done <- err
	}()
	defer func() {
		close(stop)
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	if _, err := out.Job.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A report rides at most one request per 250 ms, and an idle worker's
	// parked request is answered within a second, so a report that has
	// seen the whole job arrives within a few.
	var reported, inferred float64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		fleet := reg.Fleet()
		if len(fleet) != 1 {
			t.Fatalf("fleet has %d sessions, want 1", len(fleet))
		}
		reported, inferred = fleet[0].ReportedPhotonsPerSec, fleet[0].InferredPhotonsPerSec
		if inferred > 0 && reported > inferred/1.5 && reported < inferred*1.5 {
			return
		}
	}
	t.Fatalf("reported %.0f photons/s against %.0f inferred, want within 1.5×", reported, inferred)
}

// BenchmarkWorkerGrant times one grant of eight 64-photon chunks on the
// benchmark's slab — the grain of tenant-mix's in-flight originals — from
// the assignment leaving a hand-driven server over net.Pipe to its batch
// coming back. make kernel-bench runs it at -cpu 1,2: two cores should
// take about half the time of one, and no scaling means the kernels write
// to a shared cache line.
func BenchmarkWorkerGrant(b *testing.B) {
	job := &protocol.Job{ID: 1, Spec: *quickSpec(), Seed: 7, Streams: 8}
	grant := make([]protocol.ChunkGrant, 8)
	for i := range grant {
		grant[i] = protocol.ChunkGrant{ChunkID: i, Stream: i, Photons: 64}
	}
	s, done := startHandSession(b, job, WorkerOptions{Name: "bench"})
	s.exchange(grant) // the first grant builds the job and its kernels
	s.exchange(grant)
	// A b.N loop, not b.Loop: a b.Loop benchmark's first -cpu entry is timed
	// in its probe run, before testing sets that entry's GOMAXPROCS.
	b.ResetTimer()
	for range b.N {
		s.exchange(grant)
	}
	b.StopTimer()
	s.exchange(nil)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}
