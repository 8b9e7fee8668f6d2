package distsys

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/service"
)

// handServer is the server end of one worker session driven by hand: it
// welcomes the worker, then answers each task request with the grant the
// caller names of job handJobID, acking whatever batch rode in.
type handServer struct {
	tb   testing.TB
	pc   *protocol.Conn
	job  []byte // the job's descriptor
	sent bool   // the job's descriptor has gone out
}

// handJobID is the id of a hand-driven session's job.
const handJobID = 5

// startHandSession runs Work(opts) over a net.Pipe against a hand-driven
// server for the job of descriptor job; the channel yields Work's error
// when the session ends.
func startHandSession(tb testing.TB, job []byte, opts WorkerOptions) (*handServer, <-chan error) {
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
			Assign: &protocol.TaskAssign{JobID: handJobID, Grants: grants}}
		if !s.sent {
			reply.Assign.Submission, s.sent = s.job, true
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
// one, two or four cores — the bytes of merging mc.RunStreamFan's chunk
// tallies in grant order, for a plain job and for a fanned one, whose
// chunks' sub-streams the cores share across chunk boundaries.
func TestGrantBatchIndependentOfGOMAXPROCS(t *testing.T) {
	spec := quickSpec()
	spec.TrackMoments = true
	spec.PathGrid = &mc.GridSpec{N: 8, Edge: 20} // the kernels' pooled visit buffers
	const seed, streams = 17, 12
	// Grants of one, eight and three chunks, out of stream order, of
	// differing sizes.
	var grants [][]protocol.ChunkGrant
	for _, order := range [][]int{{4}, {11, 0, 7, 2, 9, 5, 1, 10}, {3, 8, 6}} {
		var grant []protocol.ChunkGrant
		for _, s := range order {
			grant = append(grant, protocol.ChunkGrant{ChunkID: s, Photons: int64(100 + 10*s)})
		}
		grants = append(grants, grant)
	}

	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, fan := range []int{1, 3} {
		job := descriptor(t, spec, seed, streams, fan)
		var want [][]byte
		for _, grant := range grants {
			var merged *mc.Tally
			for _, g := range grant {
				chunk, err := mc.RunStreamFan(cfg, g.Photons, seed, g.ChunkID, streams, fan)
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
					t.Fatalf("fan %d, GOMAXPROCS %d, grant %d: batch covers %v, want %v", fan, procs, i, got, chunkIDs(grants[i]))
				}
				if !bytes.Equal(got.TallyData, want[i]) {
					t.Errorf("fan %d, GOMAXPROCS %d, grant %d: batch differs from the in-order merge of its chunks", fan, procs, i)
				}
			}
			if err := <-done; err != nil {
				t.Fatalf("fan %d, GOMAXPROCS %d: %v", fan, procs, err)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			session(procs)
		}
	}
}

// TestStopMidGrantHandsBackStartedPrefix: Stop closed while a grant of four
// runs starts no further unit; those already started finish, only the
// chunks whose units all ran are handed back — a prefix of the grant — and
// the server requeues the rest at once, which a second worker then
// computes. On two kernels a plain grant hands back the two chunks started.
// A fan-3 grant's chunks are three units each, and four kernels start the
// first four: the first chunk whole and one unit of the second, so the
// first chunk alone comes back.
func TestStopMidGrantHandsBackStartedPrefix(t *testing.T) {
	for _, tc := range []struct{ fan, procs, back int }{{1, 2, 2}, {3, 4, 1}} {
		t.Run(fmt.Sprintf("fan%d", tc.fan), func(t *testing.T) { stopMidGrant(t, tc.fan, tc.procs, tc.back) })
	}
}

// stopMidGrant closes Stop while a grant of four chunks of a job of the
// given fan runs on procs kernels, and checks that the grant's first back
// chunks are handed back, the rest requeued, and that a second worker then
// finishes the job.
func stopMidGrant(t *testing.T, fan, procs, back int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	reg := service.New(service.Options{})
	submit := func(photons, chunk int64, fan int) *service.Job {
		t.Helper()
		out, err := reg.Submit(service.JobSpec{Spec: quickSpec(), TotalPhotons: photons, ChunkPhotons: chunk,
			Seed: uint64(photons), Fan: fan})
		if err != nil {
			t.Fatal(err)
		}
		return out.Job
	}
	// A cheap job of three chunks opens the worker's window 1, 2, 4; the
	// next job's four chunks then arrive as one grant.
	warm := submit(30, 10, 1)
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
	// ≈ 0.1 s of kernel per chunk or fanned sub-stream: Stop lands well
	// inside the units started.
	chunk := int64(8000 * fan)
	job := submit(4*chunk, chunk, fan)
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
	// From the grant's arrival to every kernel started is a spec build and
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
	if got := kinds(obs.EvChunkCompleted); !slices.Equal(got, granted[:back]) {
		t.Errorf("handed back %v of grant %v, want its first %d", got, granted, back)
	}
	if got := kinds(obs.EvChunkReassigned); !slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(granted[back:]))) {
		t.Errorf("requeued %v of grant %v, want its last %d", got, granted, 4-back)
	}
	if n := oreg.Counter("worker_chunks_computed_total", "").Value(); n != uint64(3+back) || r.stats.Chunks != 3+back {
		t.Errorf("worker computed %d chunks and had %d accepted, want %d and %d (3 warm-up, %d of the grant)",
			n, r.stats.Chunks, 3+back, 3+back, back)
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

// TestInferredRateReadsWholeWorker: the one photon rate /fleet shows for a
// two-core worker is the whole worker's — within 1.5× of the job's photons
// over its wall time. A per-chunk rate would read about half of it, because
// a grant's chunks run side by side.
func TestInferredRateReadsWholeWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	reg := service.New(service.Options{})
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
	const photons = 40 * 1500
	start := time.Now()
	out, err := reg.Submit(service.JobSpec{Spec: quickSpec(), TotalPhotons: photons, ChunkPhotons: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Job.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	whole := photons / time.Since(start).Seconds()
	fleet := reg.Fleet()
	if len(fleet) != 1 {
		t.Fatalf("fleet has %d sessions, want 1", len(fleet))
	}
	if inferred := fleet[0].InferredPhotonsPerSec; !(inferred > whole/1.5 && inferred < whole*1.5) {
		t.Fatalf("/fleet reads %.0f photons/s against the job's %.0f, want within 1.5×", inferred, whole)
	}
}

// BenchmarkWorkerGrant times one grant of eight 64-photon chunks on the
// benchmark's slab — the grain of tenant-mix's in-flight originals — from
// the assignment leaving a hand-driven server over net.Pipe to its batch
// coming back. make kernel-bench runs it at -cpu 1,2: two cores should
// take about half the time of one, and no scaling means the kernels write
// to a shared cache line.
func BenchmarkWorkerGrant(b *testing.B) {
	job := descriptor(b, quickSpec(), 7, 8, 0)
	grant := make([]protocol.ChunkGrant, 8)
	for i := range grant {
		grant[i] = protocol.ChunkGrant{ChunkID: i, Photons: 64}
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

// TestWorkerSurvivesBodilessReply: a server's no-work, task-assign or error
// reply always decodes with its body, so one sent without it ends the
// session with an error — the worker never dereferences a nil body.
func TestWorkerSurvivesBodilessReply(t *testing.T) {
	for _, typ := range []protocol.MsgType{protocol.MsgNoWork, protocol.MsgTaskAssign, protocol.MsgError} {
		t.Run(typ.String(), func(t *testing.T) {
			server, client := net.Pipe()
			panicked := make(chan any, 1)
			go func() {
				defer func() { panicked <- recover() }()
				Work(client, WorkerOptions{Name: "w"})
			}()
			pc := protocol.NewConn(server)
			if _, err := pc.Recv(); err != nil { // hello
				t.Fatal(err)
			}
			if err := pc.Send(&protocol.Message{Type: protocol.MsgWelcome,
				Welcome: &protocol.Welcome{Version: protocol.Version}}); err != nil {
				t.Fatal(err)
			}
			if _, err := pc.Recv(); err != nil { // the first task request
				t.Fatal(err)
			}
			pc.Send(&protocol.Message{Type: typ})
			pc.Close()
			select {
			case p := <-panicked:
				if p != nil {
					t.Fatalf("Work panicked on a bodiless %v reply: %v", typ, p)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Work did not return")
			}
		})
	}
}

// TestWorkerRefusesWideFan: a descriptor fanned wider than protocol.MaxFan
// ends the session before the worker builds the job or allocates a
// generator per sub-stream.
func TestWorkerRefusesWideFan(t *testing.T) {
	reg := obs.NewRegistry()
	job := descriptor(t, quickSpec(), 7, 8, protocol.MaxFan+1)
	s, done := startHandSession(t, job, WorkerOptions{Name: "w", Obs: reg})
	s.exchange([]protocol.ChunkGrant{{ChunkID: 0, Photons: 10}})
	if err := <-done; err == nil || !strings.Contains(err.Error(), "fan") {
		t.Fatalf("Work returned %v, want a refusal of the fan", err)
	}
	if got := reg.Counter("worker_chunks_computed_total", "").Value(); got != 0 {
		t.Fatalf("worker computed %d chunks of a refused job", got)
	}
}

// TestWorkerRefusesDescriptorWithoutChunkSize: a fixed-count descriptor
// whose chunk size is not positive has no chunk count to bound a chunk id
// by, so it ends the session before the worker builds the job, not in a
// division by zero.
func TestWorkerRefusesDescriptorWithoutChunkSize(t *testing.T) {
	job, err := service.AppendSubmission(nil, &service.JobSpec{Spec: quickSpec(), TotalPhotons: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s, done := startHandSession(t, job, WorkerOptions{Name: "w"})
	s.exchange([]protocol.ChunkGrant{{ChunkID: 0, Photons: 10}})
	if err := <-done; err == nil || !strings.Contains(err.Error(), "no chunk size") {
		t.Fatalf("Work returned %v, want a refusal of the descriptor", err)
	}
}

// TestWorkerBoundsChunkByDescriptor: a chunk id is its stream, and a
// fixed-count descriptor bounds it by the job's NumChunks. A worker handed
// a chunk id at or past that bound ends the session before it computes
// anything, and the server requeues the grant, which an honest session then
// finishes; an open-ended descriptor accepts any id.
func TestWorkerBoundsChunkByDescriptor(t *testing.T) {
	t.Run("open-ended", func(t *testing.T) {
		s, done := startHandSession(t, descriptor(t, quickSpec(), 7, 0, 0), WorkerOptions{Name: "w"})
		far := []protocol.ChunkGrant{{ChunkID: 1000, Photons: 10}}
		s.exchange(far)
		if got := s.exchange(nil); got == nil || !slices.Equal(got.Chunks, chunkIDs(far)) {
			t.Fatalf("open-ended job's chunk %d came back as %+v", far[0].ChunkID, got)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})

	t.Run("fixed-count", func(t *testing.T) {
		reg := service.New(service.Options{})
		out, err := reg.Submit(service.JobSpec{Spec: quickSpec(), TotalPhotons: 20, ChunkPhotons: 10, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		// A relay between the registry and the worker shifts every granted
		// chunk id past the job's two chunks.
		server, up := net.Pipe()
		go reg.HandleConn(server)
		down, client := net.Pipe()
		go func() { io.Copy(up, down); up.Close() }()
		go func() {
			from, to := protocol.NewConn(up), protocol.NewConn(down)
			defer down.Close()
			for {
				m, err := from.Recv()
				if err != nil {
					return
				}
				if m.Type == protocol.MsgTaskAssign {
					for i := range m.Assign.Grants {
						m.Assign.Grants[i].ChunkID += 2
					}
				}
				if to.Send(m) != nil {
					return
				}
			}
		}()
		oreg := obs.NewRegistry()
		if _, err := Work(client, WorkerOptions{Name: "misled", Obs: oreg}); err == nil ||
			!strings.Contains(err.Error(), "outside [0,2)") {
			t.Fatalf("Work returned %v, want a refusal of a chunk past 2", err)
		}
		if got := oreg.Counter("worker_chunks_computed_total", "").Value(); got != 0 {
			t.Fatalf("worker computed %d chunks past the job's bound", got)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			events, _ := out.Job.Events()
			if slices.ContainsFunc(events, func(e obs.Event) bool { return e.Kind == obs.EvChunkReassigned }) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the refused grant was never requeued")
			}
			time.Sleep(time.Millisecond)
		}
		server, client = net.Pipe()
		go reg.HandleConn(server)
		go Work(client, WorkerOptions{Name: "honest"})
		res, err := out.Job.Wait(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Tally.Launched != 20 {
			t.Fatalf("job finished with %d photons, want 20", res.Tally.Launched)
		}
	})
}
