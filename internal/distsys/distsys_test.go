package distsys

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/optics"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// descriptor is the job descriptor a server sends for a job of spec: its
// submission bytes, a fixed count of the given chunks, or an open-ended
// precision-targeted job when chunks is 0.
func descriptor(tb testing.TB, spec *mc.Spec, seed uint64, chunks, fan int) []byte {
	tb.Helper()
	js := service.JobSpec{Spec: spec, TotalPhotons: int64(chunks), ChunkPhotons: 1, Seed: seed, Fan: fan}
	if chunks == 0 {
		js.Target = &mc.Target{RelErr: 0.05}
	}
	sub, err := service.AppendSubmission(nil, &js)
	if err != nil {
		tb.Fatal(err)
	}
	return sub
}

// quickSpec returns a cheap simulation spec for cluster tests.
func quickSpec() *mc.Spec {
	model := tissue.HomogeneousSlab("slab",
		tissue.ScalpProps, 5)
	return mc.NewSpec(model,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
}

func TestJobValidation(t *testing.T) {
	if _, err := NewDataManager(JobOptions{}); err == nil {
		t.Fatal("job without spec accepted")
	}
	if _, err := NewDataManager(JobOptions{Spec: quickSpec(), TotalPhotons: 0}); err == nil {
		t.Fatal("zero-photon job accepted")
	}
}

func TestChunkPartition(t *testing.T) {
	dm, err := NewDataManager(JobOptions{
		Spec: quickSpec(), TotalPhotons: 1050, ChunkPhotons: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dm.NumChunks() != 11 {
		t.Fatalf("chunks = %d, want 11", dm.NumChunks())
	}
	// Photon conservation across the partition (including the short tail
	// chunk) is asserted in internal/service's TestChunkPartition; here we
	// check it end-to-end through the launched count.
	res := runJob(t, JobOptions{
		Spec: quickSpec(), TotalPhotons: 1050, ChunkPhotons: 100, Seed: 1,
	}, []WorkerOptions{{Name: "solo"}})
	if res.Tally.Launched != 1050 {
		t.Fatalf("launched %d, want 1050", res.Tally.Launched)
	}
}

// runJob executes a distributed job over in-memory pipes with the given
// worker configurations and returns the result.
func runJob(t *testing.T, opts JobOptions, workers []WorkerOptions) *Result {
	t.Helper()
	dm, err := NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, w := range workers {
		server, client := net.Pipe()
		go dm.HandleConn(server)
		wg.Add(1)
		go func(w WorkerOptions) {
			defer wg.Done()
			_, err := Work(client, w)
			if err != nil && !errors.Is(err, ErrInjectedFailure) {
				// Connection teardown races are fine after job completion.
				select {
				case <-dm.Done():
				default:
					t.Errorf("worker %s: %v", w.Name, err)
				}
			}
		}(w)
	}
	res, err := dm.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return res
}

func TestSingleWorkerMatchesLocalRun(t *testing.T) {
	spec := quickSpec()
	const total, chunk, seed = 3000, 500, 11
	res := runJob(t, JobOptions{
		Spec: spec, TotalPhotons: total, ChunkPhotons: chunk, Seed: seed,
	}, []WorkerOptions{{Name: "solo"}})

	if res.Tally.Launched != total {
		t.Fatalf("launched %d, want %d", res.Tally.Launched, total)
	}

	// Ground truth: the same streams computed locally.
	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := mc.NewTally(cfg)
	streams := res.Chunks
	for s := 0; s < streams; s++ {
		chunkTally, err := mc.RunStream(cfg, chunk, seed, s, streams)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Merge(chunkTally); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(res.Tally.AbsorbedWeight-want.AbsorbedWeight) > 1e-9 {
		t.Fatalf("distributed absorbed %g != local %g",
			res.Tally.AbsorbedWeight, want.AbsorbedWeight)
	}
	if res.Tally.DetectedCount != want.DetectedCount {
		t.Fatalf("distributed detected %d != local %d",
			res.Tally.DetectedCount, want.DetectedCount)
	}
}

func TestManyWorkersSameResult(t *testing.T) {
	spec := quickSpec()
	opts := JobOptions{Spec: spec, TotalPhotons: 4000, ChunkPhotons: 250, Seed: 21}

	one := runJob(t, opts, []WorkerOptions{{Name: "a"}})
	four := runJob(t, opts, []WorkerOptions{
		{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"},
	})

	if one.Tally.Launched != four.Tally.Launched {
		t.Fatalf("launched differ: %d vs %d", one.Tally.Launched, four.Tally.Launched)
	}
	if one.Tally.DetectedCount != four.Tally.DetectedCount {
		t.Fatalf("worker count changed detections: %d vs %d",
			one.Tally.DetectedCount, four.Tally.DetectedCount)
	}
	if math.Abs(one.Tally.AbsorbedWeight-four.Tally.AbsorbedWeight) > 1e-9 {
		t.Fatalf("worker count changed absorption: %g vs %g",
			one.Tally.AbsorbedWeight, four.Tally.AbsorbedWeight)
	}
	// Work was actually shared.
	busy := 0
	for _, w := range four.Workers {
		if w.Chunks > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 4 workers did any work", busy)
	}
}

func TestHeterogeneousWorkers(t *testing.T) {
	spec := quickSpec()
	res := runJob(t, JobOptions{
		Spec: spec, TotalPhotons: 4000, ChunkPhotons: 200, Seed: 31,
	}, []WorkerOptions{
		{Name: "fast"},
		{Name: "slow", Slowdown: 3},
	})
	var fast, slow int
	for _, w := range res.Workers {
		switch w.Name {
		case "fast":
			fast = w.Chunks
		case "slow":
			slow = w.Chunks
		}
	}
	if fast+slow != res.Chunks {
		t.Fatalf("chunk accounting broken: %d + %d != %d", fast, slow, res.Chunks)
	}
	// Self-scheduling must give the faster machine more work.
	if fast <= slow {
		t.Fatalf("fast worker got %d chunks, slow got %d", fast, slow)
	}
}

func TestWorkerFailureRecovery(t *testing.T) {
	spec := quickSpec()
	const total, chunk = 3000, 150
	// One worker dies after 3 chunks; a reliable worker must finish the
	// job, including the chunks lost in flight.
	res := runJob(t, JobOptions{
		Spec: spec, TotalPhotons: total, ChunkPhotons: chunk, Seed: 41,
		ChunkTimeout: 5 * time.Second,
	}, []WorkerOptions{
		{Name: "flaky", FailAfterChunks: 3},
		{Name: "steady"},
	})
	if res.Tally.Launched != total {
		t.Fatalf("launched %d, want %d (lost chunks not recovered?)",
			res.Tally.Launched, total)
	}
}

func TestFailedWorkerChunksRequeued(t *testing.T) {
	// A worker that dies *between* assignment and result must have its
	// chunk requeued when the connection drops.
	spec := quickSpec()
	dm, err := NewDataManager(JobOptions{
		Spec: spec, TotalPhotons: 1000, ChunkPhotons: 100, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the transport mid-job from the worker side.
	server, client := net.Pipe()
	go dm.HandleConn(server)
	go func() {
		time.Sleep(50 * time.Millisecond)
		client.Close() // abrupt death
	}()
	Work(client, WorkerOptions{Name: "doomed"}) // error expected, ignore

	// A healthy worker completes everything.
	server2, client2 := net.Pipe()
	go dm.HandleConn(server2)
	go Work(client2, WorkerOptions{Name: "healthy"})

	res, err := dm.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 1000 {
		t.Fatalf("launched %d, want 1000", res.Tally.Launched)
	}
}

func TestDuplicateResultIgnored(t *testing.T) {
	// Drive the protocol by hand to deliver the same chunk result twice;
	// the reduction must stay exactly-once.
	spec := quickSpec()
	dm, err := NewDataManager(JobOptions{
		Spec: spec, TotalPhotons: 200, ChunkPhotons: 100, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	pc := protocol.NewConn(client)
	defer pc.Close()

	send := func(m *protocol.Message) {
		t.Helper()
		if err := pc.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *protocol.Message {
		t.Helper()
		m, err := pc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: "manual"}})
	recv() // welcome

	askOne := &protocol.Message{Type: protocol.MsgTaskRequest, Request: &protocol.TaskRequest{Want: 1}}
	send(askOne)
	granted := recv().Assign
	if granted.Submission == nil {
		t.Fatal("first assignment carried no job descriptor")
	}
	assign := granted.Grants[0]
	desc, err := service.DecodeSubmission(granted.Submission)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := desc.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	tally, err := mc.RunStream(cfg, assign.Photons, desc.Seed, assign.ChunkID, desc.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	result := oneChunkResult(granted.JobID, assign.ChunkID, tally)
	send(result)
	if ack := recv().BatchAck.Acks[0]; ack.Duplicate {
		t.Fatal("first delivery flagged duplicate")
	}
	send(result) // replay the same chunk
	if ack := recv().BatchAck.Acks[0]; !ack.Duplicate {
		t.Fatal("replayed result not flagged duplicate")
	}

	// Finish the job and check the duplicate did not double count.
	send(askOne)
	assign2 := recv().Assign.Grants[0]
	tally2, err := mc.RunStream(cfg, assign2.Photons, desc.Seed, assign2.ChunkID, desc.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	send(oneChunkResult(granted.JobID, assign2.ChunkID, tally2))
	recv() // ack

	res, err := dm.Wait(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 200 {
		t.Fatalf("duplicate inflated tally: launched %d, want 200", res.Tally.Launched)
	}
	if res.Duplicates != 1 {
		t.Fatalf("duplicates recorded %d, want 1", res.Duplicates)
	}
}

// oneChunkResult is the single-result frame: a request that hands back a
// batch covering one chunk and asks for no grant, answered NoWork with a
// one-entry BatchAck.
func oneChunkResult(jobID uint64, chunk int, tally *mc.Tally) *protocol.Message {
	return &protocol.Message{Type: protocol.MsgTaskRequest, Request: &protocol.TaskRequest{
		Batch: &protocol.ResultBatch{Groups: []protocol.BatchGroup{
			{JobID: jobID, Chunks: []int{chunk}, TallyData: mc.AppendTally(nil, tally)}}},
	}}
}

// TestForgedJobIDRejected drives the protocol by hand and delivers results
// that do not match the worker's current assignment — a forged JobID (the
// stale-worker-from-a-previous-run scenario) and a chunk the session was
// never handed. Both must be rejected without touching the reduction, and
// the job must still complete exactly once the honest results arrive.
func TestForgedJobIDRejected(t *testing.T) {
	spec := quickSpec()
	dm, err := NewDataManager(JobOptions{
		Spec: spec, TotalPhotons: 200, ChunkPhotons: 100, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	pc := protocol.NewConn(client)
	defer pc.Close()

	send := func(m *protocol.Message) {
		t.Helper()
		if err := pc.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() *protocol.Message {
		t.Helper()
		m, err := pc.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: "forger"}})
	recv() // welcome
	send(&protocol.Message{Type: protocol.MsgTaskRequest, Request: &protocol.TaskRequest{Want: 1}})
	granted := recv().Assign
	jobID, assign := granted.JobID, granted.Grants[0]
	desc, err := service.DecodeSubmission(granted.Submission)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := desc.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	tally, err := mc.RunStream(cfg, assign.Photons, desc.Seed, assign.ChunkID, desc.NumChunks())
	if err != nil {
		t.Fatal(err)
	}

	// A result with a forged JobID must be rejected, not reduced.
	send(oneChunkResult(jobID^0xdeadbeef, assign.ChunkID, tally))
	if ack := recv().BatchAck.Acks[0]; !ack.Rejected {
		t.Fatal("forged JobID not rejected")
	}
	// So must a result for a chunk this session was never assigned.
	otherChunk := 1 - assign.ChunkID
	otherTally, err := mc.RunStream(cfg, 100, desc.Seed, otherChunk, desc.NumChunks())
	if err != nil {
		t.Fatal(err)
	}
	send(oneChunkResult(jobID, otherChunk, otherTally))
	if ack := recv().BatchAck.Acks[0]; !ack.Rejected {
		t.Fatal("result for unassigned chunk not rejected")
	}
	if done, _ := dm.Progress(); done != 0 {
		t.Fatalf("rejected results were reduced: %d chunks completed", done)
	}

	// The honest worker still finishes the job, proving rejection did not
	// wedge the chunk queue: the forger's own chunk went back to the queue
	// with the first request that did not flush it.
	pc.Close()
	server2, client2 := net.Pipe()
	go dm.HandleConn(server2)
	go Work(client2, WorkerOptions{Name: "honest"})
	res, err := dm.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 200 {
		t.Fatalf("launched %d, want 200", res.Tally.Launched)
	}
	// The unassigned-chunk rejection is attributed to the job; the forged
	// JobID names no known job, so it only shows in the fleet counter.
	if res.Rejected != 1 {
		t.Fatalf("job rejected count %d, want 1", res.Rejected)
	}
	if n := dm.Stats().RejectedResults; n != 2 {
		t.Fatalf("fleet rejected count %d, want 2", n)
	}
}

// TestWorkerBatchIsItsGrant pins the result plane's one rule: whatever a
// worker has computed rides its next task request. One worker, ten chunks,
// a window of eight that opens 1, 2, 4 — so the chunks travel as grants of
// 1, 2, 4 and 3, each handed back as one batch on the request that asks for
// the next. The worker sends nothing but its hello and task requests, and
// the only NoWork it ever sees is the Done that answers the request
// carrying the last grant: no result waits out an extra round trip.
func TestWorkerBatchIsItsGrant(t *testing.T) {
	dm, err := NewDataManager(JobOptions{
		Spec: quickSpec(), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	oreg := obs.NewRegistry()
	stats, err := Work(client, WorkerOptions{Name: "solo", FlushChunks: 8, Obs: oreg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Wait(10 * time.Second); err != nil {
		t.Fatalf("worker left on Done with the job unfinished: %v", err)
	}
	if stats.Chunks != 10 || stats.Batches != 4 {
		t.Fatalf("%d chunks accepted in %d batches, want 10 in 4 (grants of 1, 2, 4, 3)", stats.Chunks, stats.Batches)
	}

	var text strings.Builder
	if err := oreg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		`worker_conn_frames_total{dir="send",type="hello"} 1`:        false,
		`worker_conn_frames_total{dir="send",type="task-request"} 5`: false,
		`worker_conn_frames_total{dir="recv",type="welcome"} 1`:      false,
		`worker_conn_frames_total{dir="recv",type="task-assign"} 4`:  false,
		`worker_conn_frames_total{dir="recv",type="no-work"} 1`:      false,
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if !strings.HasPrefix(line, "worker_conn_frames_total{") || strings.HasSuffix(line, " 0") {
			continue
		}
		if _, ok := want[line]; !ok {
			t.Errorf("unexpected frame traffic: %s", line)
		}
		want[line] = true
	}
	for line, seen := range want {
		if !seen {
			t.Errorf("missing frame count: %s", line)
		}
	}
}

func TestTCPEndToEnd(t *testing.T) {
	spec := quickSpec()
	dm, err := NewDataManager(JobOptions{
		Spec: spec, TotalPhotons: 2000, ChunkPhotons: 250, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dm.Serve(l)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := WorkTCP(l.Addr().String(), WorkerOptions{
				Name: string(rune('a' + i)),
			})
			if err != nil {
				select {
				case <-dm.Done():
				default:
					t.Errorf("tcp worker %d: %v", i, err)
				}
			}
		}(i)
	}
	res, err := dm.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.Tally.Launched != 2000 {
		t.Fatalf("launched %d", res.Tally.Launched)
	}
	if res.Tally.EnergyBalance() > 1e-6 {
		t.Fatalf("energy balance %g", res.Tally.EnergyBalance())
	}
}

func TestProgressReporting(t *testing.T) {
	dm, err := NewDataManager(JobOptions{
		Spec: quickSpec(), TotalPhotons: 500, ChunkPhotons: 100, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, total := dm.Progress()
	if done != 0 || total != 5 {
		t.Fatalf("initial progress %d/%d", done, total)
	}
}

func TestWaitTimeout(t *testing.T) {
	dm, err := NewDataManager(JobOptions{
		Spec: quickSpec(), TotalPhotons: 500, ChunkPhotons: 100, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Wait(30 * time.Millisecond); err == nil {
		t.Fatal("wait with no workers should time out")
	}
}

// voxelSpec returns a heterogeneous voxel-geometry job: a thin slab with an
// absorbing spherical inclusion.
func voxelSpec(t *testing.T) *mc.Spec {
	t.Helper()
	g, err := voxel.FromModel(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		40, 40, 10, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := g.AddMedium("absorber", optics.Properties{MuA: 1, MuS: 10, G: 0.9, N: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	g.PaintSphere(inc, 0, 0, 2.5, 1.5)
	return mc.NewVoxelSpec(g,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
}

// TestVoxelJobEndToEnd runs a voxel-geometry job through the full
// manager/worker path and checks the distributed reduction matches the
// same streams computed locally — the acceptance criterion for voxel jobs
// on the cluster.
func TestVoxelJobEndToEnd(t *testing.T) {
	spec := voxelSpec(t)
	const total, chunk, seed = 2000, 250, 13
	res := runJob(t, JobOptions{
		Spec: spec, TotalPhotons: total, ChunkPhotons: chunk, Seed: seed,
	}, []WorkerOptions{{Name: "vox-a"}, {Name: "vox-b"}, {Name: "vox-c"}})

	if res.Tally.Launched != total {
		t.Fatalf("launched %d, want %d", res.Tally.Launched, total)
	}
	// The per-region tallies must be sized by the voxel media table
	// (slab + absorber), not a layered model.
	if len(res.Tally.LayerAbsorbed) != 2 {
		t.Fatalf("tally regions = %d, want 2", len(res.Tally.LayerAbsorbed))
	}
	if res.Tally.LayerAbsorbed[1] == 0 {
		t.Fatal("no absorption recorded in the inclusion medium")
	}

	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := mc.NewTally(cfg)
	for s := 0; s < res.Chunks; s++ {
		chunkTally, err := mc.RunStream(cfg, chunk, seed, s, res.Chunks)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Merge(chunkTally); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(res.Tally.AbsorbedWeight-want.AbsorbedWeight) > 1e-9 {
		t.Fatalf("distributed absorbed %g != local %g",
			res.Tally.AbsorbedWeight, want.AbsorbedWeight)
	}
	if math.Abs(res.Tally.LateralWeight-want.LateralWeight) > 1e-9 {
		t.Fatalf("distributed lateral %g != local %g",
			res.Tally.LateralWeight, want.LateralWeight)
	}
	if res.Tally.DetectedCount != want.DetectedCount {
		t.Fatalf("distributed detected %d != local %d",
			res.Tally.DetectedCount, want.DetectedCount)
	}
}

// TestSessionSharesEqualGrids: one session computing three voxel jobs — two
// on equal grids that arrived as separate copies, one on a grid a single
// label away — builds a traversal accelerator once per distinct grid, not
// once per job, and sharing changes no tally: each job reduces to the bytes
// it reduces to on a session of its own.
func TestSessionSharesEqualGrids(t *testing.T) {
	other := voxelSpec(t)
	other.Voxel.Labels[other.Voxel.Index(3, 3, 3)] ^= 1
	jobs := []service.JobSpec{
		{Spec: voxelSpec(t), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 1},
		{Spec: voxelSpec(t), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 2},
		{Spec: other, TotalPhotons: 1000, ChunkPhotons: 250, Seed: 3},
	}
	// session runs the given jobs on one worker session and returns their
	// encoded tallies with the session's two geometry counters.
	session := func(jobs []service.JobSpec) (tallies [][]byte, builds, shared uint64) {
		t.Helper()
		reg := service.New(service.Options{})
		var accepted []*service.Job
		for _, js := range jobs {
			out, err := reg.Submit(js)
			if err != nil {
				t.Fatal(err)
			}
			accepted = append(accepted, out.Job)
		}
		server, client := net.Pipe()
		go reg.HandleConn(server)
		oreg := obs.NewRegistry()
		stop, done := make(chan struct{}), make(chan error, 1)
		go func() {
			// One chunk per flush: the server then merges a job's chunks one
			// at a time in stream order whatever else the session computes,
			// so equal tallies are equal to the last bit of every sum.
			_, err := Work(client, WorkerOptions{Name: "w", Obs: oreg, Stop: stop, FlushChunks: 1})
			done <- err
		}()
		for _, j := range accepted {
			res, err := j.Wait(60 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			tallies = append(tallies, mc.AppendTally(nil, res.Tally))
		}
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("worker: %v", err)
		}
		return tallies, oreg.Counter("worker_geometry_builds_total", "").Value(),
			oreg.Counter("worker_geometry_shared_total", "").Value()
	}

	together, builds, shared := session(jobs)
	if builds != 2 || shared != 1 {
		t.Fatalf("three jobs over two distinct grids: %d built, %d shared (want 2, 1)", builds, shared)
	}
	for i, js := range jobs {
		alone, builds, shared := session([]service.JobSpec{js})
		if builds != 1 || shared != 0 {
			t.Fatalf("job %d alone: %d built, %d shared (want 1, 0)", i, builds, shared)
		}
		if !bytes.Equal(together[i], alone[0]) {
			t.Errorf("job %d: tally on the shared grid differs from its own session's", i)
		}
	}
}

// tapConn records every byte the worker reads: the server's side of the
// session, as it went over the wire.
type tapConn struct {
	net.Conn
	read bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Write(p[:n])
	return n, err
}

// TestSessionDescriptorCacheEvictsOldest runs one real worker session
// through protocol.MaxDescriptors+1 distinct jobs and then a second chunk
// of the first and of the last, and counts the descriptors on the wire:
// one per job while the session holds it, and one more for the first job,
// which the last one's descriptor evicted at both ends.
func TestSessionDescriptorCacheEvictsOldest(t *testing.T) {
	const n = protocol.MaxDescriptors + 1
	// Fair share grants the least-served job first, the earliest on a tie,
	// so one chunk per request visits jobs 0..n-1 and then the two jobs
	// with a second chunk, the first one first.
	reg := service.New(service.Options{Policy: service.FairShare()})
	var accepted []*service.Job
	for i := range n {
		photons := int64(10)
		if i == 0 || i == n-1 {
			photons = 20
		}
		out, err := reg.Submit(service.JobSpec{Spec: quickSpec(), TotalPhotons: photons, ChunkPhotons: 10,
			Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		accepted = append(accepted, out.Job)
	}
	server, client := net.Pipe()
	go reg.HandleConn(server)
	tap := &tapConn{Conn: client}
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		_, err := Work(tap, WorkerOptions{Name: "w", Stop: stop, FlushChunks: 1})
		done <- err
	}()
	for _, j := range accepted {
		if _, err := j.Wait(60 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}

	pc := protocol.NewConn(struct {
		io.Reader
		io.Writer
		io.Closer
	}{&tap.read, io.Discard, io.NopCloser(nil)})
	index := map[uint64]int{}
	for i, j := range accepted {
		index[j.ID()] = i
	}
	var order []int
	described := make([]int, n)
	for {
		m, err := pc.Recv()
		if err != nil {
			break // the session's end, possibly a frame the stop cut short
		}
		if m.Type != protocol.MsgTaskAssign {
			continue
		}
		i := index[m.Assign.JobID]
		order = append(order, i)
		if m.Assign.Submission != nil {
			described[i]++
		}
	}
	wantOrder := make([]int, 0, n+2)
	for i := range n {
		wantOrder = append(wantOrder, i)
	}
	wantOrder = append(wantOrder, 0, n-1)
	if !slices.Equal(order, wantOrder) {
		t.Fatalf("jobs granted in order %v, want %v", order, wantOrder)
	}
	for i, got := range described {
		want := 1
		if i == 0 {
			want = 2
		}
		if got != want {
			t.Errorf("job %d described %d times, want %d", i, got, want)
		}
	}
}
