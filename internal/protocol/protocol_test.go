package protocol

import (
	"io"
	"math"
	"net"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// pipePair returns two protocol connections joined by an in-memory pipe.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

// flush is the frame a result batch travels in: a task request carrying it.
func flush(b *ResultBatch) *Message {
	return &Message{Type: MsgTaskRequest, Request: &TaskRequest{Batch: b}}
}

func TestHelloRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	go func() {
		c1.Send(&Message{Type: MsgHello, Hello: &Hello{
			Version: Version, Name: "w1", Mflops: 209,
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgHello || m.Hello.Name != "w1" || m.Hello.Mflops != 209 {
		t.Fatalf("round trip lost data: %+v", m)
	}
}

func TestJobSpecRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	spec := mc.NewSpec(tissue.AdultHead(),
		source.Spec{Kind: source.KindGaussian, Param: 2},
		detector.Spec{Kind: detector.KindDisk, CenterX: 20, Radius: 2.5,
			Gate: detector.Gate{MinPath: 10, MaxPath: 900}})
	spec.Boundary = mc.BoundaryDeterministic
	spec.PathGrid = &mc.GridSpec{N: 50, Edge: 60}

	go func() {
		c1.Send(&Message{Type: MsgTaskAssign, Assign: &TaskAssign{
			JobID: 42, Grants: []ChunkGrant{{ChunkID: 3, Stream: 3, Photons: 500}},
			Job: &Job{ID: 42, Spec: *spec, Seed: 7, Streams: 100},
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Assign.Job == nil {
		t.Fatal("piggybacked job descriptor lost")
	}
	job := *m.Assign.Job
	if job.ID != 42 || job.Seed != 7 || job.Streams != 100 {
		t.Fatalf("job metadata lost: %+v", job)
	}
	got := job.Spec
	if got.Boundary != mc.BoundaryDeterministic {
		t.Fatal("boundary mode lost")
	}
	if got.Model.NumLayers() != 5 {
		t.Fatalf("model layers %d", got.Model.NumLayers())
	}
	// Semi-infinite layer thickness must survive gob.
	if !math.IsInf(got.Model.Layers[4].Thickness, 1) {
		t.Fatalf("infinite thickness lost: %g", got.Model.Layers[4].Thickness)
	}
	if got.PathGrid == nil || got.PathGrid.N != 50 {
		t.Fatal("grid spec lost")
	}
	if got.Detector.Gate.MaxPath != 900 {
		t.Fatal("gate lost")
	}
	// The received spec must be buildable.
	if _, err := got.Build(); err != nil {
		t.Fatalf("received spec unbuildable: %v", err)
	}
}

func TestTallyRoundTripPreservesEverything(t *testing.T) {
	cfg := &mc.Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 5, RMax: 15},
		AbsGrid:  &mc.GridSpec{N: 8, Edge: 40},
		PathGrid: &mc.GridSpec{N: 8, Edge: 40},
		PathHist: &mc.HistSpec{Min: 0, Max: 500, Bins: 50},
	}
	tally, err := mc.Run(cfg, 3000, 99)
	if err != nil {
		t.Fatal(err)
	}

	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go func() {
		c1.Send(flush(&ResultBatch{Groups: []BatchGroup{{
			JobID: 1, Chunks: []int{3}, Elapsed: 5 * time.Second, TallyData: mc.AppendTally(nil, tally),
		}}}))
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.DecodeTally(m.Request.Batch.Groups[0].TallyData)
	if err != nil {
		t.Fatal(err)
	}
	if got.Launched != tally.Launched ||
		got.AbsorbedWeight != tally.AbsorbedWeight ||
		got.DetectedWeight != tally.DetectedWeight ||
		got.DetectedCount != tally.DetectedCount {
		t.Fatal("scalar fields lost in transit")
	}
	if got.PathStats.Mean() != tally.PathStats.Mean() {
		t.Fatal("path stats lost")
	}
	if got.AbsGrid.Total() != tally.AbsGrid.Total() {
		t.Fatal("absorption grid lost")
	}
	if got.PathHist.Total() != tally.PathHist.Total() {
		t.Fatal("histogram lost")
	}
	for i := range tally.LayerAbsorbed {
		if got.LayerAbsorbed[i] != tally.LayerAbsorbed[i] {
			t.Fatal("layer data lost")
		}
	}
}

// TestResultBatchRoundTrip covers the batched result path: an empty
// batch (no groups — a legal no-op), a one-chunk batch, and a multi-job
// batch whose compact tally payloads must decode bit-exact on the far side.
func TestResultBatchRoundTrip(t *testing.T) {
	tallyA, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	tallyB, err := mc.Run(&mc.Config{
		Model:  tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		Radial: &mc.HistSpec{Min: 0, Max: 30, Bins: 15},
	}, 200, 6)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		batch *ResultBatch
	}{
		{"empty", &ResultBatch{}},
		{"one-chunk", &ResultBatch{Groups: []BatchGroup{
			{JobID: 3, Chunks: []int{0}, Elapsed: time.Second, TallyData: mc.AppendTally(nil, tallyA)},
		}}},
		{"multi-job", &ResultBatch{Groups: []BatchGroup{
			{JobID: 3, Chunks: []int{2, 3, 5}, Elapsed: 2 * time.Second, TallyData: mc.AppendTally(nil, tallyA)},
			{JobID: 9, Chunks: []int{1}, TallyData: mc.AppendTally(nil, tallyB)},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := pipePair()
			defer c1.Close()
			defer c2.Close()
			go c1.Send(flush(tc.batch))
			m, err := c2.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type != MsgTaskRequest || m.Request.Batch == nil {
				t.Fatalf("got %v", m.Type)
			}
			got := m.Request.Batch
			if len(got.Groups) != len(tc.batch.Groups) || got.NumChunks() != tc.batch.NumChunks() {
				t.Fatalf("batch shape lost: %+v", got)
			}
			for i, g := range got.Groups {
				want := tc.batch.Groups[i]
				if g.JobID != want.JobID || g.Elapsed != want.Elapsed {
					t.Fatalf("group %d metadata lost", i)
				}
				for k, ch := range g.Chunks {
					if ch != want.Chunks[k] {
						t.Fatalf("group %d chunk list changed", i)
					}
				}
				dec, err := mc.DecodeTally(g.TallyData)
				if err != nil {
					t.Fatalf("group %d tally: %v", i, err)
				}
				src, err := mc.DecodeTally(want.TallyData)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Launched != src.Launched || dec.AbsorbedWeight != src.AbsorbedWeight {
					t.Fatalf("group %d tally payload corrupted", i)
				}
			}
		})
	}
}

// TestTaskRequestPiggybackRoundTrip checks a flush riding a task request
// and the per-chunk acks riding the assign reply both survive the wire.
func TestTaskRequestPiggybackRoundTrip(t *testing.T) {
	tally, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	go func() {
		c1.Send(&Message{Type: MsgTaskRequest, Request: &TaskRequest{
			KnownJobs: []uint64{4},
			Want:      8,
			Batch: &ResultBatch{Groups: []BatchGroup{
				{JobID: 4, Chunks: []int{7, 8}, TallyData: mc.AppendTally(nil, tally)},
			}},
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	req := m.Request
	if req == nil || req.Batch == nil || req.Want != 8 {
		t.Fatalf("piggybacked request lost data: %+v", req)
	}
	if req.Batch.NumChunks() != 2 {
		t.Fatalf("piggybacked batch covers %d chunks", req.Batch.NumChunks())
	}

	go func() {
		c2.Send(&Message{Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 4, Grants: []ChunkGrant{
				{ChunkID: 10, Stream: 10, Photons: 50}, {ChunkID: 11, Stream: 11, Photons: 50}}},
			BatchAck: &BatchAck{Acks: []ResultAck{
				{JobID: 4, ChunkID: 7},
				{JobID: 4, ChunkID: 8, Duplicate: true},
			}},
		})
	}()
	reply, err := c1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.BatchAck == nil || len(reply.BatchAck.Acks) != 2 {
		t.Fatalf("batch ack lost from reply: %+v", reply)
	}
	if a := reply.BatchAck.Acks[1]; a.JobID != 4 || a.ChunkID != 8 || !a.Duplicate {
		t.Fatalf("per-chunk ack corrupted: %+v", a)
	}
	if reply.Assign == nil || len(reply.Assign.Grants) != 2 || reply.Assign.Grants[1].ChunkID != 11 {
		t.Fatal("assignment lost from piggybacked reply")
	}
}

func TestRecvRejectsUntypedMessage(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go c1.Send(&Message{})
	if _, err := c2.Recv(); err == nil {
		t.Fatal("untyped message accepted")
	}
}

func TestRecvOnClosedConn(t *testing.T) {
	c1, c2 := pipePair()
	c1.Close()
	if _, err := c2.Recv(); err == nil || err == io.EOF && false {
		// any error is fine; just must not hang or succeed
		if err == nil {
			t.Fatal("recv on closed pipe succeeded")
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{MsgHello, MsgWelcome, MsgTaskRequest, MsgTaskAssign,
		reserved5, reserved6, MsgNoWork, MsgError, reserved9, reserved10,
		MsgType(42)}
	for _, ty := range types {
		if ty.String() == "" {
			t.Fatalf("empty string for %d", int(ty))
		}
	}
}

func TestManyMessagesSequential(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			c1.Send(&Message{Type: MsgTaskAssign, Assign: &TaskAssign{
				Grants: []ChunkGrant{{ChunkID: i, Stream: i, Photons: int64(i * 10)}},
			}})
		}
	}()
	for i := 0; i < n; i++ {
		m, err := c2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Assign.Grants[0].ChunkID; got != i {
			t.Fatalf("message %d arrived out of order as %d", i, got)
		}
	}
}

// TestVoxelJobSpecRoundTrip checks a heterogeneous voxel-geometry Spec —
// label grid, media table and ambient indices — survives the wire intact
// and stays buildable on the receiving side.
func TestVoxelJobSpecRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	g, err := voxel.FromModel(tissue.AdultHead(), 24, 24, 40, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := g.AddMedium("tumour", optics.Properties{MuA: 0.3, MuS: 10, G: 0.9, N: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	g.PaintSphere(inc, 0, 0, 14, 5)
	spec := mc.NewVoxelSpec(g,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 2, RMax: 10})

	go func() {
		c1.Send(&Message{Type: MsgTaskAssign, Assign: &TaskAssign{
			JobID: 7, Grants: []ChunkGrant{{ChunkID: 0, Stream: 0, Photons: 100}},
			Job: &Job{ID: 7, Spec: *spec, Seed: 3, Streams: 10},
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got := m.Assign.Job.Spec
	if got.Voxel == nil {
		t.Fatal("voxel grid lost")
	}
	if err := got.Voxel.Validate(); err != nil {
		t.Fatalf("received grid invalid: %v", err)
	}
	if got.Voxel.NumRegions() != g.NumRegions() {
		t.Fatalf("media lost: %d vs %d", got.Voxel.NumRegions(), g.NumRegions())
	}
	for i := range g.Labels {
		if got.Voxel.Labels[i] != g.Labels[i] {
			t.Fatalf("label %d changed", i)
		}
	}
	if got.Voxel.NAbove != g.NAbove || got.Voxel.NBelow != g.NBelow {
		t.Fatal("ambient indices lost")
	}
	cfg, err := got.Build()
	if err != nil {
		t.Fatalf("received voxel spec unbuildable: %v", err)
	}
	if cfg.Geometry == nil || cfg.Geometry.NumRegions() != g.NumRegions() {
		t.Fatal("built config has wrong geometry")
	}
}
