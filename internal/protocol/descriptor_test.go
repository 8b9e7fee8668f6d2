package protocol_test

import (
	"bytes"
	"math"
	"net"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// sendDescriptor carries job's spec across a pipe the way the dispatcher
// does — as its submission bytes on a TaskAssign — and decodes it the way a
// worker does.
func sendDescriptor(t *testing.T, job service.JobSpec) service.JobSpec {
	t.Helper()
	a, b := net.Pipe()
	c1, c2 := protocol.NewConn(a), protocol.NewConn(b)
	defer c1.Close()
	defer c2.Close()
	sub, err := service.AppendSubmission(nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	go c1.Send(&protocol.Message{Type: protocol.MsgTaskAssign, Assign: &protocol.TaskAssign{
		JobID: 42, Grants: []protocol.ChunkGrant{{ChunkID: 3, Photons: 500}}, Submission: sub,
	}})
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Assign.Submission, sub) {
		t.Fatal("submission bytes changed on the wire")
	}
	got, err := service.DecodeSubmission(m.Assign.Submission)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestJobSpecRoundTrip(t *testing.T) {
	spec := mc.NewSpec(tissue.AdultHead(),
		source.Spec{Kind: source.KindGaussian, Param: 2},
		detector.Spec{Kind: detector.KindDisk, CenterX: 20, Radius: 2.5,
			Gate: detector.Gate{MinPath: 10, MaxPath: 900}})
	spec.Boundary = mc.BoundaryDeterministic
	spec.PathGrid = &mc.GridSpec{N: 50, Edge: 60}

	desc := sendDescriptor(t, service.JobSpec{Spec: spec, TotalPhotons: 50_000, ChunkPhotons: 500, Seed: 7, Fan: 4})
	if desc.NumChunks() != 100 || desc.Seed != 7 || desc.Fan != 4 {
		t.Fatalf("job metadata lost: %d chunks, %+v", desc.NumChunks(), desc)
	}
	got := desc.Spec
	if got.Boundary != mc.BoundaryDeterministic {
		t.Fatal("boundary mode lost")
	}
	if got.Model.NumLayers() != 5 {
		t.Fatalf("model layers %d", got.Model.NumLayers())
	}
	// Semi-infinite layer thickness must survive the descriptor.
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

// TestVoxelJobSpecRoundTrip checks a heterogeneous voxel-geometry Spec —
// label grid, media table and ambient indices — survives the wire intact
// and stays buildable on the receiving side.
func TestVoxelJobSpecRoundTrip(t *testing.T) {
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

	desc := sendDescriptor(t, service.JobSpec{Spec: spec, Seed: 3})
	got := desc.Spec
	if got.Voxel == nil {
		t.Fatal("voxel grid lost")
	}
	if err := got.Voxel.Validate(); err != nil {
		t.Fatalf("received grid invalid: %v", err)
	}
	if got.Voxel.NumRegions() != g.NumRegions() {
		t.Fatalf("media lost: %d vs %d", got.Voxel.NumRegions(), g.NumRegions())
	}
	if !bytes.Equal(got.Voxel.Labels, g.Labels) {
		t.Fatal("labels changed")
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

// TestFrameAdmitsLargestSubmission: a descriptor carries a submission, and
// the HTTP tier admits one of up to service.DefaultMaxBodyBytes, so a frame
// must hold that much and its envelope.
func TestFrameAdmitsLargestSubmission(t *testing.T) {
	if protocol.MaxFrameBytes < service.DefaultMaxBodyBytes+1<<20 {
		t.Fatalf("MaxFrameBytes %d cannot carry a %d-byte submission", protocol.MaxFrameBytes, service.DefaultMaxBodyBytes)
	}
}
