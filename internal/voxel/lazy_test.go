package voxel_test

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// TestAccelBuiltOnlyWhereTracingBegins pins who pays for the safe-radius
// map: a registry that validates, keys and queues a voxel job never builds
// it, and the kernels of a fanned chunk racing onto the fresh grid build it
// once between them.
func TestAccelBuiltOnlyWhereTracingBegins(t *testing.T) {
	g, err := voxel.FromModel(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5), 24, 24, 10, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	spec := mc.NewVoxelSpec(g, source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})

	reg := service.New(service.Options{})
	if _, err := reg.Submit(service.JobSpec{Spec: spec, TotalPhotons: 400, ChunkPhotons: 100, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if n := g.AccelBuilds(); n != 0 {
		t.Fatalf("submitting a voxel job built its traversal accelerator %d time(s); the shard never traces", n)
	}

	cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.RunStreamFan(cfg, 400, 3, 0, 4, 4); err != nil {
		t.Fatal(err)
	}
	if n := g.AccelBuilds(); n != 1 {
		t.Fatalf("a fan-4 chunk on a fresh grid built the accelerator %d times, want 1", n)
	}
}
