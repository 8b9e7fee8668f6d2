package service

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// The benchmark's three body kinds (bench/workload.Requests): the tiny slab,
// the layered head with its white matter cut at 44 mm, and the same head on
// a 120×120×80 grid of 0.5 mm voxels — five 230-photon chunks each, seed 1.
// bench/ is a module of its own, so the specs are rebuilt here.
var benchHeadDet = detector.Spec{Kind: detector.KindAnnulus, RMin: 10, RMax: 30}

func benchHeadModel() *tissue.Model {
	m := tissue.AdultHead()
	m.Layers[len(m.Layers)-1].Thickness = 44
	return m
}

func benchSlabJob() JobSpec {
	return JobSpec{Spec: slabSpec(5), TotalPhotons: 16, ChunkPhotons: 1, Seed: 1}
}

func benchHeadJob() JobSpec {
	return JobSpec{Spec: mc.NewSpec(benchHeadModel(), source.Spec{Kind: source.KindPencil}, benchHeadDet),
		TotalPhotons: 1150, ChunkPhotons: 230, Seed: 1}
}

func benchVoxelHeadJob(tb testing.TB) JobSpec {
	tb.Helper()
	g, err := voxel.FromModel(benchHeadModel(), 120, 120, 80, 0.5, 0.5, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return JobSpec{Spec: mc.NewVoxelSpec(g, source.Spec{Kind: source.KindPencil}, benchHeadDet),
		TotalPhotons: 1150, ChunkPhotons: 230, Seed: 1}
}

// TestPinnedKeys holds four submissions to the key and physics key they had
// at 6ae6d92, recorded before internal/canon learned to emit byte runs and
// keysOf to walk the spec once. The file has no -update flag: a key that
// moves strands every journaled job ID and every cached result, so a
// mismatch is a bug in the change, never a stale golden.
func TestPinnedKeys(t *testing.T) {
	jobs := map[string]JobSpec{
		"tiny-slab": benchSlabJob(),
		// tissue.AdultHead as published: semi-infinite white matter.
		"inf-head": {Spec: mc.NewSpec(tissue.AdultHead(), source.Spec{Kind: source.KindPencil}, benchHeadDet),
			TotalPhotons: 400, ChunkPhotons: 100, Seed: 3},
		"voxel-head": benchVoxelHeadJob(t),
		// Fan and Target both trail the fixed-count tuple in the hash input.
		"precision-target": {Spec: slabSpec(5), ChunkPhotons: 100, Seed: 9, Fan: 4,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05}},
	}
	raw, err := os.ReadFile("testdata/keys_pinned.txt")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var name, wantKey, wantPkey string
		if _, err := fmt.Sscan(line, &name, &wantKey, &wantPkey); err != nil {
			t.Fatalf("testdata line %q: %v", line, err)
		}
		spec, ok := jobs[name]
		if !ok {
			t.Fatalf("testdata names %q, which the test does not build", name)
		}
		seen++
		key, pkey, err := RoutingKeys(&spec, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key.String() != wantKey || pkey.String() != wantPkey {
			t.Errorf("%s moved:\n key  %s\n want %s\n pkey %s\n want %s", name, key, wantKey, pkey, wantPkey)
		}
	}
	if seen != len(jobs) {
		t.Fatalf("testdata pins %d submissions, the test builds %d", seen, len(jobs))
	}
}

var keysSink Key

// BenchmarkRoutingKeys times what each HTTP tier pays to key one submission
// — normalize, one canonical walk, two SHA-256 states — on the benchmark's
// three body kinds. `make keys-bench` prints the medians.
func BenchmarkRoutingKeys(b *testing.B) {
	for _, c := range []struct {
		name string
		job  JobSpec
	}{
		{"slab", benchSlabJob()}, {"head", benchHeadJob()}, {"voxel-head", benchVoxelHeadJob(b)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				spec := c.job // RoutingKeys normalizes in place
				key, _, err := RoutingKeys(&spec, 0)
				if err != nil {
					b.Fatal(err)
				}
				keysSink = key
			}
		})
	}
}
