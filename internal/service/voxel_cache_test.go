package service

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/source"
	"repro/internal/voxel"
)

// voxelSpec builds a small heterogeneous voxel job: a 5 mm slab grid with
// an absorbing sphere, cheap enough to drain in-process but exercising the
// fused DDA path end to end over the wire protocol.
func voxelSpec(t testing.TB) *mc.Spec {
	t.Helper()
	g := voxel.New("cache-slab", 30, 30, 10, 1, 1, 0.5, "phantom",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	inc, err := g.AddMedium("absorber", optics.Properties{MuA: 1.5, MuS: 8, G: 0.9, N: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if painted := g.PaintSphere(inc, 0, 0, 2.5, 1.5); painted == 0 {
		t.Fatal("sphere painted nothing")
	}
	return mc.NewVoxelSpec(g,
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
}

// TestVoxelCacheHitMatchesRecompute extends the stream-merge reproducibility
// contract to the service layer over a voxel geometry: a job computed by a
// worker fleet must equal the local stream-by-stream reduction, a duplicate
// submission must be answered with the job that ran it, and an independent
// registry recomputing the same job from scratch must reproduce it — a
// repeat's answer is indistinguishable from recomputation. Run under -race
// in CI, this also guards the accelerator build for data races.
func TestVoxelCacheHitMatchesRecompute(t *testing.T) {
	spec := voxelSpec(t)
	const total, chunk, seed = 2000, 250, 37

	reg := New(Options{})
	startWorkers(t, reg, 3)
	out, err := reg.Submit(JobSpec{Spec: spec, TotalPhotons: total, ChunkPhotons: chunk, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet reduction equals the local stream-by-stream ground truth
	// (merge order may differ, so compare to floating-point tolerance).
	want := localTally(t, voxelSpec(t), total, chunk, seed)
	if res.Tally.Launched != want.Launched || res.Tally.DetectedCount != want.DetectedCount {
		t.Fatalf("counts differ: launched %d vs %d, detected %d vs %d",
			res.Tally.Launched, want.Launched, res.Tally.DetectedCount, want.DetectedCount)
	}
	for _, c := range []struct {
		name string
		a, b float64
	}{
		{"absorbed", res.Tally.AbsorbedWeight, want.AbsorbedWeight},
		{"diffuse", res.Tally.DiffuseWeight, want.DiffuseWeight},
		{"detected", res.Tally.DetectedWeight, want.DetectedWeight},
		{"lateral", res.Tally.LateralWeight, want.LateralWeight},
		{"transmit", res.Tally.TransmitWeight, want.TransmitWeight},
	} {
		if math.Abs(c.a-c.b) > 1e-9 {
			t.Errorf("%s weight: fleet %g vs local %g", c.name, c.a, c.b)
		}
	}

	// Duplicate submission: answered with the job that ran it.
	dup, err := reg.Submit(JobSpec{Spec: voxelSpec(t), TotalPhotons: total, ChunkPhotons: chunk, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached || dup.Job != out.Job {
		t.Fatalf("identical voxel submission: %+v, want the job that ran it", dup)
	}
	dupRes, err := dup.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dupRes.Tally, res.Tally) {
		t.Fatal("the repeat's tally differs from the original result")
	}

	// A fresh registry recomputing from scratch must reproduce the result:
	// answering a repeat is a pure shortcut, never a divergence.
	reg2 := New(Options{})
	startWorkers(t, reg2, 2)
	out2, err := reg2.Submit(JobSpec{Spec: voxelSpec(t), TotalPhotons: total, ChunkPhotons: chunk, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if out2.Cached {
		t.Fatal("a fresh registry reported a cache hit")
	}
	res2, err := out2.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res2.Tally.AbsorbedWeight-res.Tally.AbsorbedWeight) > 1e-9 ||
		math.Abs(res2.Tally.DetectedWeight-res.Tally.DetectedWeight) > 1e-9 ||
		res2.Tally.DetectedCount != res.Tally.DetectedCount {
		t.Fatal("recomputed voxel job differs from the first")
	}
	if bal := res2.Tally.EnergyBalance(); math.Abs(bal) > 1e-6*res2.Tally.N() {
		t.Fatalf("energy balance broken through the service layer: %g", bal)
	}
}

// TestRegistrySharesEqualGrids: every job keeps its spec, so jobs over one
// head model must keep one copy of it between them. A submission whose
// grid Equals a registered job's — fresh, or restored by journal replay,
// which decodes a copy per accept record —
// holds that job's grid; one a single label away holds its own; and the
// caller's spec is never the thing rewired.
func TestRegistrySharesEqualGrids(t *testing.T) {
	gridOf := func(j *Job) *voxel.Grid { return j.spec.Spec.Voxel }
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 0, Options{})
	startWorkers(t, regA, 1)
	submit := func(spec *mc.Spec, seed uint64) *SubmitOutcome {
		t.Helper()
		own := spec.Voxel
		out, err := regA.Submit(JobSpec{Spec: spec, TotalPhotons: 500, ChunkPhotons: 250, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if spec.Voxel != own {
			t.Fatal("Submit rewired the caller's spec")
		}
		return out
	}
	moments := func() *mc.Spec { s := voxelSpec(t); s.TrackMoments = true; return s }
	first := submit(moments(), 1)
	held := gridOf(first.Job)
	if second := submit(voxelSpec(t), 2); gridOf(second.Job) != held {
		t.Fatal("a fresh job on an Equal grid kept its own copy")
	}
	if _, err := first.Job.Wait(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if again := submit(moments(), 1); !again.Cached || again.Job != first.Job {
		t.Fatalf("resubmission of a finished job: %+v, want the job itself", again)
	}
	other := voxelSpec(t)
	other.Voxel.Labels[other.Voxel.Index(3, 3, 3)] ^= 1
	third := submit(other, 3)
	if gridOf(third.Job) != other.Voxel {
		t.Fatal("a grid one label away was folded into another")
	}
	for _, out := range []*SubmitOutcome{first, third} {
		if _, err := out.Job.Wait(60 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	wlA.Close()

	regB, wlB, restored := replayInto(t, dir, Options{})
	defer wlB.Close()
	if restored < 3 {
		t.Fatalf("replay restored %d jobs, want the three that ran", restored)
	}
	grids := map[*voxel.Grid]int{}
	for _, st := range regB.List() {
		grids[gridOf(regB.Get(st.ID))]++
	}
	if len(grids) != 2 {
		t.Fatalf("%d replayed jobs hold %d distinct grids, want 2: %v", restored, len(grids), grids)
	}
}
