package phomc_test

import (
	"math"
	"net"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	phomc "repro"
)

// TestFacadeAdaptiveRun exercises the precision-target surface of the
// facade: RunAdaptive against a stream-merged RunStream/RunStreamFan
// reduction of the same seed space, with estimates and CIs exposed.
func TestFacadeAdaptiveRun(t *testing.T) {
	model := phomc.HomogeneousSlab("slab", phomc.TransportProperties(1.9, 0.9, 0.018, 1.4), 5)
	cfg := &phomc.Config{Model: model, TrackMoments: true}
	tgt := phomc.PrecisionTarget{
		Observable: phomc.ObsDiffuse,
		RelErr:     0.05,
		MinPhotons: 1200,
		MaxPhotons: 60_000,
	}
	tally, err := phomc.RunAdaptive(cfg, tgt, 9, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, ci := tally.EstimateCI(phomc.ObsDiffuse)
	if !(est > 0) || !(ci > 0) || math.IsInf(ci, 1) {
		t.Fatalf("estimate %g ± %g", est, ci)
	}
	if tally.RelStdErr(phomc.ObsDiffuse) > tgt.RelErr {
		t.Fatalf("RSE %g above target", tally.RelStdErr(phomc.ObsDiffuse))
	}

	// The adaptive loop's streams are the plain RunStream space: rebuild
	// its first two chunks by hand and check they merge cleanly into a
	// shaped tally.
	mcfg := &phomc.Config{Model: model, TrackMoments: true}
	total := phomc.NewTally(mcfg)
	for s := 0; s < 2; s++ {
		part, err := phomc.RunStream(mcfg, 300, 9, s, 0) // open-ended stream space
		if err != nil {
			t.Fatal(err)
		}
		if err := total.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if total.Launched != 600 || total.Moments == nil {
		t.Fatalf("merged %d photons, moments %v", total.Launched, total.Moments)
	}
	fanned, err := phomc.RunStreamFan(mcfg, 300, 9, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fanned.Moments.Diffuse.N != 2 {
		t.Fatalf("fan recorded %d samples", fanned.Moments.Diffuse.N)
	}
}

// TestFacadeVoxelSurface exercises the voxel construction helpers.
func TestFacadeVoxelSurface(t *testing.T) {
	g, err := phomc.VoxelizeModel(phomc.AdultHead(), 20, 20, 16, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := phomc.NewVoxelSpec(g, phomc.SourceSpec{Kind: "pencil"},
		phomc.DetectorSpec{Kind: "all"})
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	g2 := phomc.NewVoxelGrid("block", 16, 16, 12, 1, 1, 1,
		"tissue", phomc.TransportProperties(1.9, 0.9, 0.018, 1.4))
	if _, err := phomc.Run(&phomc.Config{Geometry: g2, Detector: phomc.SurfaceDetector()}, 200, 3); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeServiceSurface drives the registry facade: submission with a
// precision target over the HTTP handler and the three policy
// constructors.
func TestFacadeServiceSurface(t *testing.T) {
	for _, p := range []phomc.SchedulingPolicy{
		phomc.FIFOPolicy(), phomc.PriorityPolicy(), phomc.FairSharePolicy(),
	} {
		if p.Name() == "" {
			t.Fatal("unnamed policy")
		}
	}
	reg := phomc.NewJobRegistry(phomc.RegistryOptions{Policy: phomc.FairSharePolicy()})
	ts := httptest.NewServer(phomc.NewServiceHandler(reg))
	defer ts.Close()

	spec := phomc.NewSpec(
		phomc.HomogeneousSlab("slab", phomc.TransportProperties(1.9, 0.9, 0.018, 1.4), 5),
		phomc.SourceSpec{Kind: "pencil"},
		phomc.DetectorSpec{Kind: "annulus", RMin: 1, RMax: 4},
	)
	out, err := reg.Submit(phomc.ServiceJobSpec{
		Spec:         spec,
		ChunkPhotons: 200,
		Seed:         3,
		Target:       &phomc.PrecisionTarget{RelErr: 0.1, MinPhotons: 800, MaxPhotons: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Job.Status()
	if st.Target == nil || st.Target.Observable != phomc.ObsDiffuse {
		t.Fatalf("status target %+v", st.Target)
	}
	if err := reg.Cancel(out.Job.ID()); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeAnalysisSurface covers the diffusion/ToF/inverse helpers.
func TestFacadeAnalysisSurface(t *testing.T) {
	props := phomc.TransportProperties(1.2, 0.9, 0.005, 1.4)
	if _, err := phomc.NewDiffusionMedium(props, 1.0); err != nil {
		t.Fatal(err)
	}
	gate, err := phomc.TimeGate(0.1, 0.8, 1.4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &phomc.Config{
		Model:    phomc.HomogeneousSlab("slab", props, 30),
		Detector: phomc.DiskDetector(10, 3),
		Gate:     gate,
		PathHist: &phomc.HistSpec{Min: 0, Max: 400, Bins: 80},
		Radial:   &phomc.HistSpec{Min: 0, Max: 30, Bins: 30},
	}
	tally, err := phomc.RunParallel(cfg, 4000, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tpsf := phomc.TPSFFromTally(tally, 1.4); tpsf == nil {
		t.Fatal("no TPSF from a PathHist run")
	}
	m := phomc.MeasurementFromTally(tally, 1, 20)
	if len(m.Rho) == 0 {
		t.Fatal("empty measurement")
	}

	// Experiment presets build and validate.
	if err := phomc.Fig3Spec(3, 1, 10, 12).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := phomc.Fig4Spec(10, 20).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeDistributedSurface covers the DataManager re-exports: a
// journaled manager closed mid-job and a second one resuming it from the
// same directory.
func TestFacadeDistributedSurface(t *testing.T) {
	spec := phomc.NewSpec(
		phomc.HomogeneousSlab("slab", phomc.TransportProperties(1.9, 0.9, 0.018, 1.4), 5),
		phomc.SourceSpec{Kind: "pencil"},
		phomc.DetectorSpec{Kind: "annulus", RMin: 1, RMax: 4},
	)
	opts := phomc.JobOptions{
		Spec: spec, TotalPhotons: 600, ChunkPhotons: 200, Seed: 5,
		JournalDir: filepath.Join(t.TempDir(), "journal"),
	}
	dm, err := phomc.NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}
	dm2, err := phomc.NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go dm2.Serve(l)
	done := make(chan error, 1)
	go func() {
		_, err := phomc.WorkTCP(l.Addr().String(), phomc.WorkerOptions{Name: "w"})
		done <- err
	}()
	res, err := dm2.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 600 {
		t.Fatalf("launched %d", res.Tally.Launched)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
