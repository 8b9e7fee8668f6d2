package mc_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// emptyScratchPool runs two collections: the first moves a sync.Pool's
// contents to its victim cache and the second drops them, so the next unit
// starts on fresh buffers.
func emptyScratchPool() {
	runtime.GC()
	runtime.GC()
}

func heapAlloc() uint64 {
	emptyScratchPool()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestHeldRunnersPinNoScratch: a worker holds a Runner per cached job (up to
// 32), so a held Runner must keep nothing of its runs — no tally, no
// sub-packet stack, no visit buffers, which a path grid grows to megabytes.
func TestHeldRunnersPinNoScratch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	before := heapAlloc()
	held := make([]*mc.Runner, 16)
	for i := range held {
		ru, err := mc.NewRunner(&mc.Config{Model: tissue.AdultHead(), PathGrid: &mc.GridSpec{N: 50, Edge: 60}})
		if err != nil {
			t.Fatal(err)
		}
		var chunk []mc.Unit
		for _, r := range rng.NewStreams(uint64(i+1), 4) {
			chunk = append(chunk, mc.Unit{Rand: r, Photons: 100})
		}
		if runs := ru.RunChunks([][]mc.Unit{chunk}, nil); len(runs) != 1 || runs[0].Tally.Launched != 400 {
			t.Fatalf("runner %d: RunChunks returned %+v, want one 400-photon chunk", i, runs)
		}
		held[i] = ru
	}
	after := heapAlloc()
	runtime.KeepAlive(held)
	grown := int64(after) - int64(before)
	t.Logf("16 held runners keep %.2f MB of heap", float64(grown)/(1<<20))
	if grown > 2<<20 {
		t.Fatalf("16 held runners keep %.1f MB of heap, want at most 2 MB", float64(grown)/(1<<20))
	}
}

// TestSharedScratchLeavesBytesUnchanged: kernels of different configs borrow
// their stack and visit buffers from one pool, so a unit run on buffers
// another config's unit left behind must encode byte for byte as the same
// unit run on fresh ones — on one goroutine, and through RunChunks with two
// cores drawing from the pool at once. The configs are chosen for what they
// leave in the buffers: the layered head's path grid grows visit buffers,
// the deterministic-boundary voxel head's split children copy them and
// deepen the stack, and the slab records no visits at all.
func TestSharedScratchLeavesBytesUnchanged(t *testing.T) {
	m := tissue.AdultHead()
	m.Layers[len(m.Layers)-1].Thickness = 20
	g, err := voxel.FromModel(m, 60, 60, 40, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	annulus := detector.Annulus{RMin: 5, RMax: 20}
	var runners []*mc.Runner
	for _, cfg := range []*mc.Config{
		{Model: tissue.AdultHead(), Detector: annulus, PathGrid: &mc.GridSpec{N: 20, Edge: 60}},
		{Geometry: g, Boundary: mc.BoundaryDeterministic, Detector: annulus, PathGrid: &mc.GridSpec{N: 20, Edge: 60}},
		slabCfg(t, false),
	} {
		ru, err := mc.NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, ru)
	}
	const perConfig, photons = 4, 60
	units := make([][]mc.Unit, len(runners)) // units[c][i]: config c's unit i
	want := make([][][]byte, len(runners))
	for c, ru := range runners {
		for _, r := range rng.NewStreams(uint64(31+c), perConfig) {
			units[c] = append(units[c], mc.Unit{Rand: r, Photons: photons})
			emptyScratchPool()
			want[c] = append(want[c], mc.AppendTally(nil, ru.Run(photons, r)))
		}
	}

	for i := range perConfig {
		for c, ru := range runners {
			if got := mc.AppendTally(nil, ru.Run(photons, units[c][i].Rand)); !bytes.Equal(got, want[c][i]) {
				t.Errorf("one goroutine: config %d unit %d differs from its run on fresh buffers", c, i)
			}
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wg sync.WaitGroup
	for c, ru := range runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunks := make([][]mc.Unit, perConfig)
			for i, u := range units[c] {
				chunks[i] = []mc.Unit{u}
			}
			for i, run := range ru.RunChunks(chunks, nil) {
				if !bytes.Equal(mc.AppendTally(nil, run.Tally), want[c][i]) {
					t.Errorf("RunChunks: config %d unit %d differs from its run on fresh buffers", c, i)
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunnerAllocatesPerUnitNotPerPhoton: a unit allocates its kernel and
// its tally, and nothing per photon, so a run of 4n photons allocates as
// often as a run of n — on the bulk-head chunk's geometry, layered and
// voxelised (BenchmarkVoxelTraversal's shapes).
func TestRunnerAllocatesPerUnitNotPerPhoton(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random")
	}
	head := tissue.AdultHead()
	head.Layers[len(head.Layers)-1].Thickness = 44
	g, err := voxel.FromModel(head, 120, 120, 80, 0.5, 0.5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	annulus := detector.Annulus{RMin: 10, RMax: 30}
	for _, tc := range []struct {
		name string
		cfg  *mc.Config
	}{
		{"layered", &mc.Config{Model: head, Detector: annulus}},
		{"voxel", &mc.Config{Geometry: g, Detector: annulus}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ru, err := mc.NewRunner(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			const n = 40
			allocs := func(photons int64) float64 {
				return testing.AllocsPerRun(10, func() { ru.Run(photons, rng.New(7)) })
			}
			if one, four := allocs(n), allocs(4*n); one != four || one == 0 {
				t.Fatalf("a run of %d photons allocates %v times and of %d photons %v times, want the same per-unit count", n, one, 4*n, four)
			}
		})
	}
}
