package mc_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/rng"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/vec"
	"repro/internal/voxel"
)

// askEveryEvent wraps a voxel grid and zeroes the clear radius it reports,
// so the transport loop's cache never holds anything and every event asks
// the grid — the loop as it was before the cache, on the same geometry.
type askEveryEvent struct{ *voxel.Grid }

func (g askEveryEvent) ToBoundary(pos, dir vec.V, r int, maxDist float64) (float64, geom.Hit, float64) {
	s, hit, _ := g.Grid.ToBoundary(pos, dir, r, maxDist)
	return s, hit, 0
}

// TestClearRadiusCacheIsBitExact is the differential proof that the
// clear-radius cache changes no bit of any tally: the same photons through
// the same grid with the cache working and with it starved must encode to
// the same bytes — absorption and detected-path grids included — in both
// boundary modes, on the geometries that stress it: the benchmark's head
// (thin layers, wide ones), anisotropic voxels around a curved inclusion, a
// non-interacting slab (a step of +Inf must never be served from the
// cache), and a source that launches beside the grid. Not skipped under
// -short: `make race` runs it too.
func TestClearRadiusCacheIsBitExact(t *testing.T) {
	head := tissue.AdultHead()
	head.Layers[len(head.Layers)-1].Thickness = 44
	must := func(g *voxel.Grid, err error) *voxel.Grid {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	paint := func(g *voxel.Grid, name string, p optics.Properties, do func(label int) int) *voxel.Grid {
		t.Helper()
		label, err := g.AddMedium(name, p)
		if err != nil {
			t.Fatal(err)
		}
		if do(label) == 0 {
			t.Fatalf("%s painted nothing", name)
		}
		return g
	}

	sphere := must(voxel.FromModel(head, 40, 40, 60, 1, 1, 0.5))
	paint(sphere, "tumour", optics.Properties{MuA: 0.3, MuS: 8, G: 0.9, N: 1.45},
		func(l int) int { return sphere.PaintSphere(l, 2, -1, 9, 4) })
	void := must(voxel.FromModel(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 12), 30, 30, 24, 1, 1, 0.5))
	paint(void, "void", optics.Properties{N: 1.33},
		func(l int) int { return void.PaintBox(l, void.X0, void.Y0, 3, -void.X0, -void.Y0, 5) })

	cases := []struct {
		name    string
		grid    *voxel.Grid
		src     source.Source
		det     detector.Detector
		photons int64
	}{
		{"bench head", must(voxel.FromModel(head, 120, 120, 80, 0.5, 0.5, 0.5)), nil, detector.Annulus{RMin: 10, RMax: 30}, 150},
		{"anisotropic sphere", sphere, nil, detector.Annulus{RMin: 3, RMax: 15}, 150},
		{"non-interacting slab", void, nil, nil, 100},
		{"source wider than the grid", must(voxel.FromModel(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 8), 16, 16, 16, 1, 1, 0.5)),
			source.UniformDisk{Radius: 12}, nil, 250},
	}
	for _, tc := range cases {
		for _, mode := range []mc.BoundaryMode{mc.BoundaryProbabilistic, mc.BoundaryDeterministic} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, mode), func(t *testing.T) {
				runner := func(geo mc.Geometry) *mc.Runner {
					ru, err := mc.NewRunner(&mc.Config{
						Geometry: geo, Source: tc.src, Detector: tc.det, Boundary: mode,
						AbsGrid:  &mc.GridSpec{N: 12, Edge: 40},
						PathGrid: &mc.GridSpec{N: 12, Edge: 40},
					})
					if err != nil {
						t.Fatal(err)
					}
					return ru
				}
				cached, starved := runner(tc.grid), runner(askEveryEvent{tc.grid})
				var served, asked mc.KernelEvents
				for seed := uint64(1); seed <= 6; seed++ {
					unit := [][]mc.Unit{{{Rand: rng.New(seed), Photons: tc.photons}}}
					ra, rb := cached.RunChunks(unit, nil)[0], starved.RunChunks(unit, nil)[0]
					a, b := ra.Tally, rb.Tally
					if !bytes.Equal(mc.AppendTally(nil, a), mc.AppendTally(nil, b)) {
						t.Fatalf("seed %d: the tally differs with the clear-radius cache on and off", seed)
					}
					if a.DetectedCount == 0 || a.LateralWeight+a.TransmitWeight+a.DiffuseWeight == 0 {
						t.Fatalf("seed %d: nothing detected or nothing escaped; the case proves little", seed)
					}
					served.Add(ra.Events)
					asked.Add(rb.Events)
				}

				// The counters tell the same story: identical physics, and
				// only the number of questions differs.
				if served.Scatter != asked.Scatter || served.Crossing != asked.Crossing || served.Roulette != asked.Roulette {
					t.Fatalf("event counts moved: cached %+v, asking every event %+v", served, asked)
				}
				if asked.Query != asked.Scatter+asked.Crossing {
					t.Fatalf("starved loop asked %d times for %d scatterings + %d crossings", asked.Query, asked.Scatter, asked.Crossing)
				}
				if served.Query >= asked.Query {
					t.Fatalf("the cache saved nothing: %d queries against %d", served.Query, asked.Query)
				}
				t.Logf("%d events, %.1f%% served without a query", asked.Query, 100*(1-float64(served.Query)/float64(asked.Query)))
			})
		}
	}
}
