package mc_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// The golden-tally regression harness: small, fully deterministic
// simulations (fixed seed, fixed spec, fixed worker count) whose complete
// tallies are committed under testdata/. Any bit-level drift — an RNG
// change, a reordered draw, a refactored accumulation — fails the test, so
// hot-path rewrites are landable only when the physics provably did not
// move (or the fixtures are regenerated deliberately).
//
// Regenerate after an intentional change with:
//
//	go test ./internal/mc -run TestGoldenTallies -update
//
// and review the fixture diff like any other code change. Fixtures are
// pinned to one platform's libm (math.Log/Exp may differ across
// architectures in the last ulp); CI and the fixtures must agree.
var updateGolden = flag.Bool("update", false, "rewrite golden tally fixtures")

// goldenCases enumerates the committed scenarios. They are chosen to cover
// every hot-path branch: the devirtualised layered tracer in both boundary
// modes, the parallel merge order, the voxel DDA (fused and boundary-rich),
// and the optional scoring structures (grids, histograms, gate).
func goldenCases(t *testing.T) []struct {
	name string
	run  func() (*mc.Tally, error)
} {
	t.Helper()
	head := tissue.AdultHead()

	voxSlab := func() *voxel.Grid {
		g, err := voxel.FromModel(tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
			40, 40, 10, 1, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// bulk-head's geometry: the head with its white matter cut at 44 mm on
	// 120×120×80 voxels of 0.5 mm, every layer boundary on a voxel plane.
	voxHead := func() *voxel.Grid {
		m := tissue.AdultHead()
		m.Layers[len(m.Layers)-1].Thickness = 44
		g, err := voxel.FromModel(m, 120, 120, 80, 0.5, 0.5, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	return []struct {
		name string
		run  func() (*mc.Tally, error)
	}{
		{"layered_head_prob", func() (*mc.Tally, error) {
			return mc.Run(&mc.Config{
				Model:    head,
				Detector: detector.Annulus{RMin: 10, RMax: 30},
				Gate:     detector.Gate{MinPath: 20, MaxPath: 600},
				PathHist: &mc.HistSpec{Min: 0, Max: 600, Bins: 60},
				Radial:   &mc.HistSpec{Min: 0, Max: 60, Bins: 30},
			}, 2500, 7)
		}},
		{"layered_head_det", func() (*mc.Tally, error) {
			return mc.Run(&mc.Config{
				Model:    head,
				Boundary: mc.BoundaryDeterministic,
				Detector: detector.Annulus{RMin: 10, RMax: 30},
			}, 1500, 11)
		}},
		{"layered_parallel3", func() (*mc.Tally, error) {
			return mc.RunParallel(&mc.Config{
				Model:    head,
				Detector: detector.Annulus{RMin: 10, RMax: 30},
			}, 3000, 5, 3)
		}},
		{"layered_moments", func() (*mc.Tally, error) {
			// The precision path: chunk moments recorded per stream and
			// merged across three parallel streams. Pins the moment
			// accumulators' values and their JSON/codec encodings.
			return mc.RunParallel(&mc.Config{
				Model:        head,
				Detector:     detector.Annulus{RMin: 10, RMax: 30},
				TrackMoments: true,
			}, 3000, 5, 3)
		}},
		{"layered_pathgrid", func() (*mc.Tally, error) {
			return mc.Run(&mc.Config{
				Model:    tissue.HomogeneousWhiteMatter(),
				Detector: detector.Disk{CenterX: 3, Radius: 1},
				PathGrid: &mc.GridSpec{N: 8, Edge: 12},
			}, 1200, 3)
		}},
		{"voxel_slab", func() (*mc.Tally, error) {
			return mc.Run(&mc.Config{
				Geometry: voxSlab(),
				Detector: detector.Annulus{RMin: 1, RMax: 4},
				AbsGrid:  &mc.GridSpec{N: 8, Edge: 20},
			}, 1500, 13)
		}},
		{"voxel_inclusion", func() (*mc.Tally, error) {
			g := voxSlab()
			inc, err := g.AddMedium("absorber", optics.Properties{MuA: 2, MuS: 19, G: 0.9, N: 1.5})
			if err != nil {
				return nil, err
			}
			if painted := g.PaintSphere(inc, 0, 0, 2.5, 1.5); painted == 0 {
				return nil, fmt.Errorf("sphere painted nothing")
			}
			return mc.Run(&mc.Config{
				Geometry: g,
				Detector: detector.Annulus{RMin: 1, RMax: 4},
			}, 1200, 17)
		}},
		// The two voxel_head fixtures were generated at the commit before
		// the transport loop gained its clear-radius cache and are the
		// across-the-commit proof that the cache moved no bit.
		{"voxel_head_prob", func() (*mc.Tally, error) {
			return mc.Run(&mc.Config{
				Geometry: voxHead(),
				Detector: detector.Annulus{RMin: 10, RMax: 30},
				PathHist: &mc.HistSpec{Min: 0, Max: 600, Bins: 60},
				Radial:   &mc.HistSpec{Min: 0, Max: 60, Bins: 30},
			}, 1500, 19)
		}},
		{"voxel_head_det", func() (*mc.Tally, error) {
			return mc.Run(&mc.Config{
				Geometry: voxHead(),
				Boundary: mc.BoundaryDeterministic,
				Detector: detector.Annulus{RMin: 10, RMax: 30},
				PathHist: &mc.HistSpec{Min: 0, Max: 600, Bins: 60},
				Radial:   &mc.HistSpec{Min: 0, Max: 60, Bins: 30},
			}, 1000, 29)
		}},
	}
}

// TestGoldenTallies runs every golden scenario and compares the complete
// tally byte-for-byte against its committed fixture.
func TestGoldenTallies(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tally, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(tally, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, len(got))
				return
			}

			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture %s (run with -update to create): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("tally drifted from %s.\n"+
					"The physics of the kernel changed at the bit level. If this is an\n"+
					"intentional sampling/ordering change, regenerate fixtures with\n"+
					"`go test ./internal/mc -run TestGoldenTallies -update` and commit the\n"+
					"diff; otherwise this is a regression.\nfirst difference near byte %d",
					path, firstDiff(got, want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenRoundTrip guards the harness itself: a tally must survive the
// JSON round trip bit-exactly (Go's float64 marshalling is shortest
// round-trip), otherwise byte comparison would be meaningless.
func TestGoldenRoundTrip(t *testing.T) {
	tally, err := mc.Run(&mc.Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 10, RMax: 30},
		Radial:   &mc.HistSpec{Min: 0, Max: 60, Bins: 30},
	}, 500, 23)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(tally)
	if err != nil {
		t.Fatal(err)
	}
	var back mc.Tally
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("tally JSON is not round-trip stable; golden byte comparison is unsound")
	}
}
