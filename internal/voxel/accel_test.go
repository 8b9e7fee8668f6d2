package voxel

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/optics"
	"repro/internal/rng"
	"repro/internal/vec"
)

// accelTestGrid builds a small heterogeneous grid: three depth bands plus a
// painted sphere, so the radius map sees flat interfaces, a curved one and
// the grid hull.
func accelTestGrid(t *testing.T) *Grid {
	t.Helper()
	g := New("accel", 24, 20, 16, 1, 1, 1, "base",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	mid, err := g.AddMedium("mid", optics.Properties{MuA: 0.05, MuS: 5, G: 0.8, N: 1.35})
	if err != nil {
		t.Fatal(err)
	}
	sph, err := g.AddMedium("sphere", optics.Properties{MuA: 1, MuS: 8, G: 0.9, N: 1.45})
	if err != nil {
		t.Fatal(err)
	}
	g.PaintBox(mid, g.X0, g.Y0, 6, -g.X0, -g.Y0, 11)
	g.PaintSphere(sph, 2, -1, 8, 3)
	return g
}

// TestSafeRadiusInvariant brute-forces the fusion invariant for every
// voxel: the Chebyshev ball of the mapped radius is entirely in-grid and
// same-label, and the radius is maximal (the next larger ball violates).
func TestSafeRadiusInvariant(t *testing.T) {
	g := accelTestGrid(t)
	rad := g.ensureAccel().rad

	ballUniform := func(i, j, k, r int) bool {
		if i-r < 0 || i+r >= g.Nx || j-r < 0 || j+r >= g.Ny || k-r < 0 || k+r >= g.Nz {
			return false
		}
		l := g.Labels[g.Index(i, j, k)]
		for dk := -r; dk <= r; dk++ {
			for dj := -r; dj <= r; dj++ {
				for di := -r; di <= r; di++ {
					if g.Labels[g.Index(i+di, j+dj, k+dk)] != l {
						return false
					}
				}
			}
		}
		return true
	}

	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				r := int(rad[g.Index(i, j, k)])
				if !ballUniform(i, j, k, r) {
					t.Fatalf("voxel (%d,%d,%d): radius %d ball not uniform", i, j, k, r)
				}
				if r < 255 && ballUniform(i, j, k, r+1) {
					t.Errorf("voxel (%d,%d,%d): radius %d not maximal", i, j, k, r)
				}
			}
		}
	}
}

// randomTestGrid builds a small grid of random shape, anisotropic voxel
// size and a few painted boxes and spheres in up to three extra media.
func randomTestGrid(t *testing.T, r *rng.Rand) *Grid {
	t.Helper()
	dim := func() int { return 6 + int(r.Float64()*14) }
	edge := func() float64 { return 0.25 + r.Float64() }
	g := New("random", dim(), dim(), dim(), edge(), edge(), edge(), "base",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	for m := 0; m < 3; m++ {
		lbl, err := g.AddMedium(fmt.Sprintf("m%d", m), optics.Properties{MuA: 0.1, MuS: 5, G: 0.8, N: 1.3 + 0.1*float64(m)})
		if err != nil {
			t.Fatal(err)
		}
		x, y, z := g.X0+r.Float64()*g.Width(), g.Y0+r.Float64()*g.Height(), r.Float64()*g.Depth()
		if m%2 == 0 {
			g.PaintSphere(lbl, x, y, z, 1+3*r.Float64())
		} else {
			g.PaintBox(lbl, x, y, z, x+g.Width()*r.Float64(), y+g.Height()*r.Float64(), z+g.Depth()*r.Float64())
		}
	}
	return g
}

// clearBound brute-forces the largest clear radius ToBoundary may report at
// pos: the distance to the hull or to the nearest voxel whose label differs
// from region, whichever is nearer.
func clearBound(g *Grid, pos vec.V, region int) float64 {
	bound := math.Min(pos.Z, g.Depth()-pos.Z)
	bound = math.Min(bound, math.Min(pos.X-g.X0, g.X0+g.Width()-pos.X))
	bound = math.Min(bound, math.Min(pos.Y-g.Y0, g.Y0+g.Height()-pos.Y))
	gap := func(p, lo, hi float64) float64 { return math.Max(0, math.Max(lo-p, p-hi)) }
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				if int(g.Labels[g.Index(i, j, k)]) == region {
					continue
				}
				dx := gap(pos.X, g.X0+float64(i)*g.Dx, g.X0+float64(i+1)*g.Dx)
				dy := gap(pos.Y, g.Y0+float64(j)*g.Dy, g.Y0+float64(j+1)*g.Dy)
				dz := gap(pos.Z, float64(k)*g.Dz, float64(k+1)*g.Dz)
				bound = math.Min(bound, math.Sqrt(dx*dx+dy*dy+dz*dz))
			}
		}
	}
	return bound
}

// TestFusionMatchesPlainDDA fires random rays through heterogeneous grids
// and compares the fused traversal against the same walk with the radius
// map zeroed (which disables both the fast path and in-walk jumps).
// Boundary hits must agree; no-boundary outcomes must agree on "beyond
// maxDist"; and a reported clear radius must never reach past the nearest
// other medium or the hull. On the fixed grid the (s, hit) answers are also
// pinned, by digest, to what the commit before the clear radius returned
// for the same arguments.
func TestFusionMatchesPlainDDA(t *testing.T) {
	// FNV-1a over every fused (s, hit) of the fixed grid's rays, computed
	// with this loop at the parent of the clear-radius commit.
	const parentDigest = 0x3e2b806b78c818fb
	digest := uint64(14695981039346656037)
	mix := func(vs ...uint64) {
		for _, v := range vs {
			for b := 0; b < 8; b++ {
				digest = (digest ^ (v >> (8 * b) & 0xff)) * 1099511628211
			}
		}
	}

	r, shapes := rng.New(2027), rng.New(2028)
	grids := []*Grid{accelTestGrid(t)}
	for n := 0; n < 6; n++ {
		grids = append(grids, randomTestGrid(t, shapes))
	}
	cleared := 0
	for gi, g := range grids {
		plain := g.Clone()
		plainRad := plain.ensureAccel().rad
		for i := range plainRad {
			plainRad[i] = 0
		}

		for n := 0; n < 2000; n++ {
			pos := vec.V{
				X: g.X0 + r.Float64()*g.Width(),
				Y: g.Y0 + r.Float64()*g.Height(),
				Z: r.Float64() * g.Depth(),
			}
			cosPhi, sinPhi := r.AzimuthUnit()
			cosT := 2*r.Float64() - 1
			sinT := math.Sqrt(1 - cosT*cosT)
			dir := vec.V{X: sinT * cosPhi, Y: sinT * sinPhi, Z: cosT}
			region := g.RegionAt(pos)
			if region < 0 {
				continue
			}
			maxDist := r.Float64() * 12
			if n%2 == 1 {
				maxDist /= 20 // a scattering step: short enough for the fast path
			}
			if gi > 0 && n%4 == 0 {
				// Where the face nudge decides the voxel: start on a face.
				pos.Z = g.Dz * math.Floor(pos.Z/g.Dz)
				region = g.RegionAt(pos)
			}

			sf, hf, cf := g.ToBoundary(pos, dir, region, maxDist)
			sp, hp, cp := plain.ToBoundary(pos, dir, region, maxDist)
			if gi == 0 {
				mix(math.Float64bits(sf), math.Float64bits(hf.Normal.X), math.Float64bits(hf.Normal.Y),
					math.Float64bits(hf.Normal.Z), uint64(hf.Next), math.Float64bits(hf.N2), uint64(hf.Exit))
			}

			if cp != 0 {
				t.Fatalf("grid %d ray %d: clear radius %g without a radius map", gi, n, cp)
			}
			if cf != 0 {
				cleared++
				if bound := clearBound(g, pos, region); cf < 0 || cf > bound {
					t.Fatalf("grid %d ray %d: clear radius %g, nearest change of medium at %g", gi, n, cf, bound)
				}
			}

			fusedBeyond, plainBeyond := sf > maxDist && hf == (geom.Hit{}), sp > maxDist && hp == (geom.Hit{})
			if fusedBeyond != plainBeyond {
				t.Fatalf("grid %d ray %d: fused beyond=%v plain beyond=%v (s %g vs %g)", gi, n, fusedBeyond, plainBeyond, sf, sp)
			}
			if cf != 0 && !fusedBeyond {
				t.Fatalf("grid %d ray %d: clear radius %g reported with a boundary at %g", gi, n, cf, sf)
			}
			if plainBeyond {
				continue
			}
			if math.Abs(sf-sp) > 1e-9 {
				t.Fatalf("grid %d ray %d: boundary distance %g vs %g", gi, n, sf, sp)
			}
			if hf != hp {
				t.Fatalf("grid %d ray %d: hits differ: %+v vs %+v", gi, n, hf, hp)
			}
		}
	}
	if cleared < 500 {
		t.Fatalf("only %d rays reported a clear radius; the bound was barely exercised", cleared)
	}
	if digest != parentDigest {
		t.Fatalf("fixed-grid (s, hit) digest %#x, the parent's was %#x", digest, uint64(parentDigest))
	}
}

// TestConcurrentLazyAccelBuild pins the lazy build: goroutines tracing a
// fresh shared grid race into it, one builds, the rest wait for that build,
// and all come back with consistent results (run under -race in CI).
func TestConcurrentLazyAccelBuild(t *testing.T) {
	g := accelTestGrid(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pos := vec.V{X: float64(w) - 4, Z: 3}
			s, _, _ := g.ToBoundary(pos, vec.V{Z: 1}, g.RegionAt(pos), math.Inf(1))
			if s <= 0 {
				errs[w] = fmt.Errorf("worker %d: non-positive boundary distance %g", w, s)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if g.accBuilds != 1 {
		t.Fatalf("%d accelerator builds for one grid, want 1", g.accBuilds)
	}
}

// TestPaintInvalidatesAccel guards the staleness trap: painting after a
// trace must rebuild the radius map, not fuse through the new inclusion.
func TestPaintInvalidatesAccel(t *testing.T) {
	g := New("repaint", 16, 16, 16, 1, 1, 1, "base",
		optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.acc.Load() != nil {
		t.Fatal("Validate built the accelerator; it must stay structural")
	}
	g.PrepareTrace()
	if g.acc.Load() == nil {
		t.Fatal("PrepareTrace did not build the accelerator")
	}
	lbl, err := g.AddMedium("inc", optics.Properties{MuA: 1, MuS: 5, G: 0.8, N: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if painted := g.PaintSphere(lbl, 0, 0, 8, 3); painted == 0 {
		t.Fatal("nothing painted")
	}
	if g.acc.Load() != nil {
		t.Fatal("Paint left a stale accelerator in place")
	}
	// A ray straight down the sphere's axis must now report the inclusion.
	s, hit, _ := g.ToBoundary(vec.V{Z: 0.5}, vec.V{Z: 1}, 0, math.Inf(1))
	if hit.Next != lbl {
		t.Fatalf("post-paint trace missed the inclusion: s=%g hit=%+v", s, hit)
	}
}
