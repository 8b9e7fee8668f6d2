package voxel

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/optics"
	"repro/internal/tissue"
)

// buildSafeRadiusRef is buildSafeRadius as it was written first — 27
// neighbour tests per voxel to seed, then the two chamfer passes through a
// 13-entry offset table — kept as the reference the row-wise implementation
// must match byte for byte.
func buildSafeRadiusRef(g *Grid) []uint8 {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	d := make([]uint8, nx*ny*nz)
	const maxRad = 255

	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			base := (k*ny + j) * nx
			for i := 0; i < nx; i++ {
				idx := base + i
				if i == 0 || i == nx-1 || j == 0 || j == ny-1 || k == 0 || k == nz-1 {
					continue // d[idx] already 0
				}
				l := g.Labels[idx]
				uniform := true
			neighbours:
				for dk := -ny * nx; dk <= ny*nx; dk += ny * nx {
					for dj := -nx; dj <= nx; dj += nx {
						row := idx + dk + dj
						if g.Labels[row-1] != l || g.Labels[row] != l || g.Labels[row+1] != l {
							uniform = false
							break neighbours
						}
					}
				}
				if uniform {
					d[idx] = maxRad
				}
			}
		}
	}

	relax := func(idx int, offs []int) {
		best := int(d[idx])
		if best == 0 {
			return
		}
		for _, o := range offs {
			if v := int(d[idx+o]) + 1; v < best {
				best = v
			}
		}
		d[idx] = uint8(best)
	}
	plane, row := ny*nx, nx
	fwd := []int{
		-plane - row - 1, -plane - row, -plane - row + 1,
		-plane - 1, -plane, -plane + 1,
		-plane + row - 1, -plane + row, -plane + row + 1,
		-row - 1, -row, -row + 1,
		-1,
	}
	bwd := make([]int, len(fwd))
	for i, o := range fwd {
		bwd[i] = -o
	}
	for k := 1; k < nz-1; k++ {
		for j := 1; j < ny-1; j++ {
			base := (k*ny + j) * nx
			for i := 1; i < nx-1; i++ {
				relax(base+i, fwd)
			}
		}
	}
	for k := nz - 2; k >= 1; k-- {
		for j := ny - 2; j >= 1; j-- {
			base := (k*ny + j) * nx
			for i := nx - 2; i >= 1; i-- {
				relax(base+i, bwd)
			}
		}
	}
	return d
}

// benchHead is the benchmark's voxelised head: 120×120×80 voxels of 0.5 mm.
func benchHead(tb testing.TB) *Grid {
	g, err := FromModel(tissue.AdultHead(), 120, 120, 80, 0.5, 0.5, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestSafeRadiusMatchesReference holds the row-wise transform to the
// reference on the shapes that stress it differently: random dimensions
// from no interior at all (below 3) up to 24, sparse random blobs, layered
// stacks, salt, a one-label grid — and, at full size, the head.
func TestSafeRadiusMatchesReference(t *testing.T) {
	check := func(name string, g *Grid) {
		t.Helper()
		got, want := buildSafeRadius(g), buildSafeRadiusRef(g)
		if !bytes.Equal(got, want) {
			for idx := range want {
				if got[idx] != want[idx] {
					t.Fatalf("%s (%dx%dx%d): radius of voxel %d is %d, reference %d",
						name, g.Nx, g.Ny, g.Nz, idx, got[idx], want[idx])
				}
			}
		}
	}
	props := optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4}
	rng := rand.New(rand.NewSource(21))
	for n := 0; n < 300; n++ {
		dim := func() int { return 1 + rng.Intn(24) }
		g := New("random", dim(), dim(), dim(), 1, 1, 1, "base", props)
		switch n % 4 {
		case 0: // blobs: a few boxes of other labels
			for b := rng.Intn(4); b >= 0; b-- {
				i0, j0, k0 := rng.Intn(g.Nx), rng.Intn(g.Ny), rng.Intn(g.Nz)
				label := uint8(1 + rng.Intn(3))
				for k := k0; k < min(g.Nz, k0+1+rng.Intn(6)); k++ {
					for j := j0; j < min(g.Ny, j0+1+rng.Intn(6)); j++ {
						for i := i0; i < min(g.Nx, i0+1+rng.Intn(6)); i++ {
							g.Labels[g.Index(i, j, k)] = label
						}
					}
				}
			}
		case 1: // layered stack along a random axis
			axis, thick := rng.Intn(3), 1+rng.Intn(5)
			for k := 0; k < g.Nz; k++ {
				for j := 0; j < g.Ny; j++ {
					for i := 0; i < g.Nx; i++ {
						g.Labels[g.Index(i, j, k)] = uint8([3]int{i, j, k}[axis] / thick)
					}
				}
			}
		case 2: // salt: isolated odd voxels
			for s := rng.Intn(1 + len(g.Labels)/40); s >= 0; s-- {
				g.Labels[rng.Intn(len(g.Labels))] = 1
			}
		}
		check("random", g)
	}
	if testing.Short() {
		return
	}
	check("head", benchHead(t))
}

// TestSafeRadiusSaturates: the radius reaches the byte's cap only 255
// voxels from every face, so the smallest grid that shows it is 511 on a
// side (133 MB of labels; skipped under -short). A one-label box needs no
// reference: the radius is the distance to the nearest face, capped.
func TestSafeRadiusSaturates(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 2×133 MB")
	}
	const n = 511
	g := &Grid{Nx: n, Ny: n, Nz: n, Labels: make([]uint8, n*n*n)}
	rad := buildSafeRadius(g)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			face := min(k, n-1-k, j, n-1-j)
			row := rad[g.Index(0, j, k):g.Index(n, j, k)]
			for i, got := range row {
				if want := min(face, i, n-1-i, 255); int(got) != want {
					t.Fatalf("voxel (%d,%d,%d): radius %d, want %d", i, j, k, got, want)
				}
			}
		}
	}
	if c := rad[g.Index(n/2, n/2, n/2)]; c != 255 {
		t.Fatalf("centre radius %d, want the cap", c)
	}
}

// BenchmarkSafeRadius times the accelerator's safe-radius map on the
// benchmark's head — what a worker's first voxel chunk waits for — next to
// the reference it replaced.
func BenchmarkSafeRadius(b *testing.B) {
	g := benchHead(b)
	for name, build := range map[string]func(*Grid) []uint8{"head": buildSafeRadius, "head-reference": buildSafeRadiusRef} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if rad := build(g); len(rad) != len(g.Labels) {
					b.Fatal("short map")
				}
			}
		})
	}
}
