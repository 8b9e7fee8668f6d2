package voxel

import (
	"math"

	"repro/internal/vec"
)

// gridAccel is the traversal accelerator of a Grid: reciprocal voxel sizes
// (so the DDA seeds with multiplications instead of divisions) and the
// same-label safe-radius map that lets ToBoundary fuse runs of homogeneous
// voxels into a single step. It is derived data, rebuilt on demand after
// any mutation, and never serialised.
type gridAccel struct {
	invDx, invDy, invDz float64
	minEdge             float64 // smallest voxel edge, mm
	eps                 float64 // face-disambiguation nudge, mm

	// slack is what ToBoundary holds back from a clear radius it reports.
	// The ball is measured from the voxel that holds pos + dir·eps, so pos
	// itself may sit eps outside it; a later walk starts from its own
	// nudged point and re-nudges after each fused jump (another eps); and
	// the path-length budget the kernel spends and the positions it
	// accumulates round independently, by many orders below eps per step.
	// Four nudges cover the two that are real and leave two for rounding.
	slack float64

	// rad[idx] is the Chebyshev safe radius of voxel idx: every voxel
	// within Chebyshev distance rad (in voxel units) exists and carries the
	// same label, so from any point inside voxel idx the medium provably
	// cannot change within rad·minEdge mm along any ray. Boundary-adjacent
	// and grid-edge voxels have rad 0.
	rad []uint8
}

// ensureAccel returns the grid's accelerator, building it on first use.
// Builds are serialised: kernels racing onto a fresh grid (the sub-streams
// of a fanned chunk) wait for the first one's build and share it. Mutating
// builders (the Paint helpers) invalidate the accelerator; mutation
// concurrent with tracing is, as ever, the caller's bug.
func (g *Grid) ensureAccel() *gridAccel {
	if a := g.acc.Load(); a != nil {
		return a
	}
	g.accMu.Lock()
	defer g.accMu.Unlock()
	if a := g.acc.Load(); a != nil {
		return a
	}
	a := &gridAccel{
		invDx:   1 / g.Dx,
		invDy:   1 / g.Dy,
		invDz:   1 / g.Dz,
		minEdge: g.MinVoxel(),
		eps:     g.nudge(),
		rad:     buildSafeRadius(g),
	}
	a.slack = 4 * a.eps
	g.accBuilds++
	g.acc.Store(a)
	return a
}

// invalidateAccel drops the derived traversal tables; called by every
// mutating builder so a painted grid never traces with a stale radius map.
func (g *Grid) invalidateAccel() { g.acc.Store(nil) }

// buildSafeRadius computes the Chebyshev distance from every voxel to the
// nearest "boundary" voxel — one with a differently labelled 26-neighbour,
// or one on the grid hull. Cells within a distance-d ball of a non-boundary
// voxel are therefore all same-label and in-grid, which is exactly the
// fusion invariant ToBoundary relies on. The transform is the classic
// two-pass chamfer min-plus sweep, exact for the chessboard metric, capped
// at 255 to fit a byte per voxel.
func buildSafeRadius(g *Grid) []uint8 {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	d := make([]uint8, nx*ny*nz)
	const maxRad = 255

	// Seed: boundary voxels 0, interior 255. Grid-hull voxels are always
	// boundary (the outside counts as a different medium), so the chamfer
	// sweeps below never need out-of-range neighbours.
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

	// Forward chamfer pass: relax against the 13 already-visited
	// neighbours in (k, j, i) scan order; backward pass mirrors it. Hull
	// voxels are 0 and interior voxels have full neighbourhoods, so no
	// bounds checks are needed.
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

// reseed recomputes the DDA per-axis face distances after a fused jump to
// parametric distance t along the ray, returning the voxel indices there.
// Distances stay measured from the original pos, so the caller's t keeps
// monotonically increasing across jumps.
func (g *Grid) reseed(a *gridAccel, pos, dir vec.V, t float64,
	invX, invY, invZ float64, tMaxX, tMaxY, tMaxZ *float64) (i, j, k int) {
	tn := t + a.eps
	i = clampIdx(int(math.Floor((pos.X+dir.X*tn-g.X0)*a.invDx)), g.Nx)
	j = clampIdx(int(math.Floor((pos.Y+dir.Y*tn-g.Y0)*a.invDy)), g.Ny)
	k = clampIdx(int(math.Floor((pos.Z+dir.Z*tn)*a.invDz)), g.Nz)
	if dir.X > 0 {
		*tMaxX = (g.X0 + float64(i+1)*g.Dx - pos.X) * invX
	} else if dir.X < 0 {
		*tMaxX = (g.X0 + float64(i)*g.Dx - pos.X) * invX
	}
	if dir.Y > 0 {
		*tMaxY = (g.Y0 + float64(j+1)*g.Dy - pos.Y) * invY
	} else if dir.Y < 0 {
		*tMaxY = (g.Y0 + float64(j)*g.Dy - pos.Y) * invY
	}
	if dir.Z > 0 {
		*tMaxZ = (float64(k+1)*g.Dz - pos.Z) * invZ
	} else if dir.Z < 0 {
		*tMaxZ = (float64(k)*g.Dz - pos.Z) * invZ
	}
	// A nudge resolved fractionally past a face may leave a tMax slightly
	// behind t; clamp so the walk stays monotone (the jump target is
	// provably boundary-free up to t).
	if *tMaxX < t {
		*tMaxX = t
	}
	if *tMaxY < t {
		*tMaxY = t
	}
	if *tMaxZ < t {
		*tMaxZ = t
	}
	return i, j, k
}
