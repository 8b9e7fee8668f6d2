package voxel

import (
	"math"
	"slices"

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
// at 255 to fit a byte per voxel. A worker's first chunk on a grid waits
// for it, so both halves work on whole rows rather than voxel by voxel.
// Hull voxels are always boundary (the outside counts as a different
// medium) and stay 0, so neither half needs an out-of-range neighbour.
func buildSafeRadius(g *Grid) []uint8 {
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	d := make([]uint8, nx*ny*nz)
	if nx < 3 || ny < 3 || nz < 3 {
		return d // all hull
	}
	seedSafeRadius(g.Labels, d, nx, ny, nz)
	// The backward pass is the forward pass over the mirrored grid, which
	// is the flat array reversed.
	chamferForward(d, nx, ny, nz)
	slices.Reverse(d)
	chamferForward(d, nx, ny, nz)
	slices.Reverse(d)
	return d
}

// seedSafeRadius sets d to 255 where a voxel's 3×3×3 neighbourhood is one
// label and leaves it 0 elsewhere. The test is separable and branch-free,
// a difference being an XOR: mixed[idx] is non-zero when the 3×3 block
// around idx in its own plane is not uniform — the OR of the row-triple
// differences above, at and below it and of the differences between their
// centres — and a neighbourhood is uniform when the three blocks stacked
// through idx are and their centres agree.
func seedSafeRadius(labels, d []uint8, nx, ny, nz int) {
	plane := nx * ny
	row := make([]uint8, plane)     // row-triple differences of plane k
	mixed := make([]uint8, 3*plane) // block differences of planes k-2, k-1, k (mod 3)
	for k := 0; k < nz; k++ {
		l := labels[k*plane : (k+1)*plane]
		for idx := 1; idx < plane-1; idx++ { // a row's end entries are never read
			row[idx] = (l[idx-1] ^ l[idx]) | (l[idx+1] ^ l[idx])
		}
		m := mixed[(k%3)*plane : (k%3+1)*plane]
		for idx := nx; idx < plane-nx; idx++ {
			m[idx] = row[idx-nx] | row[idx] | row[idx+nx] | (l[idx-nx] ^ l[idx]) | (l[idx+nx] ^ l[idx])
		}
		if k < 2 {
			continue
		}
		// Planes k-2, k-1 and k are in hand: seed plane c = k-1.
		c := k - 1
		below, at := labels[(c-1)*plane:c*plane], labels[c*plane:k*plane]
		mb, mc := mixed[((c-1)%3)*plane:][:plane], mixed[(c%3)*plane:][:plane]
		dc := d[c*plane : k*plane]
		for j := 1; j < ny-1; j++ {
			for idx := j*nx + 1; idx < (j+1)*nx-1; idx++ {
				if mb[idx]|mc[idx]|m[idx]|(below[idx]^at[idx])|(l[idx]^at[idx]) == 0 {
					dc[idx] = 255
				}
			}
		}
	}
}

// chamferForward relaxes every interior voxel against the 13 neighbours
// that precede it in (k, j, i) scan order, adding 1 per step. Nine of them
// are the three rows of the previous plane and three the previous row of
// this plane, each read as a triple around i; a finished row's 3-window
// minimum is therefore computed once, when the row completes, and shared by
// the four rows that read it. Only the thirteenth, the neighbour along the
// row, chains one voxel to the next.
func chamferForward(d []uint8, nx, ny, nz int) {
	plane := nx * ny
	// The window minima of the rows of plane k and of plane k-1,
	// alternating. Hull rows and plane 0 are all 0 and are never written.
	win := [2][]uint8{make([]uint8, plane), make([]uint8, plane)}
	for k := 1; k < nz-1; k++ {
		prev, cur := win[(k-1)&1], win[k&1]
		for j := 1; j < ny-1; j++ {
			o := j * nx
			r := d[k*plane+o:][:nx]
			p0, p1, p2, pr := prev[o-nx:][:nx], prev[o:][:nx], prev[o+nx:][:nx], cur[o-nx:][:nx]
			for i := 1; i < nx-1; i++ {
				if c := min(p0[i], p1[i], p2[i], pr[i]); c < r[i] {
					r[i] = c + 1
				}
			}
			for i := 1; i < nx-1; i++ {
				if r[i-1] < r[i] {
					r[i] = r[i-1] + 1
				}
			}
			w := cur[o:][:nx]
			for i := 1; i < nx-1; i++ {
				w[i] = min(r[i-1], r[i], r[i+1])
			}
		}
	}
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
