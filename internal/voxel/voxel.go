// Package voxel implements a heterogeneous voxelized medium for the Monte
// Carlo kernel: a dense 3-D label grid mapping each voxel to a shared table
// of optical properties, with Amanatides–Woo DDA ray traversal to the next
// *medium change* (faces between same-label voxels are skipped entirely, so
// a voxelized homogeneous region is traversed in a single step and no
// spurious Fresnel events occur). It generalises the layered slab model the
// way MCX generalises MCML: tumours, curved boundaries and arbitrary
// inclusions become expressible while the kernel's hop–drop–spin loop stays
// untouched behind the geom.Geometry interface.
//
// The grid is plain data (gob-serialisable), so voxel jobs travel over the
// wire protocol and fan out across the distributed system exactly like
// layered ones.
package voxel

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/optics"
	"repro/internal/vec"
)

// MaxMedia is the number of distinct media a grid can reference (labels are
// bytes to keep million-voxel grids cheap to store and ship).
const MaxMedia = 256

// Grid is a voxelized heterogeneous medium over the box
// [X0, X0+Nx·Dx) × [Y0, Y0+Ny·Dy) × [0, Nz·Dz), z pointing into the
// tissue. Labels[(k·Ny+j)·Nx+i] indexes Media, the table of distinct
// optical properties. The struct is plain data and implements
// geom.Geometry; all methods are read-only after construction, so one grid
// may be shared by any number of tracing goroutines.
type Grid struct {
	Name       string
	Nx, Ny, Nz int
	Dx, Dy, Dz float64 // voxel edge lengths, mm
	X0, Y0     float64 // world coordinates of the grid corner (z starts at 0)

	// NAbove is the ambient refractive index above the z = 0 surface;
	// NBelow terminates the bottom face (set it to the deepest medium's
	// index to model a truncated semi-infinite stack without a spurious
	// Fresnel interface). The side walls are always index-matched to the
	// local medium: lateral escapes leave without reflection and are
	// scored as Tally.LateralWeight.
	NAbove, NBelow float64

	Labels     []uint8
	Media      []optics.Properties
	MediaNames []string

	// acc is the derived traversal accelerator (reciprocal voxel sizes and
	// the same-label safe-radius map). It is unexported so gob and JSON
	// skip it, built where tracing begins (PrepareTrace, or the first
	// ToBoundary) and invalidated by the mutating builders — a process that
	// only validates, hashes and journals a grid never pays for it.
	// Publication is atomic and accMu serialises the build, so kernels
	// racing onto a fresh shared grid wait for one build instead of each
	// repeating it; accBuilds counts builds for the tests that pin that.
	acc       atomic.Pointer[gridAccel]
	accMu     sync.Mutex
	accBuilds int
}

// New returns a grid of nx×ny×nz voxels with edges dx×dy×dz mm, laterally
// centred on the source axis (x = y = 0), filled with a single base medium
// as label 0. Ambient indices default to 1 (air) above and the base
// medium's index below.
func New(name string, nx, ny, nz int, dx, dy, dz float64, baseName string, base optics.Properties) *Grid {
	return &Grid{
		Name: name,
		Nx:   nx, Ny: ny, Nz: nz,
		Dx: dx, Dy: dy, Dz: dz,
		X0:         -float64(nx) * dx / 2,
		Y0:         -float64(ny) * dy / 2,
		NAbove:     1,
		NBelow:     base.N,
		Labels:     make([]uint8, nx*ny*nz),
		Media:      []optics.Properties{base},
		MediaNames: []string{baseName},
	}
}

// Equal reports whether o describes the same medium: every exported field
// equal, the label array compared last. Equal grids trace identically and
// are read-only, so a holder of two may drop one and share the other.
func (g *Grid) Equal(o *Grid) bool {
	return g == o || g != nil && o != nil &&
		g.Name == o.Name &&
		g.Nx == o.Nx && g.Ny == o.Ny && g.Nz == o.Nz &&
		g.Dx == o.Dx && g.Dy == o.Dy && g.Dz == o.Dz &&
		g.X0 == o.X0 && g.Y0 == o.Y0 &&
		g.NAbove == o.NAbove && g.NBelow == o.NBelow &&
		slices.Equal(g.Media, o.Media) &&
		slices.Equal(g.MediaNames, o.MediaNames) &&
		bytes.Equal(g.Labels, o.Labels)
}

// Index returns the flat index of voxel (i, j, k).
func (g *Grid) Index(i, j, k int) int { return (k*g.Ny+j)*g.Nx + i }

// Center returns the world coordinates of voxel (i, j, k)'s centre.
func (g *Grid) Center(i, j, k int) (x, y, z float64) {
	return g.X0 + (float64(i)+0.5)*g.Dx,
		g.Y0 + (float64(j)+0.5)*g.Dy,
		(float64(k) + 0.5) * g.Dz
}

// Width, Height and Depth return the physical extent of the grid in mm.
func (g *Grid) Width() float64  { return float64(g.Nx) * g.Dx }
func (g *Grid) Height() float64 { return float64(g.Ny) * g.Dy }
func (g *Grid) Depth() float64  { return float64(g.Nz) * g.Dz }

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// voxelOf returns the voxel indices containing the world point, clamped
// into the grid.
func (g *Grid) voxelOf(x, y, z float64) (i, j, k int) {
	i = clampIdx(int(math.Floor((x-g.X0)/g.Dx)), g.Nx)
	j = clampIdx(int(math.Floor((y-g.Y0)/g.Dy)), g.Ny)
	k = clampIdx(int(math.Floor(z/g.Dz)), g.Nz)
	return
}

// LabelAt returns the label of the voxel containing the world point,
// clamped into the grid.
func (g *Grid) LabelAt(x, y, z float64) int {
	i, j, k := g.voxelOf(x, y, z)
	return int(g.Labels[g.Index(i, j, k)])
}

// --- geom.Geometry -------------------------------------------------------

// NumRegions returns the number of media.
func (g *Grid) NumRegions() int { return len(g.Media) }

// RegionName returns the name of medium r.
func (g *Grid) RegionName(r int) string {
	if r < 0 || r >= len(g.MediaNames) {
		return ""
	}
	return g.MediaNames[r]
}

// AmbientIndex returns the refractive index above the entry surface.
func (g *Grid) AmbientIndex() float64 { return g.NAbove }

// RegionAt returns the label at pos, or −1 for points outside the grid's
// box (the entry surface z = 0 itself is inside) — launches landing beyond
// the footprint are scored as lateral loss rather than silently traced down
// the edge column.
func (g *Grid) RegionAt(pos vec.V) int {
	if !g.InsideGrid(pos.X, pos.Y, pos.Z) {
		return -1
	}
	return g.LabelAt(pos.X, pos.Y, pos.Z)
}

// Props returns the optical properties of medium r.
func (g *Grid) Props(r int) optics.Properties { return g.Media[r] }

// nudge is the face-disambiguation offset: a packet resolved exactly onto a
// voxel face is attributed to the voxel it is travelling into.
func (g *Grid) nudge() float64 { return 1e-6 * g.MinVoxel() }

// ToBoundary walks the DDA from pos along unit direction dir through voxels
// of label r, returning the distance to the first face beyond which the
// label changes (or the grid ends) and the Hit describing that boundary.
// Same-label faces are not boundaries: a chord through a homogeneous region
// costs one call regardless of how many voxels it crosses. The walk stops
// early once every remaining face lies beyond maxDist (the caller's
// sampled free path), returning that face distance with a zero Hit — in
// optically thick media this makes the per-event cost O(1) instead of
// O(grid diameter).
//
// Label-homogeneous stretches are fused via the safe-radius map (see
// gridAccel): a scattering event whose sampled step fits inside the
// current voxel's same-label Chebyshev ball returns without seeding the
// DDA at all, and the walk jumps whole balls at a time instead of crossing
// their interior faces one by one.
//
// The clear radius is that same ball: when the fast path answers, the
// medium cannot change within rad·minEdge of the current voxel in any
// direction, so the kernel may keep hopping inside it without asking (see
// gridAccel.slack for why the reported radius is a little smaller). Every
// other return reports 0 — a walk that had to look at faces found the ball
// too small for this step, and would for the next.
func (g *Grid) ToBoundary(pos, dir vec.V, r int, maxDist float64) (float64, geom.Hit, float64) {
	a := g.acc.Load()
	if a == nil {
		a = g.ensureAccel()
	}
	eps := a.eps

	i := clampIdx(int(math.Floor((pos.X+dir.X*eps-g.X0)*a.invDx)), g.Nx)
	j := clampIdx(int(math.Floor((pos.Y+dir.Y*eps-g.Y0)*a.invDy)), g.Ny)
	k := clampIdx(int(math.Floor((pos.Z+dir.Z*eps)*a.invDz)), g.Nz)
	idx := (k*g.Ny+j)*g.Nx + i

	// Fusion fast path: if the whole sampled step fits inside the current
	// voxel's same-label ball, no face test is needed at all — the common
	// case for scattering-dominated media, where the free path is a small
	// fraction of a voxel edge.
	if rad := a.rad[idx]; rad > 0 && int(g.Labels[idx]) == r {
		if safe := float64(rad) * a.minEdge; safe > maxDist {
			return safe, geom.Hit{}, safe - a.slack
		}
	}

	// Per-axis DDA state: the parametric distance to the next face
	// (tMax) and the distance between successive faces (tDelta).
	const inf = math.MaxFloat64
	stepX, tMaxX, tDeltaX, invX := 0, inf, inf, 0.0
	if dir.X != 0 {
		invX = 1 / dir.X
		if dir.X > 0 {
			stepX = 1
			tMaxX = (g.X0 + float64(i+1)*g.Dx - pos.X) * invX
			tDeltaX = g.Dx * invX
		} else {
			stepX = -1
			tMaxX = (g.X0 + float64(i)*g.Dx - pos.X) * invX
			tDeltaX = -g.Dx * invX
		}
	}
	stepY, tMaxY, tDeltaY, invY := 0, inf, inf, 0.0
	if dir.Y != 0 {
		invY = 1 / dir.Y
		if dir.Y > 0 {
			stepY = 1
			tMaxY = (g.Y0 + float64(j+1)*g.Dy - pos.Y) * invY
			tDeltaY = g.Dy * invY
		} else {
			stepY = -1
			tMaxY = (g.Y0 + float64(j)*g.Dy - pos.Y) * invY
			tDeltaY = -g.Dy * invY
		}
	}
	stepZ, tMaxZ, tDeltaZ, invZ := 0, inf, inf, 0.0
	if dir.Z != 0 {
		invZ = 1 / dir.Z
		if dir.Z > 0 {
			stepZ = 1
			tMaxZ = (float64(k+1)*g.Dz - pos.Z) * invZ
			tDeltaZ = g.Dz * invZ
		} else {
			stepZ = -1
			tMaxZ = (float64(k)*g.Dz - pos.Z) * invZ
			tDeltaZ = -g.Dz * invZ
		}
	}
	// A packet resolved fractionally past a face yields a slightly negative
	// tMax; clamp so distances stay physical.
	if tMaxX < 0 {
		tMaxX = 0
	}
	if tMaxY < 0 {
		tMaxY = 0
	}
	if tMaxZ < 0 {
		tMaxZ = 0
	}

	if stepX == 0 && stepY == 0 && stepZ == 0 {
		return math.Inf(1), geom.Hit{}, 0
	}

	for {
		// Advance across the nearest face.
		var t float64
		var axis int
		switch {
		case tMaxX <= tMaxY && tMaxX <= tMaxZ:
			t, axis = tMaxX, 0
			i += stepX
			tMaxX += tDeltaX
		case tMaxY <= tMaxZ:
			t, axis = tMaxY, 1
			j += stepY
			tMaxY += tDeltaY
		default:
			t, axis = tMaxZ, 2
			k += stepZ
			tMaxZ += tDeltaZ
		}

		// The caller scatters before this face: no boundary within reach.
		if t > maxDist {
			return t, geom.Hit{}, 0
		}

		// Out of the grid: classify the exit face. The side walls are an
		// artificial truncation, not a physical surface, so they are
		// index-matched to the local medium — otherwise total internal
		// reflection at a tissue/air side wall would recycle most of the
		// lateral flux back into the grid and hide the truncation loss
		// from LateralFraction. The top face is the real entry surface
		// (NAbove) and the bottom face is terminated by NBelow.
		if i < 0 || i >= g.Nx || j < 0 || j >= g.Ny || k < 0 || k >= g.Nz {
			var normal vec.V
			switch axis {
			case 0:
				normal = vec.V{X: -float64(stepX)}
			case 1:
				normal = vec.V{Y: -float64(stepY)}
			default:
				normal = vec.V{Z: -float64(stepZ)}
			}
			hit := geom.Hit{Normal: normal, Next: r, N2: g.Media[r].N, Exit: geom.ExitLateral}
			if axis == 2 {
				if stepZ < 0 {
					hit.Exit = geom.ExitTop
					hit.N2 = g.NAbove
				} else {
					hit.Exit = geom.ExitBottom
					hit.N2 = g.NBelow
				}
			}
			return t, hit, 0
		}

		// A face into a different medium is the boundary; same-label faces
		// are stepped over.
		idx = (k*g.Ny+j)*g.Nx + i
		if label := int(g.Labels[idx]); label != r {
			var normal vec.V
			switch axis {
			case 0:
				normal = vec.V{X: -float64(stepX)}
			case 1:
				normal = vec.V{Y: -float64(stepY)}
			default:
				normal = vec.V{Z: -float64(stepZ)}
			}
			return t, geom.Hit{Normal: normal, Next: label, N2: g.Media[label].N}, 0
		}

		// Fuse: deep inside a homogeneous run, leap the whole same-label
		// ball in one go instead of crossing its interior faces.
		if rad := a.rad[idx]; rad >= 2 {
			nt := t + float64(rad)*a.minEdge
			if nt > maxDist {
				return nt, geom.Hit{}, 0
			}
			i, j, k = g.reseed(a, pos, dir, nt, invX, invY, invZ, &tMaxX, &tMaxY, &tMaxZ)
		}
	}
}

// Validate reports the first structural problem with the grid. It builds
// nothing: a shard validates every submission and journal replay of a grid
// it will never trace.
func (g *Grid) Validate() error {
	if g.Nx <= 0 || g.Ny <= 0 || g.Nz <= 0 {
		return fmt.Errorf("voxel: grid %q has non-positive dimensions %dx%dx%d", g.Name, g.Nx, g.Ny, g.Nz)
	}
	if g.Dx <= 0 || g.Dy <= 0 || g.Dz <= 0 {
		return fmt.Errorf("voxel: grid %q has non-positive voxel size %gx%gx%g", g.Name, g.Dx, g.Dy, g.Dz)
	}
	if len(g.Labels) != g.Nx*g.Ny*g.Nz {
		return fmt.Errorf("voxel: grid %q has %d labels for %d voxels", g.Name, len(g.Labels), g.Nx*g.Ny*g.Nz)
	}
	if len(g.Media) == 0 {
		return fmt.Errorf("voxel: grid %q has no media", g.Name)
	}
	if len(g.Media) > MaxMedia {
		return fmt.Errorf("voxel: grid %q has %d media, max %d", g.Name, len(g.Media), MaxMedia)
	}
	if len(g.MediaNames) != len(g.Media) {
		return fmt.Errorf("voxel: grid %q has %d media names for %d media", g.Name, len(g.MediaNames), len(g.Media))
	}
	if g.NAbove < 1 || g.NBelow < 1 {
		return fmt.Errorf("voxel: grid %q ambient refractive index below 1", g.Name)
	}
	for m, p := range g.Media {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("voxel: grid %q medium %d (%s): %w", g.Name, m, g.RegionName(m), err)
		}
	}
	nm := len(g.Media)
	for idx, l := range g.Labels {
		if int(l) >= nm {
			return fmt.Errorf("voxel: grid %q voxel %d has label %d, only %d media", g.Name, idx, l, nm)
		}
	}
	return nil
}

// PrepareTrace builds the traversal accelerator if the grid does not have
// one. The mc kernel calls it where tracing begins, so the build is paid by
// the process that traces — once per grid — and not inside its first
// timed chunk; Validate stays structural.
func (g *Grid) PrepareTrace() { g.ensureAccel() }
