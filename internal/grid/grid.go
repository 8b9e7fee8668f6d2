// Package grid provides the 3-D voxel accumulators the simulation scores
// into: absorbed weight per voxel and detected-photon path density (the
// "user defined granularity of results" feature, e.g. the 50³ grid of
// Fig 3). Grids are plain data: they travel in the compact tally codec
// (mc.AppendTally) and merge associatively for distributed reduction.
package grid

import (
	"fmt"
	"io"
	"math"
)

// Grid3 is a dense 3-D accumulation grid over the box
// [X0, X0+Nx·Dx) × [Y0, Y0+Ny·Dy) × [0, Nz·Dz). Values are accumulated
// weights (double precision). The z axis points into the tissue.
type Grid3 struct {
	Nx, Ny, Nz int
	Dx, Dy, Dz float64 // voxel edge lengths in mm
	X0, Y0     float64 // world coordinates of the grid corner (z always 0)
	Data       []float64
}

// New returns a zeroed grid with the given voxel counts and sizes, centred
// on x = y = 0 at the surface.
func New(nx, ny, nz int, dx, dy, dz float64) *Grid3 {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("grid: non-positive dimensions %dx%dx%d", nx, ny, nz))
	}
	return &Grid3{
		Nx: nx, Ny: ny, Nz: nz,
		Dx: dx, Dy: dy, Dz: dz,
		X0:   -float64(nx) * dx / 2,
		Y0:   -float64(ny) * dy / 2,
		Data: make([]float64, nx*ny*nz),
	}
}

// NewCube returns an n×n×n grid spanning a cube of the given physical edge
// length (mm), centred on the source axis — "granularity of 50³" in the
// paper is NewCube(50, edge).
func NewCube(n int, edgeMM float64) *Grid3 {
	d := edgeMM / float64(n)
	return New(n, n, n, d, d, d)
}

// Clone returns a deep copy.
func (g *Grid3) Clone() *Grid3 {
	cp := *g
	cp.Data = make([]float64, len(g.Data))
	copy(cp.Data, g.Data)
	return &cp
}

// CompatibleWith reports whether two grids share geometry and can be merged.
func (g *Grid3) CompatibleWith(o *Grid3) bool {
	return g.Nx == o.Nx && g.Ny == o.Ny && g.Nz == o.Nz &&
		g.Dx == o.Dx && g.Dy == o.Dy && g.Dz == o.Dz &&
		g.X0 == o.X0 && g.Y0 == o.Y0
}

// Index returns the flat index for voxel (i, j, k).
func (g *Grid3) Index(i, j, k int) int { return (k*g.Ny+j)*g.Nx + i }

// Voxel returns the voxel coordinates containing world point (x, y, z) and
// whether the point is inside the grid.
func (g *Grid3) Voxel(x, y, z float64) (i, j, k int, ok bool) {
	i = int(math.Floor((x - g.X0) / g.Dx))
	j = int(math.Floor((y - g.Y0) / g.Dy))
	k = int(math.Floor(z / g.Dz))
	ok = i >= 0 && i < g.Nx && j >= 0 && j < g.Ny && k >= 0 && k < g.Nz
	return
}

// Add accumulates w at world point (x, y, z); points outside the grid are
// dropped (the grid is a window onto an unbounded medium).
func (g *Grid3) Add(x, y, z, w float64) {
	if i, j, k, ok := g.Voxel(x, y, z); ok {
		g.Data[g.Index(i, j, k)] += w
	}
}

// At returns the value of voxel (i, j, k).
func (g *Grid3) At(i, j, k int) float64 { return g.Data[g.Index(i, j, k)] }

// Merge adds o into g. Both grids must be compatible.
func (g *Grid3) Merge(o *Grid3) error {
	if !g.CompatibleWith(o) {
		return fmt.Errorf("grid: merging incompatible grids %dx%dx%d vs %dx%dx%d",
			g.Nx, g.Ny, g.Nz, o.Nx, o.Ny, o.Nz)
	}
	for i, v := range o.Data {
		g.Data[i] += v
	}
	return nil
}

// Scale multiplies every voxel by s (e.g. normalising by photon count).
func (g *Grid3) Scale(s float64) {
	for i := range g.Data {
		g.Data[i] *= s
	}
}

// Max returns the largest voxel value.
func (g *Grid3) Max() float64 {
	m := 0.0
	for _, v := range g.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Total returns the sum over all voxels.
func (g *Grid3) Total() float64 {
	t := 0.0
	for _, v := range g.Data {
		t += v
	}
	return t
}

// Threshold zeroes every voxel below frac·Max(), reproducing the
// "after thresholding" visualisation step of Fig 3, and returns the number
// of voxels kept.
func (g *Grid3) Threshold(frac float64) int {
	cut := frac * g.Max()
	kept := 0
	for i, v := range g.Data {
		if v < cut {
			g.Data[i] = 0
		} else if v > 0 {
			kept++
		}
	}
	return kept
}

// SliceY returns the x–z plane at voxel row j as a Nz×Nx matrix
// (rows indexed by depth), the natural rendering of the Fig 3/Fig 4 path
// maps.
func (g *Grid3) SliceY(j int) [][]float64 {
	s := make([][]float64, g.Nz)
	for k := 0; k < g.Nz; k++ {
		row := make([]float64, g.Nx)
		for i := 0; i < g.Nx; i++ {
			row[i] = g.At(i, j, k)
		}
		s[k] = row
	}
	return s
}

// ProjectY sums the grid over y, returning a Nz×Nx matrix: the axial path
// density map integrated across the transverse coordinate.
func (g *Grid3) ProjectY() [][]float64 {
	s := make([][]float64, g.Nz)
	for k := 0; k < g.Nz; k++ {
		row := make([]float64, g.Nx)
		for i := 0; i < g.Nx; i++ {
			sum := 0.0
			for j := 0; j < g.Ny; j++ {
				sum += g.At(i, j, k)
			}
			row[i] = sum
		}
		s[k] = row
	}
	return s
}

// DepthProfile sums the grid over x and y, returning the per-depth totals —
// the penetration-depth curve used in the Fig 4 analysis.
func (g *Grid3) DepthProfile() []float64 {
	p := make([]float64, g.Nz)
	for k := 0; k < g.Nz; k++ {
		sum := 0.0
		base := k * g.Ny * g.Nx
		for idx := base; idx < base+g.Ny*g.Nx; idx++ {
			sum += g.Data[idx]
		}
		p[k] = sum
	}
	return p
}

// PeakDepthPerColumn returns, for each column of a depth×width matrix
// (rows indexed by depth, as produced by SliceY/ProjectY), the row index of
// the column's maximum, or −1 for an all-zero column. For a detected-photon
// sensitivity map this is the quantitative banana arc: the most-probed
// depth as a function of lateral position.
func PeakDepthPerColumn(rows [][]float64) []int {
	if len(rows) == 0 {
		return nil
	}
	width := len(rows[0])
	peaks := make([]int, width)
	for x := 0; x < width; x++ {
		best, bestK := 0.0, -1
		for k := range rows {
			if v := rows[k][x]; v > best {
				best, bestK = v, k
			}
		}
		peaks[x] = bestK
	}
	return peaks
}

// WriteCSV writes the y-projection as CSV (one row per depth).
func (g *Grid3) WriteCSV(w io.Writer) error {
	proj := g.ProjectY()
	for _, row := range proj {
		for i, v := range row {
			sep := ","
			if i == len(row)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%g%s", v, sep); err != nil {
				return err
			}
		}
	}
	return nil
}
