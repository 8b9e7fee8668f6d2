package voxel

import (
	"fmt"
	"math"

	"repro/internal/optics"
	"repro/internal/tissue"
	"repro/internal/vec"
)

// FromModel voxelizes a layered slab model onto an nx×ny×nz grid of
// dx×dy×dz mm voxels, laterally centred on the source axis. Each voxel
// takes the label of the layer containing its centre depth, so when layer
// boundaries align with voxel planes the voxelization is geometrically
// exact inside the grid. A stack deeper than the grid (including a
// semi-infinite final layer) is truncated at the bottom face; NBelow is set
// to the truncated layer's own index so the cut introduces no spurious
// Fresnel interface — deep photons leave as transmittance instead of
// wandering forever.
func FromModel(m *tissue.Model, nx, ny, nz int, dx, dy, dz float64) (*Grid, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if nx <= 0 || ny <= 0 || nz <= 0 || dx <= 0 || dy <= 0 || dz <= 0 {
		return nil, fmt.Errorf("voxel: bad voxelization %dx%dx%d @ %gx%gx%g", nx, ny, nz, dx, dy, dz)
	}
	if m.NumLayers() > MaxMedia {
		return nil, fmt.Errorf("voxel: model %q has %d layers, max %d media", m.Name, m.NumLayers(), MaxMedia)
	}

	g := &Grid{
		Name: m.Name + "-voxelized",
		Nx:   nx, Ny: ny, Nz: nz,
		Dx: dx, Dy: dy, Dz: dz,
		X0:     -float64(nx) * dx / 2,
		Y0:     -float64(ny) * dy / 2,
		NAbove: m.NAbove,
		Labels: make([]uint8, nx*ny*nz),
	}
	for _, l := range m.Layers {
		g.Media = append(g.Media, l.Props)
		g.MediaNames = append(g.MediaNames, l.Name)
	}

	// One label per depth row, copied across the horizontal extent.
	last := m.NumLayers() - 1
	for k := 0; k < nz; k++ {
		li := m.LayerAt((float64(k) + 0.5) * dz)
		if li > last {
			li = last // grid deeper than a finite stack: pad with the deepest layer
		}
		row := uint8(li)
		base := k * ny * nx
		for idx := base; idx < base+ny*nx; idx++ {
			g.Labels[idx] = row
		}
	}

	// Terminate the bottom face: the index of whatever sits just below the
	// grid (the truncated layer itself while still inside the stack, or the
	// model's backing medium once past a finite stack).
	depth := float64(nz) * dz
	if li := m.LayerAt(depth * (1 + 1e-12)); li < m.NumLayers() {
		g.NBelow = m.Layers[li].Props.N
	} else {
		g.NBelow = m.NBelow
	}
	return g, nil
}

// AddMedium appends a medium to the grid's table and returns its label for
// use with the Paint helpers.
func (g *Grid) AddMedium(name string, p optics.Properties) (int, error) {
	if len(g.Media) >= MaxMedia {
		return 0, fmt.Errorf("voxel: grid %q already has %d media", g.Name, MaxMedia)
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	g.Media = append(g.Media, p)
	g.MediaNames = append(g.MediaNames, name)
	return len(g.Media) - 1, nil
}

// Paint relabels every voxel whose centre satisfies inside(x, y, z),
// returning the number of voxels painted. It is the composable primitive
// under the shape helpers; inclusions layer in call order (later paints
// overwrite earlier ones).
func (g *Grid) Paint(label int, inside func(x, y, z float64) bool) int {
	g.invalidateAccel()
	painted := 0
	l := uint8(label)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				x, y, z := g.Center(i, j, k)
				if inside(x, y, z) {
					g.Labels[g.Index(i, j, k)] = l
					painted++
				}
			}
		}
	}
	return painted
}

// PaintSphere paints a spherical inclusion centred at (cx, cy, cz) with the
// given radius (mm) — the canonical tumour/absorber perturbation.
func (g *Grid) PaintSphere(label int, cx, cy, cz, radius float64) int {
	r2 := radius * radius
	return g.Paint(label, func(x, y, z float64) bool {
		dx, dy, dz := x-cx, y-cy, z-cz
		return dx*dx+dy*dy+dz*dz <= r2
	})
}

// PaintBox paints an axis-aligned box spanning [x0,x1]×[y0,y1]×[z0,z1] mm.
func (g *Grid) PaintBox(label int, x0, y0, z0, x1, y1, z1 float64) int {
	if x1 < x0 {
		x0, x1 = x1, x0
	}
	if y1 < y0 {
		y0, y1 = y1, y0
	}
	if z1 < z0 {
		z0, z1 = z1, z0
	}
	return g.Paint(label, func(x, y, z float64) bool {
		return x >= x0 && x <= x1 && y >= y0 && y <= y1 && z >= z0 && z <= z1
	})
}

// PaintSlab paints a tilted layer: every voxel whose centre lies within
// [0, thickness) of the plane through origin with the given normal,
// measured along the normal. With a non-vertical normal this perturbs flat
// layer boundaries into tilted ones — curved-skull-like geometry the
// layered model cannot express.
func (g *Grid) PaintSlab(label int, origin, normal vec.V, thickness float64) int {
	n := normal.Normalize()
	if n.Norm() == 0 {
		return 0
	}
	return g.Paint(label, func(x, y, z float64) bool {
		d := vec.V{X: x, Y: y, Z: z}.Sub(origin).Dot(n)
		return d >= 0 && d < thickness
	})
}

// VolumeFraction returns the fraction of grid voxels carrying the label.
func (g *Grid) VolumeFraction(label int) float64 {
	if len(g.Labels) == 0 {
		return 0
	}
	l := uint8(label)
	n := 0
	for _, v := range g.Labels {
		if v == l {
			n++
		}
	}
	return float64(n) / float64(len(g.Labels))
}

// Clone returns a deep copy, so a base grid can fan out into perturbed
// variants (probe-position sweeps, inclusion ablations) without rebuilding.
// The derived traversal accelerator is not copied (it holds an atomic
// pointer and a mutex, so the struct is rebuilt field-wise); the clone
// builds its own when first traced.
func (g *Grid) Clone() *Grid {
	c := g.WithLabels(append([]uint8(nil), g.Labels...))
	c.Media = append([]optics.Properties(nil), g.Media...)
	c.MediaNames = append([]string(nil), g.MediaNames...)
	return c
}

// WithLabels returns a shallow copy of the grid over another label array:
// the same box, ambient indices and media table (shared with g), no
// accelerator. With nil it is the grid's description without its bulk.
func (g *Grid) WithLabels(labels []uint8) *Grid {
	return &Grid{
		Name: g.Name,
		Nx:   g.Nx, Ny: g.Ny, Nz: g.Nz,
		Dx: g.Dx, Dy: g.Dy, Dz: g.Dz,
		X0: g.X0, Y0: g.Y0,
		NAbove:     g.NAbove,
		NBelow:     g.NBelow,
		Labels:     labels,
		Media:      g.Media,
		MediaNames: g.MediaNames,
	}
}

// Bounds sanity helper: InsideGrid reports whether the world point is
// within the grid's box.
func (g *Grid) InsideGrid(x, y, z float64) bool {
	return x >= g.X0 && x < g.X0+g.Width() &&
		y >= g.Y0 && y < g.Y0+g.Height() &&
		z >= 0 && z < g.Depth()
}

// MinVoxel returns the smallest voxel edge, a convenient DDA scale for
// benchmarks and step-size heuristics.
func (g *Grid) MinVoxel() float64 {
	return math.Min(g.Dx, math.Min(g.Dy, g.Dz))
}
