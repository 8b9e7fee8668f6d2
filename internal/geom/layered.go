package geom

import (
	"math"

	"repro/internal/optics"
	"repro/internal/tissue"
	"repro/internal/vec"
)

// Layered adapts the layered slab tissue.Model to the Geometry interface:
// regions are layer indices, boundaries are the horizontal planes between
// layers. This is the fast path — distance to boundary is a single division
// — and reproduces the original MCML-style kernel behaviour exactly.
type Layered struct {
	M *tissue.Model
}

// NumRegions returns the layer count.
func (l Layered) NumRegions() int { return l.M.NumLayers() }

// RegionName returns the layer name.
func (l Layered) RegionName(r int) string {
	if r < 0 || r >= len(l.M.Layers) {
		return ""
	}
	return l.M.Layers[r].Name
}

// AmbientIndex returns the index of the medium above the scalp.
func (l Layered) AmbientIndex() float64 { return l.M.NAbove }

// RegionAt returns the layer containing pos, clamped into the stack.
func (l Layered) RegionAt(pos vec.V) int {
	r := l.M.LayerAt(pos.Z)
	if r < 0 {
		return 0
	}
	if n := l.M.NumLayers(); r >= n {
		return n - 1
	}
	return r
}

// Props returns layer r's optical properties.
func (l Layered) Props(r int) optics.Properties { return l.M.Layers[r].Props }

// ToBoundary returns the distance to the top or bottom plane of layer r
// along dir. A horizontal ray (dir.Z == 0) never leaves the layer; a ray
// heading into a semi-infinite final layer returns +Inf with the bottom
// hit descriptor (never reached). The plane distance is a single division,
// so maxDist is ignored. The clear radius is always 0: production layered
// runs go through the kernel's devirtualised tracer, and the generic loop
// over a Layered stays the ask-every-event reference that tracer is gated
// against.
func (l Layered) ToBoundary(pos, dir vec.V, r int, maxDist float64) (float64, Hit, float64) {
	switch {
	case dir.Z > 0:
		db := (l.M.Boundary(r+1) - pos.Z) / dir.Z
		hit := Hit{
			Normal: vec.V{X: 0, Y: 0, Z: -1},
			Next:   r + 1,
			N2:     l.M.IndexBelow(r),
		}
		if r == l.M.NumLayers()-1 {
			hit.Next = r
			hit.Exit = ExitBottom
		}
		return db, hit, 0
	case dir.Z < 0:
		db := (pos.Z - l.M.Boundary(r)) / -dir.Z
		hit := Hit{
			Normal: vec.V{X: 0, Y: 0, Z: 1},
			Next:   r - 1,
			N2:     l.M.IndexAbove(r),
		}
		if r == 0 {
			hit.Next = 0
			hit.Exit = ExitTop
		}
		return db, hit, 0
	}
	return math.Inf(1), Hit{}, 0
}

// Validate delegates to the model.
func (l Layered) Validate() error { return l.M.Validate() }
