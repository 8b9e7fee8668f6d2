// Package vec implements the small amount of 3-D vector algebra needed by
// the photon transport kernel: direction bookkeeping, scattering rotations
// and boundary geometry.
package vec

import "math"

// V is a 3-D vector. Z points into the tissue; the surface is the z = 0
// plane, matching the usual MCML slab convention.
type V struct {
	X, Y, Z float64
}

// Add returns a + b.
func (a V) Add(b V) V { return V{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }

// Sub returns a - b.
func (a V) Sub(b V) V { return V{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }

// Scale returns a scaled by s.
func (a V) Scale(s float64) V { return V{a.X * s, a.Y * s, a.Z * s} }

// Dot returns the scalar product a·b.
func (a V) Dot(b V) float64 { return a.X*b.X + a.Y*b.Y + a.Z*b.Z }

// Cross returns the vector product a×b.
func (a V) Cross(b V) V {
	return V{
		a.Y*b.Z - a.Z*b.Y,
		a.Z*b.X - a.X*b.Z,
		a.X*b.Y - a.Y*b.X,
	}
}

// Norm returns |a|.
func (a V) Norm() float64 { return math.Sqrt(a.Dot(a)) }

// Normalize returns a/|a|. It returns the zero vector unchanged.
func (a V) Normalize() V {
	n := a.Norm()
	if n == 0 {
		return a
	}
	return a.Scale(1 / n)
}

// Scatter rotates the unit direction d by polar angle θ (given as cosθ) and
// azimuthal angle φ, returning the new unit direction. This is the standard
// MCML direction update (Prahl et al. 1989, Wang & Jacques MCML manual).
func Scatter(d V, cosTheta, phi float64) V {
	return ScatterCS(d, cosTheta, math.Cos(phi), math.Sin(phi))
}

// ScatterCS is Scatter with the azimuth supplied directly as (cos φ, sin φ)
// — the transport hot path samples that pair without trigonometric calls
// (rng.AzimuthUnit). The rotation needs sinθ/√(1−uz²) and sinθ·√(1−uz²);
// both come from a single square root of the product, so one event costs
// one sqrt and one division.
//
// It is composed of pieces small enough to compile inline: the common
// rotation is ScatterFG then Rotate, and the two degenerate cases are
// ScatterEdge, out of line. A transport loop holding the direction in
// locals calls the same pieces, so this function's tests test its
// arithmetic.
func ScatterCS(d V, cosTheta, cosPhi, sinPhi float64) V {
	f, g, st2, ok := ScatterFG(d.Z, cosTheta)
	if !ok {
		return ScatterEdge(d, st2, cosTheta, cosPhi, sinPhi)
	}
	return Rotate(d, f, g, cosTheta, cosPhi, sinPhi)
}

// ScatterFG returns, for a direction with vertical component uz and the
// polar cosine cosTheta, the common rotation's f = sinθ/√(1−uz²) and
// g = sinθ·√(1−uz²), from one square root and one division, and sin²θ. It
// reports ok = false in the cases the rotation cannot take, which
// ScatterEdge resolves: near-vertical propagation (the 1/√(1−uz²)
// singularity), and θ = 0 or π exactly.
func ScatterFG(uz, cosTheta float64) (f, g, st2 float64, ok bool) {
	st2 = 1 - cosTheta*cosTheta // sin²θ
	if math.Abs(uz) > 0.99999 || st2 <= 0 {
		return 0, 0, st2, false
	}
	dn2 := 1 - uz*uz         // denom² = 1−uz²
	g = math.Sqrt(st2 * dn2) // sinθ·denom
	return st2 / g, g, st2, true
}

// Rotate is the common rotation of d by the polar cosine cosTheta and the
// azimuth (cosPhi, sinPhi), given ScatterFG's f and g.
func Rotate(d V, f, g, cosTheta, cosPhi, sinPhi float64) V {
	return V{
		f*(d.X*d.Z*cosPhi-d.Y*sinPhi) + d.X*cosTheta,
		f*(d.Y*d.Z*cosPhi+d.X*sinPhi) + d.Y*cosTheta,
		-cosPhi*g + d.Z*cosTheta,
	}
}

// ScatterEdge is ScatterCS in the cases ScatterFG refuses, given sin²θ. It is
// kept out of line so that a loop inlining the common rotation stays small.
//
//go:noinline
func ScatterEdge(d V, st2, cosTheta, cosPhi, sinPhi float64) V {
	if math.Abs(d.Z) > 0.99999 {
		sinTheta := math.Sqrt(st2)
		sign := 1.0
		if d.Z < 0 {
			sign = -1.0
		}
		return V{
			sinTheta * cosPhi,
			sinTheta * sinPhi,
			sign * cosTheta,
		}
	}
	// θ = 0 or π exactly: pure forward/backward scattering.
	return d.Scale(cosTheta)
}
