// Package geom defines the Geometry abstraction the Monte Carlo kernel
// traces photons through. A Geometry partitions space into numbered regions
// of homogeneous optical properties and answers the two questions the
// hop–drop–spin loop asks on its hot path: "how far to the next boundary
// along this ray?" and "what is on the other side?". The layered slab model
// of the paper and the heterogeneous voxel medium (internal/voxel) are both
// implementations, so every runner, wire protocol and analysis layer works
// unchanged over either.
package geom

import (
	"repro/internal/optics"
	"repro/internal/vec"
)

// ExitKind classifies a boundary that leaves the medium entirely.
type ExitKind uint8

const (
	// ExitNone marks an internal boundary between two regions.
	ExitNone ExitKind = iota
	// ExitTop marks escape through the z = 0 entry surface (scored as
	// diffuse reflectance and eligible for detection).
	ExitTop
	// ExitBottom marks escape through the deep face of a finite medium
	// (scored as transmittance).
	ExitBottom
	// ExitLateral marks escape through the sides of a laterally bounded
	// medium such as a voxel grid (layered slabs are laterally infinite and
	// never produce it).
	ExitLateral
)

// String implements fmt.Stringer.
func (e ExitKind) String() string {
	switch e {
	case ExitNone:
		return "none"
	case ExitTop:
		return "top"
	case ExitBottom:
		return "bottom"
	case ExitLateral:
		return "lateral"
	default:
		return "ExitKind(?)"
	}
}

// Hit describes the boundary at the end of a region-limited flight: the
// information the kernel needs to resolve Fresnel reflection/refraction
// without re-deriving the local geometry.
type Hit struct {
	// Normal is the unit boundary normal oriented against the incident
	// direction (Normal·dir ≤ 0), so cosθi = −Normal·dir ≥ 0.
	Normal vec.V
	// Next is the region beyond the boundary; meaningful only when
	// Exit == ExitNone.
	Next int
	// N2 is the refractive index beyond the boundary (the ambient index
	// when Exit != ExitNone).
	N2 float64
	// Exit marks boundaries that leave the medium entirely.
	Exit ExitKind
}

// Geometry is the medium abstraction of the transport kernel. Regions are
// dense integer handles in [0, NumRegions()); per-region tallies (absorbed
// weight, penetration) are indexed by them. Implementations must be safe
// for concurrent read-only use — one kernel per goroutine traces through a
// shared Geometry.
type Geometry interface {
	// NumRegions returns the number of distinct regions, sizing the
	// per-region tallies.
	NumRegions() int
	// RegionName returns a human-readable name for region r (layer or
	// medium name; may be empty).
	RegionName(r int) string
	// AmbientIndex returns the refractive index of the medium above the
	// z = 0 entry surface, used for the deterministic specular reflection
	// at launch.
	AmbientIndex() float64
	// RegionAt returns the region containing pos, or −1 for points outside
	// the medium entirely (e.g. beyond a voxel grid's lateral footprint —
	// the kernel scores such launches as lateral loss). Points on the
	// entry surface resolve to the region immediately below.
	RegionAt(pos vec.V) int
	// Props returns the optical properties of region r.
	Props(r int) optics.Properties
	// ToBoundary returns the distance s along unit direction dir from pos
	// (inside region r) to the first boundary where the medium changes,
	// and the Hit describing that boundary. Faces between same-region
	// volumes are not boundaries. s = +Inf (with a zero Hit) means the ray
	// never leaves the region.
	//
	// maxDist is the caller's sampled free path: an implementation may
	// stop searching once the boundary is provably beyond it and return
	// any s > maxDist with a zero Hit (the kernel scatters before reaching
	// it). Pass +Inf to force the full search. This keeps voxel traversal
	// O(1) per scattering event in optically thick media instead of
	// O(grid) per event.
	//
	// clearRadius is a distance c ≥ 0 such that the medium provably does
	// not change within c of pos in any direction — isotropic, so it
	// outlives dir. The kernel spends it as path length: until the steps
	// taken since the call add up to c it hops without asking again. An
	// implementation must therefore make c conservative under its own
	// tolerances (face nudges, the rounding a position accumulates over
	// those steps): any later call from a point the budget still covers,
	// with a maxDist it still covers, must itself find no boundary. 0 —
	// "unknown" — is always legal and costs only the calls it would have
	// saved.
	ToBoundary(pos, dir vec.V, r int, maxDist float64) (s float64, hit Hit, clearRadius float64)
	// Validate reports the first structural problem with the geometry.
	Validate() error
}

// Reflect mirrors the unit direction d in the plane with unit normal n:
// d − 2(d·n)n. For an axis-aligned normal it reduces exactly to the MCML
// component flip.
func Reflect(d, n vec.V) vec.V {
	return d.Sub(n.Scale(2 * d.Dot(n)))
}

// Refract bends the unit direction d across a boundary with unit normal n
// oriented against d (d·n ≤ 0), given the index ratio η = n1/n2 and the
// transmitted polar cosine cosT from optics.Fresnel:
//
//	t = η·d + (η·cosθi − cosT)·n
//
// For a horizontal boundary this reproduces the classic MCML update
// (scale the tangential components by η, set the normal component to cosT).
func Refract(d, n vec.V, eta, cosT float64) vec.V {
	cosI := -d.Dot(n)
	return d.Scale(eta).Add(n.Scale(eta*cosI - cosT))
}
