package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/optics"
	"repro/internal/rng"
	"repro/internal/tissue"
	"repro/internal/vec"
)

func adultLayered() Layered { return Layered{M: tissue.AdultHead()} }

func TestLayeredRegions(t *testing.T) {
	l := adultLayered()
	if l.NumRegions() != 5 {
		t.Fatalf("NumRegions = %d, want 5", l.NumRegions())
	}
	if l.AmbientIndex() != tissue.AmbientIndex {
		t.Fatalf("AmbientIndex = %g", l.AmbientIndex())
	}
	if name := l.RegionName(0); name != "scalp" {
		t.Fatalf("RegionName(0) = %q", name)
	}
	if name := l.RegionName(99); name != "" {
		t.Fatalf("RegionName(99) = %q, want empty", name)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLayeredRegionAt(t *testing.T) {
	l := adultLayered()
	cases := []struct {
		z    float64
		want int
	}{
		{-1, 0},  // above the surface clamps to the first layer
		{0, 0},   // entry surface
		{2.9, 0}, // scalp
		{3.5, 1}, // skull
		{11, 2},  // csf
		{13, 3},  // grey
		{100, 4}, // deep white matter
	}
	for _, c := range cases {
		if got := l.RegionAt(vec.V{Z: c.z}); got != c.want {
			t.Errorf("RegionAt(z=%g) = %d, want %d", c.z, got, c.want)
		}
	}
}

func TestLayeredToBoundaryDown(t *testing.T) {
	l := adultLayered()
	pos := vec.V{Z: 1}
	dir := vec.V{Z: 1}
	s, hit, _ := l.ToBoundary(pos, dir, 0, math.Inf(1))
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("distance to scalp bottom = %g, want 2", s)
	}
	if hit.Exit != ExitNone || hit.Next != 1 {
		t.Fatalf("hit = %+v, want internal crossing into layer 1", hit)
	}
	if hit.Normal.Dot(dir) >= 0 {
		t.Fatalf("normal %v not oriented against dir %v", hit.Normal, dir)
	}
	if hit.N2 != tissue.SkullProps.N {
		t.Fatalf("N2 = %g, want skull index", hit.N2)
	}
}

func TestLayeredToBoundaryUpAndExit(t *testing.T) {
	l := adultLayered()
	s, hit, _ := l.ToBoundary(vec.V{Z: 1}, vec.V{Z: -1}, 0, math.Inf(1))
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("distance to surface = %g, want 1", s)
	}
	if hit.Exit != ExitTop {
		t.Fatalf("exit = %v, want top", hit.Exit)
	}
	if hit.N2 != tissue.AmbientIndex {
		t.Fatalf("N2 = %g, want ambient", hit.N2)
	}

	// Semi-infinite final layer: heading down never reaches a boundary.
	s, _, _ = l.ToBoundary(vec.V{Z: 20}, vec.V{Z: 1}, 4, math.Inf(1))
	if !math.IsInf(s, 1) {
		t.Fatalf("distance in semi-infinite layer = %g, want +Inf", s)
	}

	// Horizontal flight never leaves a layer.
	s, _, _ = l.ToBoundary(vec.V{Z: 1}, vec.V{X: 1}, 0, math.Inf(1))
	if !math.IsInf(s, 1) {
		t.Fatalf("horizontal distance = %g, want +Inf", s)
	}
}

func TestLayeredBottomExitFiniteStack(t *testing.T) {
	m := tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)
	l := Layered{M: m}
	s, hit, _ := l.ToBoundary(vec.V{Z: 4}, vec.V{Z: 1}, 0, math.Inf(1))
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("distance to bottom = %g, want 1", s)
	}
	if hit.Exit != ExitBottom {
		t.Fatalf("exit = %v, want bottom", hit.Exit)
	}
	if hit.N2 != m.NBelow {
		t.Fatalf("N2 = %g, want NBelow", hit.N2)
	}
}

// TestReflectRefractMatchZForms checks the general vector forms reduce
// exactly to the MCML z-axis updates for horizontal boundaries: reflection
// flips the z component, refraction scales the tangential components by
// n1/n2 and sets the normal component to cosT.
func TestReflectRefractMatchZForms(t *testing.T) {
	d := vec.V{X: 0.3, Y: -0.4, Z: math.Sqrt(1 - 0.25)}
	down := vec.V{Z: -1} // normal against a down-going packet

	if got, want := Reflect(d, down), (vec.V{X: d.X, Y: d.Y, Z: -d.Z}); got != want {
		t.Fatalf("Reflect = %v, want %v", got, want)
	}

	n1, n2 := 1.4, 1.0
	refl, cosT := optics.Fresnel(n1, n2, d.Z)
	if refl >= 1 {
		t.Fatal("unexpected TIR in test setup")
	}
	eta := n1 / n2
	got := Refract(d, down, eta, cosT)
	want := vec.V{X: d.X * eta, Y: d.Y * eta, Z: cosT}
	if math.Abs(got.X-want.X) > 1e-15 || math.Abs(got.Y-want.Y) > 1e-15 ||
		math.Abs(got.Z-want.Z) > 1e-15 {
		t.Fatalf("Refract = %v, want %v", got, want)
	}
	// The transmitted direction must stay unit length.
	if norm := got.Norm(); math.Abs(norm-1) > 1e-12 {
		t.Fatalf("refracted norm = %g", norm)
	}

	// An upward-travelling photon keeps its negative normal component.
	up := Refract(vec.V{X: d.X, Y: d.Y, Z: -d.Z}, vec.V{Z: 1}, eta, cosT)
	if up.Z >= 0 {
		t.Fatal("upward refraction should keep negative z")
	}
}

// Property: refraction preserves the transverse direction (Snell's law is
// planar) and produces unit vectors, for random indices and incidences.
func TestRefractProperties(t *testing.T) {
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n1 := 1 + rr.Float64()
		n2 := 1 + rr.Float64()
		cosI := rr.Float64Open()
		sinI := math.Sqrt(1 - cosI*cosI)
		phi := rr.Azimuth()
		d := vec.V{X: sinI * math.Cos(phi), Y: sinI * math.Sin(phi), Z: cosI}
		sinT := n1 / n2 * sinI
		if sinT >= 1 {
			return true // total internal reflection: Refract not called
		}
		cosT := math.Sqrt(1 - sinT*sinT)
		out := Refract(d, vec.V{Z: -1}, n1/n2, cosT)
		if math.Abs(out.Norm()-1) > 1e-9 {
			return false
		}
		// Transverse components stay proportional: out.X/out.Y == d.X/d.Y.
		return math.Abs(out.X*d.Y-out.Y*d.X) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestReflectPreservesNorm(t *testing.T) {
	d := vec.V{X: 0.6, Y: 0.48, Z: 0.64}.Normalize()
	n := vec.V{X: -1, Y: 0.2, Z: 0.1}.Normalize()
	r := Reflect(d, n)
	if math.Abs(r.Norm()-1) > 1e-12 {
		t.Fatalf("reflected norm = %g", r.Norm())
	}
	// Angle of incidence equals angle of reflection: r·n = −d·n.
	if math.Abs(r.Dot(n)+d.Dot(n)) > 1e-12 {
		t.Fatalf("reflection law violated: d·n=%g r·n=%g", d.Dot(n), r.Dot(n))
	}
	// The tangential component is unchanged.
	dt := d.Sub(n.Scale(d.Dot(n)))
	rt := r.Sub(n.Scale(r.Dot(n)))
	if dt.Sub(rt).Norm() > 1e-12 {
		t.Fatalf("tangential component changed: %v vs %v", dt, rt)
	}
}

func TestExitKindString(t *testing.T) {
	for e, want := range map[ExitKind]string{
		ExitNone: "none", ExitTop: "top", ExitBottom: "bottom", ExitLateral: "lateral",
	} {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
}
