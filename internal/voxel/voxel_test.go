package voxel

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/optics"
	"repro/internal/tissue"
	"repro/internal/vec"
)

func testProps() optics.Properties {
	return optics.Properties{MuA: 0.02, MuS: 10, G: 0.9, N: 1.4}
}

func TestNewGridValid(t *testing.T) {
	g := New("box", 10, 12, 8, 1, 1, 0.5, "base", testProps())
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumRegions() != 1 {
		t.Fatalf("NumRegions = %d", g.NumRegions())
	}
	if g.Width() != 10 || g.Height() != 12 || g.Depth() != 4 {
		t.Fatalf("extent = %g x %g x %g", g.Width(), g.Height(), g.Depth())
	}
	// Laterally centred on the source axis.
	if g.X0 != -5 || g.Y0 != -6 {
		t.Fatalf("corner = (%g, %g)", g.X0, g.Y0)
	}
	if g.RegionName(0) != "base" {
		t.Fatalf("RegionName(0) = %q", g.RegionName(0))
	}
}

func TestValidateCatchesBadGrids(t *testing.T) {
	base := testProps()
	bad := []*Grid{
		{Name: "dims", Nx: 0, Ny: 1, Nz: 1, Dx: 1, Dy: 1, Dz: 1},
		func() *Grid {
			g := New("labels", 2, 2, 2, 1, 1, 1, "b", base)
			g.Labels = g.Labels[:3]
			return g
		}(),
		func() *Grid {
			g := New("label-range", 2, 2, 2, 1, 1, 1, "b", base)
			g.Labels[0] = 7
			return g
		}(),
		func() *Grid {
			g := New("names", 2, 2, 2, 1, 1, 1, "b", base)
			g.MediaNames = nil
			return g
		}(),
		func() *Grid {
			g := New("ambient", 2, 2, 2, 1, 1, 1, "b", base)
			g.NAbove = 0.5
			return g
		}(),
		func() *Grid {
			g := New("media", 2, 2, 2, 1, 1, 1, "b", base)
			g.Media[0].MuA = -1
			return g
		}(),
	}
	for _, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("grid %q: Validate accepted invalid grid", g.Name)
		}
	}
}

func TestFromModelLabelsMatchLayers(t *testing.T) {
	m := tissue.AdultHead()
	g, err := FromModel(m, 40, 40, 60, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if g.NumRegions() != m.NumLayers() {
		t.Fatalf("NumRegions = %d, want %d", g.NumRegions(), m.NumLayers())
	}
	// Every voxel centre's label matches the model's layer at that depth.
	for k := 0; k < g.Nz; k++ {
		_, _, z := g.Center(0, 0, k)
		want := m.LayerAt(z)
		if got := g.LabelAt(3.2, -7.1, z); got != want {
			t.Fatalf("label at z=%g is %d, want layer %d", z, got, want)
		}
	}
	// Truncating the semi-infinite white matter must not introduce a
	// bottom Fresnel interface.
	if g.NBelow != tissue.WhiteMatterProps.N {
		t.Fatalf("NBelow = %g, want white-matter index", g.NBelow)
	}
	if g.NAbove != m.NAbove {
		t.Fatalf("NAbove = %g, want %g", g.NAbove, m.NAbove)
	}
}

func TestFromModelFiniteStackBottom(t *testing.T) {
	m := tissue.HomogeneousSlab("slab", testProps(), 5)
	// Grid deeper than the 5 mm stack: bottom sits in the ambient below.
	g, err := FromModel(m, 10, 10, 20, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NBelow != m.NBelow {
		t.Fatalf("NBelow = %g, want model ambient %g", g.NBelow, m.NBelow)
	}
	// Depth rows past the stack pad with the deepest layer.
	if got := g.LabelAt(0, 0, 9.9); got != 0 {
		t.Fatalf("pad label = %d", got)
	}
}

func TestFromModelRejectsBadInput(t *testing.T) {
	m := tissue.AdultHead()
	if _, err := FromModel(m, 0, 10, 10, 1, 1, 1); err == nil {
		t.Error("accepted zero dimension")
	}
	if _, err := FromModel(m, 10, 10, 10, -1, 1, 1); err == nil {
		t.Error("accepted negative voxel size")
	}
	if _, err := FromModel(&tissue.Model{}, 10, 10, 10, 1, 1, 1); err == nil {
		t.Error("accepted invalid model")
	}
}

func TestPainters(t *testing.T) {
	g := New("paint", 20, 20, 20, 1, 1, 1, "base", testProps())
	inc, err := g.AddMedium("inclusion", optics.Properties{MuA: 1, MuS: 5, G: 0.8, N: 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if inc != 1 {
		t.Fatalf("label = %d, want 1", inc)
	}

	n := g.PaintSphere(inc, 0, 0, 10, 4)
	if n == 0 {
		t.Fatal("sphere painted no voxels")
	}
	// Sphere volume ≈ (4/3)π·4³ ≈ 268 voxels of 1 mm³.
	if n < 200 || n > 340 {
		t.Fatalf("sphere painted %d voxels, want ≈268", n)
	}
	if got := g.LabelAt(0, 0, 10); got != inc {
		t.Fatalf("sphere centre label = %d", got)
	}
	if got := g.LabelAt(9, 9, 1); got != 0 {
		t.Fatalf("far corner label = %d", got)
	}
	if vf := g.VolumeFraction(inc); math.Abs(vf-float64(n)/8000) > 1e-12 {
		t.Fatalf("VolumeFraction = %g", vf)
	}

	g2 := New("box", 20, 20, 20, 1, 1, 1, "base", testProps())
	b, _ := g2.AddMedium("box", testProps())
	nb := g2.PaintBox(b, -2, -2, 2, 2, 2, 6)
	if nb != 4*4*4 {
		t.Fatalf("box painted %d voxels, want 64", nb)
	}

	// A tilted slab through the grid centre paints roughly
	// thickness/depth of the volume and touches different depths at the
	// two lateral extremes.
	g3 := New("slab", 20, 20, 20, 1, 1, 1, "base", testProps())
	sl, _ := g3.AddMedium("tilted", testProps())
	ns := g3.PaintSlab(sl, vec.V{Z: 10}, vec.V{X: 0.2, Z: 1}, 2)
	if ns == 0 {
		t.Fatal("slab painted no voxels")
	}
	left := -1
	right := -1
	for k := 0; k < g3.Nz; k++ {
		_, _, z := g3.Center(0, 0, k)
		if g3.LabelAt(g3.X0+0.5, 0, z) == sl && left < 0 {
			left = k
		}
		if g3.LabelAt(-g3.X0-0.5, 0, z) == sl && right < 0 {
			right = k
		}
	}
	if left < 0 || right < 0 || left == right {
		t.Fatalf("tilted slab not tilted: first labelled depth rows %d and %d", left, right)
	}

	if err := g3.Validate(); err != nil {
		t.Fatalf("painted grid invalid: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := New("orig", 4, 4, 4, 1, 1, 1, "base", testProps())
	inc, _ := g.AddMedium("inc", testProps())
	cp := g.Clone()
	cp.PaintSphere(inc, 0, 0, 2, 1.2)
	if g.VolumeFraction(inc) != 0 {
		t.Fatal("painting the clone mutated the original")
	}
}

func TestToBoundaryHomogeneousCrossesWholeGrid(t *testing.T) {
	g := New("homog", 10, 10, 10, 1, 1, 1, "base", testProps())
	// Straight down from the surface: one DDA call spans all ten same-label
	// voxels and exits the bottom.
	s, hit, _ := g.ToBoundary(vec.V{}, vec.V{Z: 1}, 0, math.Inf(1))
	if math.Abs(s-10) > 1e-9 {
		t.Fatalf("distance = %g, want 10", s)
	}
	if hit.Exit != geom.ExitBottom {
		t.Fatalf("exit = %v, want bottom", hit.Exit)
	}
	if hit.N2 != g.NBelow {
		t.Fatalf("N2 = %g", hit.N2)
	}

	// Upwards from inside: exit through the top.
	s, hit, _ = g.ToBoundary(vec.V{Z: 3.5}, vec.V{Z: -1}, 0, math.Inf(1))
	if math.Abs(s-3.5) > 1e-9 {
		t.Fatalf("distance = %g, want 3.5", s)
	}
	if hit.Exit != geom.ExitTop {
		t.Fatalf("exit = %v, want top", hit.Exit)
	}
	if hit.N2 != g.NAbove {
		t.Fatalf("top N2 = %g", hit.N2)
	}

	// Sideways: lateral escape at the +x face.
	s, hit, _ = g.ToBoundary(vec.V{X: 1.25, Z: 5}, vec.V{X: 1}, 0, math.Inf(1))
	if math.Abs(s-3.75) > 1e-9 {
		t.Fatalf("lateral distance = %g, want 3.75", s)
	}
	if hit.Exit != geom.ExitLateral {
		t.Fatalf("exit = %v, want lateral", hit.Exit)
	}
	// Side walls are index-matched to the local medium (no spurious TIR
	// recycling lateral flux back into the grid).
	if hit.N2 != testProps().N {
		t.Fatalf("lateral N2 = %g, want local medium index %g", hit.N2, testProps().N)
	}
}

func TestToBoundaryStopsAtLabelChange(t *testing.T) {
	g := New("two", 10, 10, 10, 1, 1, 1, "top", testProps())
	bottom, _ := g.AddMedium("bottom", optics.Properties{MuA: 0.1, MuS: 1, G: 0, N: 1.6})
	g.PaintBox(bottom, g.X0, g.Y0, 4, -g.X0, -g.Y0, 10)

	s, hit, _ := g.ToBoundary(vec.V{Z: 0.5}, vec.V{Z: 1}, 0, math.Inf(1))
	if math.Abs(s-3.5) > 1e-9 {
		t.Fatalf("distance = %g, want 3.5", s)
	}
	if hit.Exit != geom.ExitNone || hit.Next != bottom {
		t.Fatalf("hit = %+v, want crossing into %d", hit, bottom)
	}
	if hit.N2 != 1.6 {
		t.Fatalf("N2 = %g, want 1.6", hit.N2)
	}
	if hit.Normal.Dot(vec.V{Z: 1}) >= 0 {
		t.Fatalf("normal %v not against travel", hit.Normal)
	}

	// From exactly on the interface heading back up: the nudge attributes
	// the packet to the upper medium and the next change is the top face.
	s, hit, _ = g.ToBoundary(vec.V{Z: 4}, vec.V{Z: -1}, 0, math.Inf(1))
	if math.Abs(s-4) > 1e-9 || hit.Exit != geom.ExitTop {
		t.Fatalf("up from interface: s=%g hit=%+v", s, hit)
	}
}

func TestToBoundaryDiagonalDistance(t *testing.T) {
	g := New("diag", 10, 10, 10, 1, 1, 1, "base", testProps())
	inc, _ := g.AddMedium("inc", testProps())
	// Single labelled voxel at (i,j,k) = (7,5,5): x ∈ [2,3), z ∈ [0.. wait
	// world x of voxel 7 is X0+7 = 2 → [2,3); z of k=5 is [5,6).
	g.Labels[g.Index(7, 5, 5)] = uint8(inc)

	// Ray from (0, 0.1, 5.5) along +x hits the voxel's -x face at x=2.
	s, hit, _ := g.ToBoundary(vec.V{X: 0, Y: 0.1, Z: 5.5}, vec.V{X: 1}, 0, math.Inf(1))
	if math.Abs(s-2) > 1e-9 {
		t.Fatalf("distance = %g, want 2", s)
	}
	if hit.Next != inc || hit.Exit != geom.ExitNone {
		t.Fatalf("hit = %+v", hit)
	}

	// A 45° ray in the x–z plane: distances scale by √2. From
	// (-1.5, 0.1, 4.0) the path misses the labelled voxel (at x = 2 it has
	// z = 7.5, outside [5,6)) and the bottom face (z axis travel 6.0) wins
	// over the +x side (axis travel 6.5), so the ray exits the bottom
	// after a path of 6√2.
	d := vec.V{X: 1, Z: 1}.Normalize()
	s, hit, _ = g.ToBoundary(vec.V{X: -1.5, Y: 0.1, Z: 4.0}, d, 0, math.Inf(1))
	if math.Abs(s-6*math.Sqrt2) > 1e-9 {
		t.Fatalf("diagonal distance = %g, want %g", s, 6*math.Sqrt2)
	}
	if hit.Exit != geom.ExitBottom {
		t.Fatalf("diagonal hit = %+v, want bottom exit", hit)
	}
}

func TestRegionAtOutsideIsNegative(t *testing.T) {
	g := New("outside", 4, 4, 4, 1, 1, 1, "base", testProps())
	// Points beyond the footprint report -1 so launches there are scored
	// as lateral loss rather than traced down the edge column.
	for _, p := range []vec.V{{X: -100}, {X: 100, Y: 100, Z: 100}, {Z: -5}} {
		if r := g.RegionAt(p); r != -1 {
			t.Errorf("RegionAt(%v) = %d, want -1", p, r)
		}
	}
	// The entry surface and interior resolve normally.
	for _, p := range []vec.V{{}, {X: 1.5, Y: -1.5}, {Z: 3.9}} {
		if r := g.RegionAt(p); r != 0 {
			t.Errorf("RegionAt(%v) = %d, want 0", p, r)
		}
	}
	if !g.InsideGrid(0, 0, 1) || g.InsideGrid(100, 0, 1) {
		t.Error("InsideGrid misclassifies")
	}
}

func TestGridGobRoundTrip(t *testing.T) {
	g, err := FromModel(tissue.AdultHead(), 16, 16, 32, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	inc, _ := g.AddMedium("tumour", optics.Properties{MuA: 0.3, MuS: 10, G: 0.9, N: 1.4})
	g.PaintSphere(inc, 0, 0, 14, 5)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		t.Fatal(err)
	}
	var got Grid
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded grid invalid: %v", err)
	}
	if got.NumRegions() != g.NumRegions() || len(got.Labels) != len(g.Labels) {
		t.Fatalf("decoded shape mismatch")
	}
	for i := range g.Labels {
		if g.Labels[i] != got.Labels[i] {
			t.Fatalf("label %d changed", i)
		}
	}
}

func TestMinVoxel(t *testing.T) {
	g := New("mv", 2, 2, 2, 1, 0.25, 0.5, "b", testProps())
	if g.MinVoxel() != 0.25 {
		t.Fatalf("MinVoxel = %g", g.MinVoxel())
	}
}

// perturb changes v, whatever plain-data kind it is, to a value unequal to
// the one it held.
func perturb(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "'")
	case reflect.Int:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8:
		v.SetUint(v.Uint() ^ 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Struct:
		perturb(t, v.Field(v.NumField()-1))
	case reflect.Slice:
		perturb(t, v.Index(v.Len()-1))
	default:
		t.Fatalf("no perturbation for kind %s: teach perturb, and Equal, the new field", v.Kind())
	}
}

// TestEqualComparesEveryField: Equal decides which grids the registry and a
// worker session fold into one, so a field it ignored would let two
// different media share a label array. Each exported field is changed in
// turn — for a slice, its last element — and Equal must notice; a field
// added to Grid later fails here until Equal compares it.
func TestEqualComparesEveryField(t *testing.T) {
	mk := func() *Grid {
		g := New("box", 4, 3, 2, 1, 1, 0.5, "base", testProps())
		g.Media = append(g.Media, optics.Properties{MuA: 0.1, MuS: 5, G: 0.8, N: 1.37})
		g.MediaNames = append(g.MediaNames, "inclusion")
		g.Labels[g.Index(1, 1, 1)] = 1
		return g
	}
	a := mk()
	if !a.Equal(a) || !a.Equal(mk()) || a.Equal(nil) || (*Grid)(nil).Equal(a) {
		t.Fatal("Equal is wrong about identical, rebuilt or nil grids")
	}
	typ := reflect.TypeOf(Grid{})
	for i := 0; i < typ.NumField(); i++ {
		if !typ.Field(i).IsExported() {
			continue
		}
		b := mk()
		perturb(t, reflect.ValueOf(b).Elem().Field(i))
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("Equal ignores %s", typ.Field(i).Name)
		}
	}
	short := mk()
	short.Labels = short.Labels[:len(short.Labels)-1]
	if a.Equal(short) {
		t.Error("Equal ignores the length of Labels")
	}
}
