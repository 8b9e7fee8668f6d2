package tissue

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/optics"
)

func TestAdultHeadMatchesTable1(t *testing.T) {
	m := AdultHead()
	if err := m.Validate(); err != nil {
		t.Fatalf("AdultHead invalid: %v", err)
	}
	if m.NumLayers() != 5 {
		t.Fatalf("layers = %d, want 5", m.NumLayers())
	}
	want := []struct {
		name     string
		musPrime float64
		mua      float64
	}{
		{"scalp", 1.9, 0.018},
		{"skull", 1.6, 0.016},
		{"csf", 0.25, 0.004},
		{"grey matter", 2.2, 0.036},
		{"white matter", 9.1, 0.014},
	}
	for i, w := range want {
		l := m.Layers[i]
		if l.Name != w.name {
			t.Errorf("layer %d name %q, want %q", i, l.Name, w.name)
		}
		if got := l.Props.MuSPrime(); math.Abs(got-w.musPrime) > 1e-9 {
			t.Errorf("%s µs′ = %g, want %g", w.name, got, w.musPrime)
		}
		if l.Props.MuA != w.mua {
			t.Errorf("%s µa = %g, want %g", w.name, l.Props.MuA, w.mua)
		}
	}
	if !math.IsInf(m.Layers[4].Thickness, 1) {
		t.Error("white matter should be semi-infinite")
	}
}

func TestBoundaries(t *testing.T) {
	m := AdultHead() // 3, 7, 2, 4, ∞
	wantZ := []float64{0, 3, 10, 12, 16}
	for i, w := range wantZ {
		if got := m.Boundary(i); got != w {
			t.Errorf("Boundary(%d) = %g, want %g", i, got, w)
		}
	}
	if !math.IsInf(m.Boundary(5), 1) {
		t.Error("bottom boundary of semi-infinite stack should be +Inf")
	}
	if !math.IsInf(m.TotalThickness(), 1) {
		t.Error("TotalThickness should be +Inf")
	}
}

func TestLayerAt(t *testing.T) {
	m := AdultHead()
	cases := []struct {
		z    float64
		want int
	}{
		{-0.1, -1},
		{0, 0}, {2.9, 0},
		{3, 1}, {9.9, 1},
		{10, 2}, {11.9, 2},
		{12, 3}, {15.9, 3},
		{16, 4}, {1000, 4},
	}
	for _, c := range cases {
		if got := m.LayerAt(c.z); got != c.want {
			t.Errorf("LayerAt(%g) = %d, want %d", c.z, got, c.want)
		}
	}
}

func TestLayerAtBelowFiniteStack(t *testing.T) {
	m := HomogeneousSlab("s", optics.Properties{MuA: 1, MuS: 1, N: 1.4}, 5)
	if got := m.LayerAt(5.1); got != 1 {
		t.Fatalf("LayerAt below stack = %d, want NumLayers()", got)
	}
}

func TestIndexAboveBelow(t *testing.T) {
	m := AdultHead()
	if m.IndexAbove(0) != m.NAbove {
		t.Error("IndexAbove(0) should be ambient")
	}
	if m.IndexAbove(2) != m.Layers[1].Props.N {
		t.Error("IndexAbove(2) should be skull index")
	}
	if m.IndexBelow(1) != m.Layers[2].Props.N {
		t.Error("IndexBelow(1) should be CSF index")
	}
	if m.IndexBelow(4) != m.NBelow {
		t.Error("IndexBelow(last) should be terminating index")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	cases := []*Model{
		{Name: "empty", NAbove: 1, NBelow: 1},
		{Name: "bad-ambient", NAbove: 0.5, NBelow: 1,
			Layers: []Layer{{Name: "l", Props: optics.Properties{N: 1.4}, Thickness: 1}}},
		{Name: "zero-thickness", NAbove: 1, NBelow: 1,
			Layers: []Layer{{Name: "l", Props: optics.Properties{N: 1.4}, Thickness: 0}}},
		{Name: "inner-infinite", NAbove: 1, NBelow: 1,
			Layers: []Layer{
				{Name: "a", Props: optics.Properties{N: 1.4}, Thickness: math.Inf(1)},
				{Name: "b", Props: optics.Properties{N: 1.4}, Thickness: 1},
			}},
		{Name: "bad-props", NAbove: 1, NBelow: 1,
			Layers: []Layer{{Name: "l", Props: optics.Properties{MuA: -1, N: 1.4}, Thickness: 1}}},
	}
	for _, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("model %q accepted, want error", m.Name)
		}
	}
}

func TestAdultHeadCustom(t *testing.T) {
	m := AdultHeadCustom(5, 9)
	if m.Layers[0].Thickness != 5 || m.Layers[1].Thickness != 9 {
		t.Fatalf("custom thicknesses not applied: %g, %g",
			m.Layers[0].Thickness, m.Layers[1].Thickness)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNeonateThinnerThanAdult(t *testing.T) {
	a, n := AdultHead(), Neonate()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Depth to grey matter must be smaller for the neonate.
	if n.Boundary(3) >= a.Boundary(3) {
		t.Fatalf("neonate grey-matter depth %g not below adult %g",
			n.Boundary(3), a.Boundary(3))
	}
}

func TestHomogeneousWhiteMatter(t *testing.T) {
	m := HomogeneousWhiteMatter()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumLayers() != 1 {
		t.Fatalf("layers = %d, want 1", m.NumLayers())
	}
	if got := m.Layers[0].Props.MuSPrime(); math.Abs(got-9.1) > 1e-9 {
		t.Fatalf("white matter µs′ = %g", got)
	}
}

// TestLayerJSON pins Layer's JSON form: the semi-infinite layer of the
// paper's head model round-trips as "+Inf" (encoding/json alone refuses
// it), a finite thickness is still the plain number it always was, and a
// typoed field is refused even though Layer decodes itself.
func TestLayerJSON(t *testing.T) {
	blob, err := json.Marshal(AdultHead())
	if err != nil {
		t.Fatalf("AdultHead does not marshal: %v", err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, AdultHead()) {
		t.Fatalf("AdultHead changed in transit:\n%s", blob)
	}
	if !math.IsInf(back.Layers[4].Thickness, 1) {
		t.Fatalf("white matter thickness %g, want +Inf", back.Layers[4].Thickness)
	}

	finite, err := json.Marshal(Layer{Name: "scalp", Props: ScalpProps, Thickness: 3})
	if err != nil {
		t.Fatal(err)
	}
	type plain Layer // Layer's fields without its methods: the default encoding
	want, err := json.Marshal(plain{Name: "scalp", Props: ScalpProps, Thickness: 3})
	if err != nil {
		t.Fatal(err)
	}
	if string(finite) != string(want) {
		t.Fatalf("finite layer encodes as %s, want the default %s", finite, want)
	}

	var l Layer
	if err := json.Unmarshal([]byte(`{"Name":"x","Thicknes":3}`), &l); err == nil {
		t.Fatal("typoed layer field accepted")
	}
	if _, err := json.Marshal(Layer{Thickness: math.Inf(-1)}); err == nil {
		t.Fatal("-Inf thickness marshalled")
	}
}
