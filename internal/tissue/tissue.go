// Package tissue describes layered slab tissue models: a stack of
// horizontally infinite layers below the z = 0 surface, each with its own
// optical properties, as used by the paper's adult-head simulations.
package tissue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/optics"
)

// Layer is one homogeneous slab. Thickness is in mm; the last layer of a
// model may be infinitely thick (math.Inf(1)).
type Layer struct {
	Name      string
	Props     optics.Properties
	Thickness float64
}

// layerJSON is Layer's JSON form. encoding/json refuses infinities, which
// made the paper's own semi-infinite head model unsubmittable over HTTP;
// an infinite thickness travels as the string "+Inf" instead, every finite
// one as the plain number it always was.
type layerJSON struct {
	Name      string
	Props     optics.Properties
	Thickness thicknessJSON
}

type thicknessJSON float64

func (t thicknessJSON) MarshalJSON() ([]byte, error) {
	if math.IsInf(float64(t), 1) {
		return []byte(`"+Inf"`), nil
	}
	return json.Marshal(float64(t))
}

func (t *thicknessJSON) UnmarshalJSON(data []byte) error {
	if string(data) == `"+Inf"` {
		*t = thicknessJSON(math.Inf(1))
		return nil
	}
	return json.Unmarshal(data, (*float64)(t))
}

// MarshalJSON implements json.Marshaler.
func (l Layer) MarshalJSON() ([]byte, error) {
	return json.Marshal(layerJSON{l.Name, l.Props, thicknessJSON(l.Thickness)})
}

// UnmarshalJSON implements json.Unmarshaler. Unknown fields are refused:
// a custom unmarshaler does not inherit the caller's
// DisallowUnknownFields, and the job API relies on it to reject typos.
func (l *Layer) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var v layerJSON
	if err := dec.Decode(&v); err != nil {
		return err
	}
	*l = Layer{v.Name, v.Props, float64(v.Thickness)}
	return nil
}

// Model is a stack of layers. Layer 0 starts at z = 0 and the stack extends
// in +z. NAbove and NBelow are the refractive indices of the media outside
// the slab (air above the scalp, and whatever terminates a finite stack).
type Model struct {
	Name   string
	Layers []Layer
	NAbove float64
	NBelow float64
}

// NumLayers returns the number of tissue layers.
func (m *Model) NumLayers() int { return len(m.Layers) }

// Boundary returns the depth z of boundary i, where boundary 0 is the
// surface (z = 0) and boundary i is the bottom of layer i−1. A semi-infinite
// final layer yields +Inf for the last boundary.
func (m *Model) Boundary(i int) float64 {
	z := 0.0
	for j := 0; j < i && j < len(m.Layers); j++ {
		z += m.Layers[j].Thickness
	}
	return z
}

// TotalThickness returns the stack depth, possibly +Inf.
func (m *Model) TotalThickness() float64 { return m.Boundary(len(m.Layers)) }

// LayerAt returns the index of the layer containing depth z, or −1 above the
// surface and NumLayers() below a finite stack.
func (m *Model) LayerAt(z float64) int {
	if z < 0 {
		return -1
	}
	bottom := 0.0
	for i, l := range m.Layers {
		bottom += l.Thickness
		if z < bottom {
			return i
		}
	}
	return len(m.Layers)
}

// IndexAbove returns the refractive index on the shallow side of layer i:
// the ambient index for the first layer, otherwise layer i−1's index.
func (m *Model) IndexAbove(i int) float64 {
	if i <= 0 {
		return m.NAbove
	}
	return m.Layers[i-1].Props.N
}

// IndexBelow returns the refractive index on the deep side of layer i:
// layer i+1's index, or the terminating ambient index for the last layer.
func (m *Model) IndexBelow(i int) float64 {
	if i >= len(m.Layers)-1 {
		return m.NBelow
	}
	return m.Layers[i+1].Props.N
}

// Validate reports the first structural problem with the model.
func (m *Model) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("tissue: model %q has no layers", m.Name)
	}
	if m.NAbove < 1 || m.NBelow < 1 {
		return fmt.Errorf("tissue: model %q ambient refractive index below 1", m.Name)
	}
	for i, l := range m.Layers {
		if err := l.Props.Validate(); err != nil {
			return fmt.Errorf("tissue: model %q layer %d (%s): %w", m.Name, i, l.Name, err)
		}
		if l.Thickness <= 0 {
			return fmt.Errorf("tissue: model %q layer %d (%s): non-positive thickness %g",
				m.Name, i, l.Name, l.Thickness)
		}
		if math.IsInf(l.Thickness, 1) && i != len(m.Layers)-1 {
			return fmt.Errorf("tissue: model %q layer %d (%s): only the last layer may be semi-infinite",
				m.Name, i, l.Name)
		}
	}
	return nil
}
