// Package cli holds the plumbing shared by the command-line tools:
// building a simulation Spec from flags, pretty-printing tallies, the
// logging flags, and the daemons' debug listener and signal drain.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
)

// SpecFlags collects the simulation-definition flags shared by mcsim and
// mcserver.
type SpecFlags struct {
	Model    string
	Source   string
	SrcParam float64
	Detector string
	DetSep   float64
	DetRad   float64
	RMin     float64
	RMax     float64
	GateMin  float64
	GateMax  float64
	Boundary string
	GridN    int
	GridEdge float64
	PathGrid bool
	AbsGrid  bool
}

// Register attaches the spec flags to fs.
func (sf *SpecFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&sf.Model, "model", "adult-head",
		"tissue model: adult-head | neonate | white-matter")
	fs.StringVar(&sf.Source, "source", "pencil",
		"source footprint: pencil | gaussian | uniform")
	fs.Float64Var(&sf.SrcParam, "source-param", 1.0,
		"source parameter (σ for gaussian, radius for uniform), mm")
	fs.StringVar(&sf.Detector, "detector", "all",
		"detector: all | disk | annulus")
	fs.Float64Var(&sf.DetSep, "det-sep", 10, "disk detector separation, mm")
	fs.Float64Var(&sf.DetRad, "det-radius", 2, "disk detector radius, mm")
	fs.Float64Var(&sf.RMin, "det-rmin", 5, "annulus inner radius, mm")
	fs.Float64Var(&sf.RMax, "det-rmax", 15, "annulus outer radius, mm")
	fs.Float64Var(&sf.GateMin, "gate-min", 0, "pathlength gate lower bound, mm (0 = open)")
	fs.Float64Var(&sf.GateMax, "gate-max", 0, "pathlength gate upper bound, mm (0 = open)")
	fs.StringVar(&sf.Boundary, "boundary", "probabilistic",
		"boundary physics: probabilistic | deterministic")
	fs.IntVar(&sf.GridN, "grid", 50, "scoring grid granularity N (N³ voxels)")
	fs.Float64Var(&sf.GridEdge, "grid-edge", 40, "scoring grid edge length, mm")
	fs.BoolVar(&sf.PathGrid, "path-grid", false,
		"score detected-photon path density (Fig 3 banana)")
	fs.BoolVar(&sf.AbsGrid, "abs-grid", false, "score absorbed weight per voxel")
}

// Build materialises the flags into a Spec.
func (sf *SpecFlags) Build() (*mc.Spec, error) {
	var model *tissue.Model
	switch sf.Model {
	case "adult-head":
		model = tissue.AdultHead()
	case "neonate":
		model = tissue.Neonate()
	case "white-matter":
		model = tissue.HomogeneousWhiteMatter()
	default:
		return nil, fmt.Errorf("unknown model %q", sf.Model)
	}

	src := source.Spec{Kind: source.Kind(sf.Source), Param: sf.SrcParam}

	det := detector.Spec{
		Kind: detector.Kind(sf.Detector),
		Gate: detector.Gate{MinPath: sf.GateMin, MaxPath: sf.GateMax},
	}
	switch det.Kind {
	case detector.KindDisk:
		det.CenterX, det.Radius = sf.DetSep, sf.DetRad
	case detector.KindAnnulus:
		det.RMin, det.RMax = sf.RMin, sf.RMax
	}

	spec := mc.NewSpec(model, src, det)
	switch sf.Boundary {
	case "probabilistic":
		spec.Boundary = mc.BoundaryProbabilistic
	case "deterministic":
		spec.Boundary = mc.BoundaryDeterministic
	default:
		return nil, fmt.Errorf("unknown boundary mode %q", sf.Boundary)
	}
	if sf.PathGrid {
		spec.PathGrid = &mc.GridSpec{N: sf.GridN, Edge: sf.GridEdge}
	}
	if sf.AbsGrid {
		spec.AbsGrid = &mc.GridSpec{N: sf.GridN, Edge: sf.GridEdge}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// PrintTally writes a human-readable run summary.
func PrintTally(w io.Writer, t *mc.Tally, model *tissue.Model) {
	fmt.Fprintf(w, "photons launched       %d\n", t.Launched)
	fmt.Fprintf(w, "specular reflectance   %.5f\n", t.SpecularReflectance())
	fmt.Fprintf(w, "diffuse reflectance    %.5f\n", t.DiffuseReflectance())
	fmt.Fprintf(w, "transmittance          %.5f\n", t.Transmittance())
	fmt.Fprintf(w, "absorbed fraction      %.5f\n", t.Absorbance())
	fmt.Fprintf(w, "energy balance         %.3g\n", t.EnergyBalance())
	fmt.Fprintf(w, "detected photons       %d (weight %.4f/photon)\n",
		t.DetectedCount, t.DetectedFraction())
	if t.DetectedCount > 0 {
		fmt.Fprintf(w, "mean pathlength        %.2f mm (±%.2f CI95)\n",
			t.PathStats.Mean(), t.PathStats.CI95())
		fmt.Fprintf(w, "mean optical path      %.2f mm\n", t.OptPathStats.Mean())
		fmt.Fprintf(w, "mean max depth         %.2f mm\n", t.DepthStats.Mean())
		fmt.Fprintf(w, "mean scatter events    %.0f\n", t.ScatterStats.Mean())
	}
	if t.GateRejected > 0 {
		fmt.Fprintf(w, "gate-rejected weight   %.4f/photon\n", t.GateRejected/t.N())
	}
	fmt.Fprintf(w, "\n%-14s %12s %12s %12s\n", "layer", "absorbed", "reached(n)", "entered(w)")
	for i, l := range model.Layers {
		fmt.Fprintf(w, "%-14s %12.5f %12d %12.5f\n",
			l.Name, t.LayerAbsorbed[i]/t.N(), t.LayerReached[i], t.PenetrationFraction(i))
	}
}

// Underline prints a section header.
func Underline(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
