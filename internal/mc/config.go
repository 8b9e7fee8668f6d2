// Package mc implements the Monte Carlo photon-transport kernel of the
// paper (Fig 1 pseudocode): photon packets hop through a layered tissue
// model, drop weight to absorption, spin into new directions via the
// Henyey–Greenstein phase function, refract or internally reflect at layer
// boundaries, and are captured by a surface detector. It also provides
// Runner, which runs independent RNG streams one per core, each on a kernel
// built for it, and merges them in a fixed order, so a tally never depends
// on the core count.
package mc

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/source"
	"repro/internal/tissue"
)

// Geometry is the medium abstraction the kernel traces through; see
// repro/internal/geom. The layered slab model and the heterogeneous voxel
// grid (repro/internal/voxel) both implement it.
type Geometry = geom.Geometry

// BoundaryMode selects how refraction/internal reflection is handled at
// layer boundaries — the paper supports "classical physics or probabilistic
// methods".
type BoundaryMode int

const (
	// BoundaryProbabilistic samples the Fresnel reflectance: the whole
	// packet reflects with probability R, otherwise refracts (MCML default).
	BoundaryProbabilistic BoundaryMode = iota
	// BoundaryDeterministic splits the packet classically: weight·(1−R)
	// refracts and weight·R continues as a reflected sub-packet.
	BoundaryDeterministic
)

// String implements fmt.Stringer.
func (m BoundaryMode) String() string {
	switch m {
	case BoundaryProbabilistic:
		return "probabilistic"
	case BoundaryDeterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("BoundaryMode(%d)", int(m))
	}
}

// GridSpec describes a cubic scoring grid of N³ voxels spanning Edge mm —
// the paper's "user defined granularity of results" (e.g. N = 50).
type GridSpec struct {
	N    int
	Edge float64 // physical edge length in mm
}

// HistSpec describes a uniform histogram over [Min, Max) with Bins bins.
type HistSpec struct {
	Min, Max float64
	Bins     int
}

// Bounds on the scoring structures a job may ask for, declared once: spec
// validation refuses more at ingress (before NewTally sizes anything on
// the shard or a worker), and the tally codec refuses to decode more, so
// nothing that is accepted computes chunks the result plane then rejects.
// A grid at the bound is 2²⁴ cells — 128 MiB of float64 per tally.
const (
	MaxGridN    = 256
	MaxHistBins = 1 << 20
)

// validateScoring checks the optional scoring structures of a Config or a
// Spec against their shapes and bounds.
func validateScoring(abs, path *GridSpec, pathHist, radial *HistSpec) error {
	for _, g := range []*GridSpec{abs, path} {
		switch {
		case g == nil:
		case g.N <= 0 || g.Edge <= 0:
			return fmt.Errorf("mc: bad grid spec %+v", *g)
		case g.N > MaxGridN:
			return fmt.Errorf("mc: scoring grid N=%d exceeds the limit of %d per edge", g.N, MaxGridN)
		}
	}
	for _, h := range []*HistSpec{pathHist, radial} {
		switch {
		case h == nil:
		case h.Bins <= 0 || h.Max <= h.Min:
			return fmt.Errorf("mc: bad histogram spec %+v", *h)
		case h.Bins > MaxHistBins:
			return fmt.Errorf("mc: histogram with %d bins exceeds the limit of %d", h.Bins, MaxHistBins)
		}
	}
	return nil
}

// Default kernel parameters (the standard MCML choices).
const (
	DefaultRouletteThreshold = 1e-4
	DefaultRouletteBoost     = 10
	DefaultMaxEvents         = 1_000_000
	// maxSplitDepth bounds the sub-packet stack in deterministic boundary
	// mode; deeper splits fall back to probabilistic sampling.
	maxSplitDepth = 64
)

// Config fully describes one simulation. The zero value is not usable; set
// at least Model (or Geometry) and Source, then call Normalize.
type Config struct {
	// Model is the layered slab description; Normalize wraps it in the
	// layered Geometry fast path when Geometry is nil.
	Model *tissue.Model
	// Geometry, when set, overrides Model as the traced medium — any
	// geom.Geometry implementation, e.g. a heterogeneous *voxel.Grid.
	Geometry Geometry
	Source   source.Source

	// Detector captures photons exiting the top surface; nil means the
	// entire surface. Gate optionally restricts capture by pathlength.
	Detector detector.Detector
	Gate     detector.Gate

	Boundary BoundaryMode

	// RouletteThreshold is the packet weight below which Russian roulette
	// is played; survivors are boosted by RouletteBoost.
	RouletteThreshold float64
	RouletteBoost     float64

	// MaxEvents bounds interaction events per photon as a safety net.
	MaxEvents int

	// AbsGrid, if non-nil, scores absorbed weight per voxel.
	AbsGrid *GridSpec
	// PathGrid, if non-nil, scores the interaction sites of *detected*
	// photons per voxel — the spatial sensitivity profile whose thresholded
	// rendering is the Fig 3 banana.
	PathGrid *GridSpec
	// PathHist, if non-nil, histograms detected-photon pathlengths (mm).
	PathHist *HistSpec
	// Radial, if non-nil, histograms the exit radius of every photon
	// escaping the top surface — the diffuse reflectance profile R(ρ)
	// used to compare against diffusion theory.
	Radial *HistSpec

	// TrackMoments makes every runner record chunk-level second moments
	// of the headline observables (Tally.Moments) — one weighted sample
	// per stream or fan sub-stream — enabling on-line standard-error
	// estimates and run-until-precision termination. Off by default: the
	// legacy path's tallies, and therefore its golden fixtures, cache
	// keys and wire bytes, are unchanged.
	TrackMoments bool

	// Hot-path tables, built by Normalize and read-only afterwards: the
	// per-region optical table every kernel indexes instead of calling
	// Geometry.Props per event, and the devirtualised layered fast path
	// (nil for voxel/custom geometries, which trace through the Geometry
	// interface).
	opt []regionOpt
	lay *layeredGeom
}

// Normalize fills defaults and validates the configuration.
func (c *Config) Normalize() error {
	if c.Geometry == nil {
		if c.Model == nil {
			return fmt.Errorf("mc: config has no tissue model or geometry")
		}
		c.Geometry = geom.Layered{M: c.Model}
	}
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	c.opt = buildRegionTable(c.Geometry)
	c.lay = nil
	if l, ok := c.Geometry.(geom.Layered); ok {
		c.lay = buildLayeredGeom(l)
	}
	if c.Source == nil {
		c.Source = source.Pencil{}
	}
	if c.Detector == nil {
		c.Detector = detector.All{}
	}
	if err := c.Gate.Validate(); err != nil {
		return err
	}
	if c.RouletteThreshold == 0 {
		c.RouletteThreshold = DefaultRouletteThreshold
	}
	if c.RouletteThreshold < 0 || c.RouletteThreshold >= 1 {
		return fmt.Errorf("mc: roulette threshold %g outside (0,1)", c.RouletteThreshold)
	}
	if c.RouletteBoost == 0 {
		c.RouletteBoost = DefaultRouletteBoost
	}
	if c.RouletteBoost <= 1 {
		return fmt.Errorf("mc: roulette boost %g must exceed 1", c.RouletteBoost)
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.MaxEvents < 1 {
		return fmt.Errorf("mc: max events %d must be positive", c.MaxEvents)
	}
	return validateScoring(c.AbsGrid, c.PathGrid, c.PathHist, c.Radial)
}
