package mc

import (
	"fmt"

	"repro/internal/detector"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// Spec is a fully serialisable simulation description: what the DataManager
// sends to worker clients. It contains only plain data (no interfaces), so
// it travels unchanged over encoding/gob (the worker protocol) and
// encoding/json (client submissions; the gateway→shard hop and the journal's
// accept records carry that JSON as a header with a voxel grid's labels raw
// behind it), and hashes through internal/canon into content keys. Exactly one of Model (layered
// slabs) or Voxel (heterogeneous voxel grid) describes the medium; when
// both are set the voxel grid wins.
type Spec struct {
	Model    tissue.Model
	Voxel    *voxel.Grid
	Source   source.Spec
	Detector detector.Spec
	Boundary BoundaryMode

	RouletteThreshold float64
	RouletteBoost     float64
	MaxEvents         int

	AbsGrid  *GridSpec
	PathGrid *GridSpec
	PathHist *HistSpec
	Radial   *HistSpec

	// TrackMoments enables chunk-level second-moment tracking
	// (Config.TrackMoments); precision-targeted jobs force it on. Content
	// keys hash it through internal/canon like every other field, and the
	// omitempty keeps the JSON of a job that never asked for moments as
	// short as it was.
	TrackMoments bool `json:",omitempty"`
}

// NewSpec captures a Config's serialisable parameters for a layered model.
// The Source and Detector must have been built from source.Spec /
// detector.Spec-expressible types; arbitrary user implementations cannot
// travel over the wire.
func NewSpec(model *tissue.Model, src source.Spec, det detector.Spec) *Spec {
	return &Spec{Model: *model, Source: src, Detector: det}
}

// NewVoxelSpec captures a serialisable description of a voxel-geometry
// simulation, the heterogeneous counterpart of NewSpec.
func NewVoxelSpec(g *voxel.Grid, src source.Spec, det detector.Spec) *Spec {
	return &Spec{Voxel: g, Source: src, Detector: det}
}

// Build materialises the Spec into a runnable Config.
func (s *Spec) Build() (*Config, error) {
	src, err := s.Source.New()
	if err != nil {
		return nil, err
	}
	det, err := s.Detector.New()
	if err != nil {
		return nil, err
	}
	cfg := &Config{
		Source:            src,
		Detector:          det,
		Gate:              s.Detector.Gate,
		Boundary:          s.Boundary,
		RouletteThreshold: s.RouletteThreshold,
		RouletteBoost:     s.RouletteBoost,
		MaxEvents:         s.MaxEvents,
		AbsGrid:           s.AbsGrid,
		PathGrid:          s.PathGrid,
		PathHist:          s.PathHist,
		Radial:            s.Radial,
		TrackMoments:      s.TrackMoments,
	}
	switch {
	case s.Voxel != nil:
		cfg.Geometry = s.Voxel
	case len(s.Model.Layers) > 0:
		model := s.Model // copy; layers slice is shared but never mutated
		cfg.Model = &model
	default:
		return nil, fmt.Errorf("mc: spec has neither a layered model nor a voxel grid")
	}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ValidateScoring checks only the scoring grids and histograms against
// their bounds (MaxGridN, MaxHistBins) — the cheap part of Validate, for an
// ingress that defers the full build but must refuse a tally it could
// never allocate or ship.
func (s *Spec) ValidateScoring() error {
	return validateScoring(s.AbsGrid, s.PathGrid, s.PathHist, s.Radial)
}

// Validate checks the Spec without building it.
func (s *Spec) Validate() error {
	if _, err := s.Build(); err != nil {
		return fmt.Errorf("mc: invalid spec: %w", err)
	}
	return nil
}
