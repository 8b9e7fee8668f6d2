package mc

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/stats"
)

// Tally accumulates every observable of a simulation. It is plain data
// (gob-serialisable) and merges associatively, so partial tallies computed
// by goroutines or remote workers reduce to exactly the same result in any
// order.
type Tally struct {
	// Launched is the number of photon packets launched.
	Launched int64

	// Weight bookkeeping; all weights are in units of launched packets.
	SpecularWeight float64 // reflected at the entry surface
	DiffuseWeight  float64 // escaped the top surface after entering (includes detected)
	TransmitWeight float64 // escaped the bottom of a finite medium
	AbsorbedWeight float64 // deposited in the tissue
	// LateralWeight is the weight escaping through the sides of a laterally
	// bounded geometry (voxel grids); layered slabs are laterally infinite
	// and never produce it.
	LateralWeight float64

	// RouletteGain/Loss record the weight created by roulette survival
	// boosts and destroyed by roulette kills. Exact per-run energy balance:
	// Launched + Gain − Loss = Specular + Diffuse + Transmit + Absorbed.
	RouletteGain float64
	RouletteLoss float64

	// Detection.
	DetectedCount  int64   // capture events (in deterministic mode a packet may split)
	DetectedWeight float64 // total detected weight
	GateRejected   float64 // weight that hit the detector but failed the pathlength gate

	// Detected-photon statistics: geometric pathlength (mm), optical
	// pathlength (Σ n·ds, mm), maximum depth (mm) and scattering events.
	PathStats    stats.Running
	OptPathStats stats.Running
	DepthStats   stats.Running
	ScatterStats stats.Running

	// Per-region observables, indexed by geometry region (layer index for
	// layered models, medium label for voxel grids). The field names keep
	// the layered-era "Layer" prefix for wire compatibility.
	LayerAbsorbed []float64 // absorbed weight per region
	// LayerReached[i] counts launched photons whose highest-indexed
	// excursion reached region i (each photon counted once). For layered
	// models and FromModel voxelizations region indices are depth-ordered,
	// so this is the deepest layer reached; for grids with appended
	// inclusion labels it is "highest label", and depth questions should
	// use DepthStats/maxZ instead. Counts are trajectory-based and only
	// physically meaningful in probabilistic boundary mode; use
	// LayerEnteredWeight for a mode-independent measure.
	LayerReached []int64
	// LayerEnteredWeight[i] accumulates the packet weight carried into
	// region i the first time each packet enters it (the launch region is
	// not counted) — for depth-ordered regions this is the
	// survival-weighted penetration probability, consistent across
	// boundary modes.
	LayerEnteredWeight []float64

	// Optional scoring structures (nil unless requested in the Config).
	AbsGrid  *grid.Grid3      // absorbed weight per voxel
	PathGrid *grid.Grid3      // detected-photon interaction sites per voxel
	PathHist *stats.Histogram // detected pathlength histogram
	Radial   *stats.Histogram // exit-radius histogram of all escaping photons

	// Moments, when Config.TrackMoments is set, carries the chunk-level
	// second moments of the headline observables — the uncertainty
	// estimate behind precision-targeted jobs. Nil on the legacy path,
	// which keeps every pre-moment encoding (compact wire frames,
	// journal snapshots, golden JSON) byte-identical.
	Moments *Moments `json:",omitempty"`
}

// NewTally returns a tally sized for the given configuration.
func NewTally(cfg *Config) *Tally {
	regions := 0
	switch {
	case cfg.Geometry != nil:
		regions = cfg.Geometry.NumRegions()
	case cfg.Model != nil:
		regions = cfg.Model.NumLayers()
	}
	t := &Tally{
		LayerAbsorbed:      make([]float64, regions),
		LayerReached:       make([]int64, regions),
		LayerEnteredWeight: make([]float64, regions),
	}
	if gs := cfg.AbsGrid; gs != nil {
		t.AbsGrid = grid.NewCube(gs.N, gs.Edge)
	}
	if gs := cfg.PathGrid; gs != nil {
		t.PathGrid = grid.NewCube(gs.N, gs.Edge)
	}
	if h := cfg.PathHist; h != nil {
		t.PathHist = stats.NewHistogram(h.Min, h.Max, h.Bins)
	}
	if h := cfg.Radial; h != nil {
		t.Radial = stats.NewHistogram(h.Min, h.Max, h.Bins)
	}
	return t
}

// Merge folds o into t. Both tallies must come from the same Config.
// Merging a tally into itself is rejected: the scalar sums would silently
// double while the loops below read o's slices as they mutate t's, leaving
// the tally internally inconsistent.
//
// Merge is atomic on error: every shape check (region counts, grid
// geometry, histogram geometry) runs before the first field is mutated,
// so a rejected merge leaves t untouched. The distributed reducer relies
// on this — it requeues a rejected batch's chunks for recompute, which
// would double-count if a failed Merge had already absorbed the scalars.
func (t *Tally) Merge(o *Tally) error {
	if t == o {
		return fmt.Errorf("mc: tally cannot be merged into itself")
	}
	if len(o.LayerAbsorbed) != len(t.LayerAbsorbed) {
		return fmt.Errorf("mc: merging tallies with %d vs %d layers",
			len(t.LayerAbsorbed), len(o.LayerAbsorbed))
	}
	if o.AbsGrid != nil && t.AbsGrid != nil && !t.AbsGrid.CompatibleWith(o.AbsGrid) {
		return fmt.Errorf("mc: merging tallies with incompatible absorption grids")
	}
	if o.PathGrid != nil && t.PathGrid != nil && !t.PathGrid.CompatibleWith(o.PathGrid) {
		return fmt.Errorf("mc: merging tallies with incompatible path grids")
	}
	if o.PathHist != nil && t.PathHist != nil &&
		(o.PathHist.Min != t.PathHist.Min || o.PathHist.Max != t.PathHist.Max ||
			len(o.PathHist.Counts) != len(t.PathHist.Counts)) {
		return fmt.Errorf("mc: merging tallies with incompatible path histograms")
	}
	if o.Radial != nil && t.Radial != nil &&
		(o.Radial.Min != t.Radial.Min || o.Radial.Max != t.Radial.Max ||
			len(o.Radial.Counts) != len(t.Radial.Counts)) {
		return fmt.Errorf("mc: merging tallies with incompatible radial histograms")
	}
	t.Launched += o.Launched
	t.SpecularWeight += o.SpecularWeight
	t.DiffuseWeight += o.DiffuseWeight
	t.TransmitWeight += o.TransmitWeight
	t.AbsorbedWeight += o.AbsorbedWeight
	t.LateralWeight += o.LateralWeight
	t.RouletteGain += o.RouletteGain
	t.RouletteLoss += o.RouletteLoss
	t.DetectedCount += o.DetectedCount
	t.DetectedWeight += o.DetectedWeight
	t.GateRejected += o.GateRejected
	t.PathStats.Merge(o.PathStats)
	t.OptPathStats.Merge(o.OptPathStats)
	t.DepthStats.Merge(o.DepthStats)
	t.ScatterStats.Merge(o.ScatterStats)
	if o.Moments != nil {
		if t.Moments == nil {
			t.Moments = &Moments{}
		}
		t.Moments.Merge(o.Moments)
	}
	for i := range o.LayerAbsorbed {
		t.LayerAbsorbed[i] += o.LayerAbsorbed[i]
	}
	for i := range o.LayerReached {
		t.LayerReached[i] += o.LayerReached[i]
	}
	for i := range o.LayerEnteredWeight {
		t.LayerEnteredWeight[i] += o.LayerEnteredWeight[i]
	}
	if o.AbsGrid != nil {
		if t.AbsGrid == nil {
			t.AbsGrid = o.AbsGrid.Clone()
		} else if err := t.AbsGrid.Merge(o.AbsGrid); err != nil {
			return err
		}
	}
	if o.PathGrid != nil {
		if t.PathGrid == nil {
			t.PathGrid = o.PathGrid.Clone()
		} else if err := t.PathGrid.Merge(o.PathGrid); err != nil {
			return err
		}
	}
	if o.PathHist != nil {
		if t.PathHist == nil {
			t.PathHist = o.PathHist.Clone()
		} else if err := t.PathHist.Merge(o.PathHist); err != nil {
			return err
		}
	}
	if o.Radial != nil {
		if t.Radial == nil {
			t.Radial = o.Radial.Clone()
		} else if err := t.Radial.Merge(o.Radial); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the tally: the copy shares no slice, grid,
// histogram or moment storage with t, and encodes (AppendTally) to the
// same bytes.
func (t *Tally) Clone() *Tally {
	cp := *t
	cp.LayerAbsorbed = append([]float64(nil), t.LayerAbsorbed...)
	cp.LayerReached = append([]int64(nil), t.LayerReached...)
	cp.LayerEnteredWeight = append([]float64(nil), t.LayerEnteredWeight...)
	if t.AbsGrid != nil {
		cp.AbsGrid = t.AbsGrid.Clone()
	}
	if t.PathGrid != nil {
		cp.PathGrid = t.PathGrid.Clone()
	}
	if t.PathHist != nil {
		cp.PathHist = t.PathHist.Clone()
	}
	if t.Radial != nil {
		cp.Radial = t.Radial.Clone()
	}
	if t.Moments != nil {
		m := *t.Moments
		cp.Moments = &m
	}
	return &cp
}

// RadialReflectance converts the exit-radius histogram into R(ρ) in mm⁻²
// per launched photon (weight per annulus area), returning the bin-centre
// radii and values. It returns nils when radial scoring was not enabled.
func (t *Tally) RadialReflectance() (rho, r []float64) {
	if t.Radial == nil {
		return nil, nil
	}
	n := len(t.Radial.Counts)
	rho = make([]float64, n)
	r = make([]float64, n)
	width := (t.Radial.Max - t.Radial.Min) / float64(n)
	for i, w := range t.Radial.Counts {
		c := t.Radial.BinCenter(i)
		rho[i] = c
		// Exact annulus area π(out²−in²) reduces to 2π·center·width.
		area := 2 * math.Pi * c * width
		if area > 0 {
			r[i] = w / (t.N() * area)
		}
	}
	return rho, r
}

// N returns the launched photon count as a float for normalisation.
func (t *Tally) N() float64 { return float64(t.Launched) }

// DiffuseReflectance returns the diffuse reflectance fraction Rd.
func (t *Tally) DiffuseReflectance() float64 { return t.DiffuseWeight / t.N() }

// Transmittance returns the transmitted fraction Tt.
func (t *Tally) Transmittance() float64 { return t.TransmitWeight / t.N() }

// Absorbance returns the absorbed fraction A.
func (t *Tally) Absorbance() float64 { return t.AbsorbedWeight / t.N() }

// SpecularReflectance returns the specular (entry) reflectance fraction.
func (t *Tally) SpecularReflectance() float64 { return t.SpecularWeight / t.N() }

// EnergyBalance returns (Specular+Diffuse+Transmit+Lateral+Absorbed) −
// (Launched + RouletteGain − RouletteLoss), which is zero up to floating
// point rounding for a correct kernel.
func (t *Tally) EnergyBalance() float64 {
	out := t.SpecularWeight + t.DiffuseWeight + t.TransmitWeight + t.LateralWeight + t.AbsorbedWeight
	in := t.N() + t.RouletteGain - t.RouletteLoss
	return out - in
}

// LateralFraction returns the fraction escaping through the sides of a
// laterally bounded geometry — a voxel-grid sizing diagnostic (enlarge the
// grid when it is non-negligible).
func (t *Tally) LateralFraction() float64 { return t.LateralWeight / t.N() }

// DetectedFraction returns the detected weight per launched photon.
func (t *Tally) DetectedFraction() float64 { return t.DetectedWeight / t.N() }

// MeanPathlength returns the mean geometric pathlength (mm) of detected
// photons — the differential pathlength of NIRS.
func (t *Tally) MeanPathlength() float64 { return t.PathStats.Mean() }

// DPF returns the differential pathlength factor: mean detected pathlength
// divided by the source–detector separation.
func (t *Tally) DPF(separationMM float64) float64 {
	if separationMM == 0 {
		return 0
	}
	return t.MeanPathlength() / separationMM
}

// ReachedFraction returns the fraction of launched photons whose deepest
// excursion reached at least the given layer index. Like LayerReached, it
// reads depth into region indices and is meaningful for depth-ordered
// regions (layered models, FromModel voxelizations without inclusions).
func (t *Tally) ReachedFraction(layer int) float64 {
	var n int64
	for i := layer; i < len(t.LayerReached); i++ {
		n += t.LayerReached[i]
	}
	return float64(n) / t.N()
}

// PenetrationFraction returns the survival-weighted probability that a
// launched photon's packet reaches the given layer — the Fig 4 observable
// ("some photons penetrate all the way into the white matter").
func (t *Tally) PenetrationFraction(layer int) float64 {
	if layer < 0 || layer >= len(t.LayerEnteredWeight) {
		return 0
	}
	if layer == 0 {
		return (t.N() - t.SpecularWeight) / t.N()
	}
	return t.LayerEnteredWeight[layer] / t.N()
}
