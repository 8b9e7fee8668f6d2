package phomc

import (
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/mc"
	"repro/internal/optics"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/voxel"
)

// Core simulation types, re-exported from the kernel.
type (
	// Config fully describes one simulation run.
	Config = mc.Config
	// Tally holds every observable of a run; it merges associatively.
	Tally = mc.Tally
	// Spec is the serialisable form of a Config used by the wire protocol.
	Spec = mc.Spec
	// GridSpec requests a cubic scoring grid of N³ voxels over Edge mm.
	GridSpec = mc.GridSpec
	// HistSpec requests a pathlength histogram.
	HistSpec = mc.HistSpec
	// BoundaryMode selects probabilistic or deterministic (classical
	// splitting) boundary physics.
	BoundaryMode = mc.BoundaryMode
	// Observable names a headline scalar (diffuse, transmit, absorbed,
	// detected) whose uncertainty the moment accumulators track.
	Observable = mc.Observable
	// PrecisionTarget asks for run-until-precision execution: simulate
	// until the observable's relative standard error reaches RelErr.
	PrecisionTarget = mc.Target
	// Moments carries the chunk-level second moments behind the
	// precision machinery (Tally.Moments; nil unless Spec.TrackMoments).
	Moments = mc.Moments

	// Model is a layered tissue description.
	Model = tissue.Model
	// Layer is one homogeneous slab of a Model.
	Layer = tissue.Layer
	// Properties are a medium's optical properties (µa, µs, g, n).
	Properties = optics.Properties

	// Geometry is the medium abstraction the kernel traces through; the
	// layered Model (wrapped automatically by Config.Normalize) and the
	// heterogeneous VoxelGrid both implement it.
	Geometry = geom.Geometry
	// VoxelGrid is a heterogeneous voxelized medium: a 3-D label grid over
	// a table of optical media, traversed with DDA stepping. Assign one to
	// Config.Geometry (or build a Spec with NewVoxelSpec) to simulate
	// inclusions, tilted boundaries and other non-layered scenarios.
	VoxelGrid = voxel.Grid

	// Source launches photons onto the tissue surface.
	Source = source.Source
	// SourceSpec is the serialisable form of a Source.
	SourceSpec = source.Spec
	// Detector captures photons exiting the surface.
	Detector = detector.Detector
	// DetectorSpec is the serialisable form of a Detector plus its Gate.
	DetectorSpec = detector.Spec
	// Gate restricts detection to a pathlength window (gated differential
	// pathlengths).
	Gate = detector.Gate
)

// Boundary handling modes.
const (
	BoundaryProbabilistic = mc.BoundaryProbabilistic
	BoundaryDeterministic = mc.BoundaryDeterministic
)

// Precision-target observables.
const (
	ObsDiffuse  = mc.ObsDiffuse
	ObsTransmit = mc.ObsTransmit
	ObsAbsorbed = mc.ObsAbsorbed
	ObsDetected = mc.ObsDetected
)

// Run simulates n photons on a single RNG stream seeded with seed.
func Run(cfg *Config, n int64, seed uint64) (*Tally, error) {
	return mc.Run(cfg, n, seed)
}

// RunParallel splits n photons across `workers` jump-separated RNG streams
// (0 = GOMAXPROCS) and runs them on up to GOMAXPROCS cores; the merged
// tally depends on the stream count, never on the cores that ran it.
func RunParallel(cfg *Config, n int64, seed uint64, workers int) (*Tally, error) {
	return mc.RunParallel(cfg, n, seed, workers)
}

// RunStream computes chunk `stream` of `streams` independent chunks; merging
// all chunks reproduces exactly the same tally in any order.
func RunStream(cfg *Config, n int64, seed uint64, stream, streams int) (*Tally, error) {
	return mc.RunStream(cfg, n, seed, stream, streams)
}

// RunStreamFan computes chunk `stream` split across `fan` deterministic
// jump-separated sub-streams on all available cores; the tally depends on
// the fan width but never on the number of cores that executed it, and
// fan ≤ 1 is byte-identical to RunStream. This is what distributed workers
// run for jobs submitted with a Fan.
func RunStreamFan(cfg *Config, n int64, seed uint64, stream, streams, fan int) (*Tally, error) {
	return mc.RunStreamFan(cfg, n, seed, stream, streams, fan)
}

// RunAdaptive is the local run-until-precision loop: rounds of `workers`
// streams of `chunk` photons each until the target's relative standard
// error is met (or its MaxPhotons cap is reached). The result is a pure
// function of (cfg, tgt, seed, chunk, workers) and reports its estimate
// and confidence interval via Tally.EstimateCI.
func RunAdaptive(cfg *Config, tgt PrecisionTarget, seed uint64, chunk int64, workers int) (*Tally, error) {
	return mc.RunAdaptive(cfg, tgt, seed, chunk, workers)
}

// NewTally returns an empty tally shaped for cfg, ready to Merge into.
func NewTally(cfg *Config) *Tally { return mc.NewTally(cfg) }

// Tissue models.

// AdultHead returns the five-layer adult head model of the paper's Table 1
// (scalp, skull, CSF, grey matter, semi-infinite white matter).
func AdultHead() *Model { return tissue.AdultHead() }

// AdultHeadCustom returns the Table 1 model with chosen scalp and skull
// thicknesses (the table gives 3–10 mm and 5–10 mm ranges).
func AdultHeadCustom(scalpMM, skullMM float64) *Model {
	return tissue.AdultHeadCustom(scalpMM, skullMM)
}

// Neonate returns a neonatal head model with thinner superficial layers.
func Neonate() *Model { return tissue.Neonate() }

// HomogeneousWhiteMatter returns the semi-infinite white-matter phantom of
// the paper's Fig 3.
func HomogeneousWhiteMatter() *Model { return tissue.HomogeneousWhiteMatter() }

// HomogeneousSlab returns a single-layer slab with the given properties.
func HomogeneousSlab(name string, p Properties, thicknessMM float64) *Model {
	return tissue.HomogeneousSlab(name, p, thicknessMM)
}

// TransportProperties builds Properties from a transport scattering
// coefficient µs′ = µs(1−g), the form tissue tables usually report.
func TransportProperties(muSPrime, g, muA, n float64) Properties {
	return optics.FromTransport(muSPrime, g, muA, n)
}

// Voxel geometry.

// NewVoxelGrid returns a homogeneous nx×ny×nz voxel grid of dx×dy×dz mm
// voxels filled with the base medium, laterally centred on the source
// axis. Carve heterogeneity into it with AddMedium and the Paint helpers
// (PaintSphere, PaintBox, PaintSlab).
func NewVoxelGrid(name string, nx, ny, nz int, dx, dy, dz float64, baseName string, base Properties) *VoxelGrid {
	return voxel.New(name, nx, ny, nz, dx, dy, dz, baseName, base)
}

// VoxelizeModel voxelizes a layered model onto an nx×ny×nz grid of
// dx×dy×dz mm voxels — the starting point for embedding inclusions in the
// standard head models. When layer boundaries align with voxel planes the
// voxelization is geometrically exact inside the grid.
func VoxelizeModel(m *Model, nx, ny, nz int, dx, dy, dz float64) (*VoxelGrid, error) {
	return voxel.FromModel(m, nx, ny, nz, dx, dy, dz)
}

// NewVoxelSpec captures a serialisable voxel-geometry simulation for the
// wire protocol and distributed runs, the heterogeneous counterpart of
// NewSpec.
func NewVoxelSpec(g *VoxelGrid, src SourceSpec, det DetectorSpec) *Spec {
	return mc.NewVoxelSpec(g, src, det)
}

// Sources.

// PencilSource returns the delta (laser) source at the origin.
func PencilSource() Source { return source.Pencil{} }

// GaussianSource returns a Gaussian illumination footprint with the given
// per-axis standard deviation in mm.
func GaussianSource(sigmaMM float64) Source { return source.GaussianBeam{Sigma: sigmaMM} }

// UniformSource returns a flat circular illumination footprint with the
// given radius in mm.
func UniformSource(radiusMM float64) Source { return source.UniformDisk{Radius: radiusMM} }

// Detectors.

// DiskDetector returns a circular optode of the given radius centred at
// (separationMM, 0) on the surface.
func DiskDetector(separationMM, radiusMM float64) Detector {
	return detector.Disk{CenterX: separationMM, Radius: radiusMM}
}

// AnnulusDetector captures photons exiting at radial distance
// ρ ∈ [rMinMM, rMaxMM] from the source axis (all azimuths).
func AnnulusDetector(rMinMM, rMaxMM float64) Detector {
	return detector.Annulus{RMin: rMinMM, RMax: rMaxMM}
}

// SurfaceDetector captures every photon leaving the top surface.
func SurfaceDetector() Detector { return detector.All{} }
