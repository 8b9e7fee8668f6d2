package mc

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Observable names a headline scalar a simulation can be steered by: the
// per-photon quantities whose uncertainty the chunk-level moment
// accumulators track.
type Observable string

const (
	// ObsDiffuse is the diffuse reflectance fraction Rd.
	ObsDiffuse Observable = "diffuse"
	// ObsTransmit is the transmitted fraction Tt.
	ObsTransmit Observable = "transmit"
	// ObsAbsorbed is the absorbed fraction A.
	ObsAbsorbed Observable = "absorbed"
	// ObsDetected is the detected weight per launched photon.
	ObsDetected Observable = "detected"
)

// Valid reports whether the observable names a tracked quantity.
func (o Observable) Valid() bool {
	switch o {
	case ObsDiffuse, ObsTransmit, ObsAbsorbed, ObsDetected:
		return true
	}
	return false
}

// Moments holds the chunk-level second moments behind run-until-precision
// termination. Every completed chunk (for fanned chunks: every sub-stream)
// contributes one weighted sample per observable — x = the chunk's
// per-photon value, weighted by the chunk's photon count — so any partial
// reduction of a job's chunks yields an unbiased batch-means estimate of
// the observable and of its standard error, in any merge order.
//
// Moments are plain data and merge additively like every other tally
// field. A nil Moments (the fixed-count legacy path) keeps the tally's
// compact-codec encoding byte-identical to pre-moment builds.
type Moments struct {
	Diffuse  stats.Running
	Transmit stats.Running
	Absorbed stats.Running
	Detected stats.Running
}

// running returns the accumulator for obs, or nil for an unknown name.
func (m *Moments) running(obs Observable) *stats.Running {
	switch obs {
	case ObsDiffuse:
		return &m.Diffuse
	case ObsTransmit:
		return &m.Transmit
	case ObsAbsorbed:
		return &m.Absorbed
	case ObsDetected:
		return &m.Detected
	}
	return nil
}

// Merge folds o into m.
func (m *Moments) Merge(o *Moments) {
	m.Diffuse.Merge(o.Diffuse)
	m.Transmit.Merge(o.Transmit)
	m.Absorbed.Merge(o.Absorbed)
	m.Detected.Merge(o.Detected)
}

// RecordChunkMoments folds this tally's headline observables into its
// moment accumulators as one weighted sample per observable. It must be
// called exactly once per leaf tally — a single-stream chunk or one fan
// sub-stream — after its photons have run and before the tally is merged
// anywhere; the runners do this when Config.TrackMoments is set. A tally
// with zero launched photons records nothing.
func (t *Tally) RecordChunkMoments() {
	if t.Launched == 0 {
		return
	}
	if t.Moments == nil {
		t.Moments = &Moments{}
	}
	n := float64(t.Launched)
	t.Moments.Diffuse.Add(t.DiffuseWeight/n, n)
	t.Moments.Transmit.Add(t.TransmitWeight/n, n)
	t.Moments.Absorbed.Add(t.AbsorbedWeight/n, n)
	t.Moments.Detected.Add(t.DetectedWeight/n, n)
}

// momentRSE is the batch-means relative standard error of one accumulator:
// the Bessel-corrected spread of the chunk means over √N chunks, relative
// to the weighted mean. Chunks of a tracked job all carry the same photon
// count, so the equal-weight form is exact up to the final ragged chunk of
// a fixed-count job. +Inf when fewer than two chunks have landed or the
// estimate is zero (a zero-mean observable never converges in relative
// terms — the min-photon floor and max-photon cap bound such jobs).
func momentRSE(r *stats.Running) float64 {
	if r.N < 2 {
		return math.Inf(1)
	}
	mean := r.Mean()
	if mean == 0 {
		return math.Inf(1)
	}
	n := float64(r.N)
	se := r.StdDev() * math.Sqrt(n/(n-1)) / math.Sqrt(n)
	return math.Abs(se / mean)
}

// RelStdErr returns the estimated relative standard error of the named
// observable from the chunk-level moments, or +Inf when moments were not
// tracked, fewer than two chunks have reduced, or the estimate is zero.
func (t *Tally) RelStdErr(obs Observable) float64 {
	if t.Moments == nil {
		return math.Inf(1)
	}
	r := t.Moments.running(obs)
	if r == nil {
		return math.Inf(1)
	}
	return momentRSE(r)
}

// EstimateCI returns the moment-based estimate of the named observable and
// the half-width of its normal-approximation 95% confidence interval.
// The estimate equals the tally's direct ratio (e.g. DiffuseReflectance)
// up to rounding: both are the chunk-weight-summed observable over the
// launched photons. ci95 is +Inf while RelStdErr is.
func (t *Tally) EstimateCI(obs Observable) (estimate, ci95 float64) {
	if t.Moments == nil {
		return 0, math.Inf(1)
	}
	r := t.Moments.running(obs)
	if r == nil || r.SumW == 0 {
		return 0, math.Inf(1)
	}
	estimate = r.Mean()
	rse := momentRSE(r)
	if math.IsInf(rse, 1) {
		return estimate, math.Inf(1)
	}
	return estimate, 1.96 * rse * math.Abs(estimate)
}

// Target asks for run-until-precision execution: keep simulating chunks
// until the named observable's relative standard error drops to RelErr,
// subject to a photon floor and budget cap. It replaces a fixed
// TotalPhotons — the standard Monte Carlo stopping rule.
type Target struct {
	// Observable selects the steering quantity; empty means diffuse
	// reflectance.
	Observable Observable `json:"observable,omitempty"`
	// RelErr is the required relative standard error, in (0, 1).
	RelErr float64 `json:"relErr"`
	// MinPhotons is the floor simulated before the first RSE test. Too low
	// a floor stops on optimistically small early variance estimates (the
	// stopping rule's classic bias); the service defaults it to several
	// chunks' worth.
	MinPhotons int64 `json:"minPhotons,omitempty"`
	// MaxPhotons caps the run: the job finishes (reporting its achieved
	// RSE) once this many photons have been simulated even if the target
	// was not met. Zero means no cap at the mc level; the service applies
	// its own default cap.
	MaxPhotons int64 `json:"maxPhotons,omitempty"`
}

// Normalize fills defaults and validates the target.
func (tgt *Target) Normalize() error {
	if tgt.Observable == "" {
		tgt.Observable = ObsDiffuse
	}
	if !tgt.Observable.Valid() {
		return fmt.Errorf("mc: unknown target observable %q", tgt.Observable)
	}
	if tgt.RelErr <= 0 || tgt.RelErr >= 1 {
		return fmt.Errorf("mc: target relative error %g outside (0,1)", tgt.RelErr)
	}
	if tgt.MinPhotons < 0 || tgt.MaxPhotons < 0 {
		return fmt.Errorf("mc: negative photon bounds %d/%d", tgt.MinPhotons, tgt.MaxPhotons)
	}
	if tgt.MaxPhotons > 0 && tgt.MaxPhotons < tgt.MinPhotons {
		return fmt.Errorf("mc: target max photons %d below min %d", tgt.MaxPhotons, tgt.MinPhotons)
	}
	return nil
}

// MetBy reports whether the tally satisfies the target: at least
// MinPhotons launched and the observable's RSE at or below RelErr.
func (tgt *Target) MetBy(t *Tally) bool {
	return t.Launched >= tgt.MinPhotons && t.RelStdErr(tgt.Observable) <= tgt.RelErr
}
