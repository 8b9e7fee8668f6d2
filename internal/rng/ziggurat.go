package rng

import "math"

// Exponential free-path sampling is the single hottest RNG draw in the
// transport kernel (one per scattering event), so it uses the ziggurat
// method of Marsaglia & Tsang ("The Ziggurat Method for Generating Random
// Variables", JSS 2000) instead of -log(ξ): ~98.9% of draws resolve with
// one 64-bit draw, a table lookup, a multiply and a compare; the remaining
// draws fall through to an exact rejection test or the analytic tail. The
// method samples the exponential distribution exactly (up to float64
// rounding and the 2^32 position grid within a strip); it is not an
// approximation.
//
// The tables are rebuilt at init time in float64 from the published layer
// constants, so there is no precision loss against the textbook float32
// tables.
const (
	// zigR is the start of the analytic tail: the x-coordinate of the
	// bottom strip for a 256-layer exponential ziggurat.
	zigR = 7.69711747013104972
	// zigV is the common area of each of the 256 layers.
	zigV = 3.9496598225815571993e-3
)

var (
	zigKe [256]uint32  // quick-accept thresholds: accept x when j < zigKe[i]
	zigWe [256]float64 // strip x-scale: x = j·zigWe[i] for a 32-bit j
	zigFe [256]float64 // strip density floor: exp(-x_i)
)

func init() {
	const m2 = 1 << 32
	de, te := zigR, zigR
	q := zigV / math.Exp(-de)
	zigKe[0] = uint32((de / q) * m2)
	zigKe[1] = 0
	zigWe[0] = q / m2
	zigWe[255] = de / m2
	zigFe[0] = 1
	zigFe[255] = math.Exp(-de)
	for i := 254; i >= 1; i-- {
		de = -math.Log(zigV/de + math.Exp(-de))
		zigKe[i+1] = uint32((de / te) * m2)
		te = de
		zigFe[i] = math.Exp(-de)
		zigWe[i] = de / m2
	}
}

// Step returns a dimensionless exponential free-path sample (unit rate).
// Dividing by the interaction coefficient µt yields a geometric step length.
func (r *Rand) Step() float64 {
	u := r.Uint64()
	if x, ok := StepFast(u); ok {
		return x
	}
	return r.StepTail(u)
}

// StepFast is Step's quick accept on its first draw u: the sample and
// whether it is accepted without further draws (about 98.9 % of draws).
// A loop that draws from a local State calls it inline and only hands a
// rejected u to StepTail.
func StepFast(u uint64) (x float64, ok bool) {
	j := uint32(u >> 32) // strip position: 32 independent bits
	i := u & 0xFF        // strip index: independent of the position bits
	// Below zigKe the sample lies in the part of the strip that is
	// entirely below the density.
	return float64(j) * zigWe[i], j < zigKe[i]
}

// StepTail finishes a Step whose first draw u StepFast rejected, drawing
// from r exactly as Step would have.
func (r *Rand) StepTail(u uint64) float64 {
	for {
		x, ok := StepFast(u)
		if ok {
			return x
		}
		i := u & 0xFF
		if i == 0 {
			// Bottom strip: the region beyond zigR is the analytic
			// exponential tail.
			return zigR - math.Log(r.Float64Open())
		}
		if zigFe[i]+r.Float64()*(zigFe[i-1]-zigFe[i]) < math.Exp(-x) {
			return x
		}
		u = r.Uint64()
	}
}

// AzimuthUnit returns a uniformly distributed random unit 2-vector
// (cos φ, sin φ) via Marsaglia polar rejection — no trigonometric calls,
// unlike Azimuth followed by math.Sincos. The angle 2θ of a point (u, v)
// uniform in the unit disk is uniform on [0, 2π), and its cosine/sine are
// rational in u, v. One 64-bit draw provides both coordinates (32 bits
// each — ample for an azimuth); the expected cost is 4/π draws.
func (r *Rand) AzimuthUnit() (cosPhi, sinPhi float64) {
	for {
		if c, s, ok := AzimuthTry(r.Uint64()); ok {
			return c, s
		}
	}
}

// AzimuthTry is one round of AzimuthUnit's rejection on the 64 bits of one
// draw: the unit vector, and whether the draw was accepted.
func AzimuthTry(bits uint64) (cosPhi, sinPhi float64, ok bool) {
	const scale = 1.0 / (1 << 31)
	u := float64(int32(bits>>32)) * scale // [-1, 1)
	v := float64(int32(bits)) * scale
	s := u*u + v*v
	if s > 0 && s < 1 {
		inv := 1 / s
		return (u*u - v*v) * inv, 2 * u * v * inv, true
	}
	return 0, 0, false
}
