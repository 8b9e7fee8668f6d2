package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %g outside [0,1)", v)
		}
	}
}

func TestFloat64OpenNeverZero(t *testing.T) {
	r := New(2)
	for i := 0; i < 100000; i++ {
		v := r.Float64Open()
		if v <= 0 || v > 1 {
			t.Fatalf("Float64Open() = %g outside (0,1]", v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("same seed diverged at step %d: %d vs %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs in 100 draws", same)
	}
}

func TestUniformMean(t *testing.T) {
	r := New(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %g too far from 0.5", mean)
	}
}

func TestJumpStreamsDisjoint(t *testing.T) {
	// After a jump, the streams must not share any nearby outputs.
	a := New(7)
	b := New(7)
	b.Jump()
	seen := make(map[uint64]bool, 10000)
	for i := 0; i < 10000; i++ {
		seen[a.Uint64()] = true
	}
	for i := 0; i < 10000; i++ {
		if seen[b.Uint64()] {
			t.Fatalf("jumped stream collided with base stream at step %d", i)
		}
	}
}

func TestNewStreamsIndependentAndReproducible(t *testing.T) {
	s1 := NewStreams(99, 4)
	s2 := NewStreams(99, 4)
	for i := range s1 {
		for j := 0; j < 100; j++ {
			if s1[i].Uint64() != s2[i].Uint64() {
				t.Fatalf("stream %d not reproducible at draw %d", i, j)
			}
		}
	}
	// Distinct streams differ.
	s3 := NewStreams(99, 2)
	if s3[0].Uint64() == s3[1].Uint64() {
		t.Fatal("adjacent streams produced identical first draw")
	}
}

func TestSplit(t *testing.T) {
	parent := New(5)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draw")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) bucket %d has skewed count %d", i, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestStepPositive(t *testing.T) {
	r := New(13)
	for i := 0; i < 100000; i++ {
		if s := r.Step(); s <= 0 || math.IsInf(s, 1) || math.IsNaN(s) {
			t.Fatalf("Step() = %g not a positive finite value", s)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean %g, want ≈0.5", mean)
	}
}

func TestGaussianMoments(t *testing.T) {
	r := New(19)
	const n = 400000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		g := r.Gaussian()
		sum += g
		sum2 += g * g
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("Gaussian mean %g, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Gaussian variance %g, want ≈1", variance)
	}
}

// Property: the Henyey–Greenstein sampler's mean cosine equals g, its
// defining property, for any anisotropy in (-1, 1).
func TestHenyeyGreensteinMeanCosine(t *testing.T) {
	f := func(seed uint64, graw float64) bool {
		g := math.Mod(math.Abs(graw), 0.95)
		if math.IsNaN(g) {
			return true
		}
		for _, sign := range []float64{+1, -1} {
			gg := sign * g
			r := New(seed)
			const n = 150000
			sum := 0.0
			for i := 0; i < n; i++ {
				c := r.HenyeyGreenstein(gg)
				if c < -1 || c > 1 {
					return false
				}
				sum += c
			}
			if math.Abs(sum/n-gg) > 0.02 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 8}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHenyeyGreensteinIsotropic(t *testing.T) {
	r := New(23)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.HenyeyGreenstein(0)
	}
	if math.Abs(sum/n) > 0.01 {
		t.Fatalf("isotropic HG mean cosine %g, want ≈0", sum/n)
	}
}

func TestAzimuthRange(t *testing.T) {
	r := New(29)
	for i := 0; i < 100000; i++ {
		if phi := r.Azimuth(); phi < 0 || phi >= 2*math.Pi {
			t.Fatalf("Azimuth() = %g outside [0,2π)", phi)
		}
	}
}

func TestUniformDiskInDisk(t *testing.T) {
	r := New(31)
	const radius = 2.5
	sumR2 := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		x, y := r.UniformDisk(radius)
		r2 := x*x + y*y
		if r2 > radius*radius*(1+1e-12) {
			t.Fatalf("UniformDisk point (%g,%g) outside radius %g", x, y, radius)
		}
		sumR2 += r2
	}
	// E[r²] for a uniform disk is R²/2.
	if got, want := sumR2/n, radius*radius/2; math.Abs(got-want)/want > 0.02 {
		t.Fatalf("UniformDisk E[r²] = %g, want ≈%g", got, want)
	}
}

func TestGaussianDiskMoments(t *testing.T) {
	r := New(37)
	const sigma = 1.5
	const n = 200000
	sumX, sumX2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		x, _ := r.GaussianDisk(sigma)
		sumX += x
		sumX2 += x * x
	}
	mean := sumX / n
	sd := math.Sqrt(sumX2/n - mean*mean)
	if math.Abs(mean) > 0.02 || math.Abs(sd-sigma)/sigma > 0.02 {
		t.Fatalf("GaussianDisk mean=%g sd=%g, want 0 and %g", mean, sd, sigma)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkHenyeyGreenstein(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.HenyeyGreenstein(0.9)
	}
}

// TestFanSeedDerivationPinned pins the sub-stream derivation of the
// distributed fan-out: FanSeed and the first output of each FanStreams
// sub-stream are part of the reproducibility contract (a fanned chunk tally
// is a pure function of seed, stream index and fan width). If this test
// fails, the change silently invalidates every fanned tally and cache entry
// produced so far — bump the service cache key derivation instead of
// updating the constants casually.
func TestFanSeedDerivationPinned(t *testing.T) {
	pins := []struct {
		seed   uint64
		stream int
		want   uint64
	}{
		{0, 0, 0xe6b847134f41df3c},
		{42, 0, 0xf9316fbbb3212da4},
		{42, 1, 0xfeb1b1b7e01f4969},
		{42, 7, 0x7ee3a7e8533d5148},
		{0xdeadbeef, 3, 0xdb480212ab17c4b1},
	}
	for _, p := range pins {
		if got := FanSeed(p.seed, p.stream); got != p.want {
			t.Errorf("FanSeed(%#x, %d) = %#016x, want %#016x", p.seed, p.stream, got, p.want)
		}
	}

	firsts := []uint64{
		0x4f459652d7489feb,
		0x18724774abdb3b74,
		0xb3fb1e1d0a605b9e,
		0xa54053b9fe829f91,
	}
	for i, r := range FanStreams(42, 3, 4) {
		if got := r.Uint64(); got != firsts[i] {
			t.Errorf("FanStreams(42,3,4)[%d] first output %#016x, want %#016x", i, got, firsts[i])
		}
	}
}

// TestFanStreamsJumpSeparated checks sub-streams are the sub-master seed's
// jump sequence (so they never overlap each other) and distinct across
// chunk stream indices.
func TestFanStreamsJumpSeparated(t *testing.T) {
	subs := FanStreams(7, 2, 3)
	for i, s := range subs {
		base := New(FanSeed(7, 2))
		for j := 0; j < i; j++ {
			base.Jump()
		}
		want := base.Uint64()
		if got := s.Uint64(); got != want {
			t.Fatalf("sub-stream %d is not the sub-master jumped %d times: %#x vs %#x", i, i, got, want)
		}
	}
	if FanSeed(7, 2) == FanSeed(7, 3) || FanSeed(7, 2) == FanSeed(8, 2) {
		t.Fatal("fan seeds collide across adjacent streams/seeds")
	}
}

// TestFanSeedOffMasterSequence guards the domain separation of the fan
// derivation: fan sub-master seeds must not land on the master seed's own
// splitmix64 sequence (they would equal the master generator's state
// words), and offsetting the seed by the splitmix64 increment must not
// shift one seed's fan onto another's.
func TestFanSeedOffMasterSequence(t *testing.T) {
	const goldenRatio = 0x9e3779b97f4a7c15
	for seed := uint64(0); seed < 8; seed++ {
		master := New(seed)
		for stream := 0; stream < 8; stream++ {
			fs := FanSeed(seed, stream)
			for w, s := range [4]uint64{master.s.s0, master.s.s1, master.s.s2, master.s.s3} {
				if fs == s {
					t.Fatalf("FanSeed(%d,%d) equals master state word %d", seed, stream, w)
				}
			}
		}
	}
	for k := 1; k < 6; k++ {
		if FanSeed(42, k) == FanSeed(42+goldenRatio, k-1) {
			t.Fatalf("FanSeed aliases across golden-ratio-shifted seeds at stream %d", k)
		}
	}
}

// TestStreamCacheMatchesJumpDerivation checks cached stream states are
// bit-identical to the canonical jump derivation, in ascending, random and
// repeated access order.
func TestStreamCacheMatchesJumpDerivation(t *testing.T) {
	const seed = 99
	want := func(i int) uint64 {
		r := New(seed)
		for j := 0; j < i; j++ {
			r.Jump()
		}
		return r.Uint64()
	}
	c := NewStreamCache(seed)
	for _, i := range []int{7, 0, 3, 7, 12, 1, 12} {
		if got := c.Stream(i).Uint64(); got != want(i) {
			t.Fatalf("cached stream %d first output %#x, want %#x", i, got, want(i))
		}
	}
	// Streams must be independent copies: draining one does not disturb
	// another.
	a, b := c.Stream(2), c.Stream(2)
	a.Uint64()
	if a.Uint64() == b.Uint64() {
		t.Fatal("cache handed out aliased generator state")
	}
}

// TestStreamCacheBeyondBound checks streams around and past the cache's
// bound of maxCachedStreamStates: each equals the master jumped i times,
// asked in mixed order, and ascending streams past the bound cost one jump
// each (the cursor), not one per stream from the last cached state.
func TestStreamCacheBeyondBound(t *testing.T) {
	const seed = 5
	const lo, hi = maxCachedStreamStates - 3, maxCachedStreamStates + 6
	want := make(map[int]uint64)
	r := New(seed)
	for i := 0; i <= hi; i++ {
		if i >= lo {
			cp := *r
			want[i] = cp.Uint64()
		}
		r.Jump()
	}
	c := NewStreamCache(seed)
	for _, i := range []int{hi - 1, lo, hi, maxCachedStreamStates, maxCachedStreamStates - 1, hi - 3, hi - 2, hi, lo + 1, hi - 1} {
		if got := c.Stream(i).Uint64(); got != want[i] {
			t.Fatalf("stream %d first output %#x, want %#x", i, got, want[i])
		}
	}

	c = NewStreamCache(seed)
	c.Stream(maxCachedStreamStates - 1) // fills the cache
	const k = 5
	before := c.jumps
	for i := maxCachedStreamStates; i < maxCachedStreamStates+k; i++ {
		if got := c.Stream(i).Uint64(); got != want[i] {
			t.Fatalf("stream %d first output %#x, want %#x", i, got, want[i])
		}
	}
	if n := c.jumps - before; n != k {
		t.Fatalf("%d ascending streams past the cache cost %d jumps, want %d", k, n, k)
	}
}
