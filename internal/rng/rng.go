// Package rng provides a deterministic, splittable pseudo-random number
// generator for Monte Carlo photon transport.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded through
// splitmix64. It supports Jump (2^128 steps) so that a single master seed
// can be fanned out into many provably non-overlapping streams, one per
// worker, making parallel runs exactly reproducible and independent of the
// number of workers used.
package rng

import "math/bits"

// Rand is a xoshiro256** generator. It is not safe for concurrent use;
// create one stream per goroutine with NewStreams or Split.
type Rand struct {
	s State

	// Box–Muller produces pairs; cache the spare value.
	gaussReady bool
	gaussSpare float64
}

// splitmix64 advances the given state and returns the next value. It is the
// recommended seeding procedure for xoshiro generators: it guarantees the
// xoshiro state is never all-zero and decorrelates nearby seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *Rand {
	sm := seed
	s := State{splitmix64(&sm), splitmix64(&sm), splitmix64(&sm), splitmix64(&sm)}
	// The all-zero state is invalid for xoshiro; splitmix64 cannot produce
	// four consecutive zeros, but keep the guard for clarity.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return &Rand{s: s}
}

// NewStreams returns n independent generators derived from a single master
// seed. Stream i is the master generator jumped forward i times by 2^128
// steps, so streams never overlap for any realistic workload.
func NewStreams(seed uint64, n int) []*Rand {
	streams := make([]*Rand, n)
	base := New(seed)
	for i := 0; i < n; i++ {
		cp := &Rand{s: base.s}
		streams[i] = cp
		base.Jump()
	}
	return streams
}

// Split returns a new generator 2^128 steps ahead of r, and advances r by the
// same amount, so successive Split calls yield non-overlapping streams.
func (r *Rand) Split() *Rand {
	cp := &Rand{s: r.s}
	r.Jump()
	return cp
}

// FanSeed derives the sub-stream master seed for fanning one chunk stream
// across several cores. The formula is part of the distributed
// reproducibility contract — a chunk tally computed with fan f is a pure
// function of (seed, stream, f), independent of which worker computes it —
// and is pinned by TestFanSeedDerivationPinned; changing it silently would
// change every fanned tally in the wild.
//
// The derivation finalizes the master seed once, xors in the stream index
// scaled by a constant distinct from splitmix64's golden-ratio increment,
// and finalizes again. The inner finalize keeps FanSeed off the master
// seed's own splitmix64 sequence for every (seed, stream) — a plain
// seed + k·increment offset would make fan sub-master seeds collide
// exactly with the master generator's state words and with other seeds'
// fans at shifted stream indices.
func FanSeed(seed uint64, stream int) uint64 {
	s := seed
	mixed := splitmix64(&s)
	s = mixed ^ (0x94d049bb133111eb * (uint64(stream) + 1))
	return splitmix64(&s)
}

// StreamCache lazily materialises the jump-separated stream states of one
// master seed. Serving stream i costs max(0, i−highest served) jumps
// instead of i, so a worker computing many chunks of one job — in any
// order — pays for each jump once instead of re-deriving every stream
// from scratch (the old per-chunk cost was O(stream), a quadratic total
// that dominated small-chunk jobs). Stream(i) returns exactly the state
// New(seed) jumped i times, so cached and uncached derivations are
// bit-identical. Not safe for concurrent use.
type StreamCache struct {
	states []State
	// cursor is the last stream served beyond the cache, stream cursorAt
	// (0: none yet), so that ascending streams past the cache cost one
	// jump each instead of one per stream from the last cached state.
	cursor   State
	cursorAt int
	jumps    int // jumps made, for tests
}

// maxCachedStreamStates bounds the cache memory (32 B per stream); a
// pathological million-chunk job falls back to jumping from the cursor or
// the last cached state instead of growing without bound.
const maxCachedStreamStates = 1 << 16

// NewStreamCache returns a cache over the master seed's stream sequence.
func NewStreamCache(seed uint64) *StreamCache {
	return &StreamCache{states: []State{New(seed).s}}
}

// Stream returns a fresh generator positioned at stream i (the master
// jumped i times). It panics on a negative index.
func (c *StreamCache) Stream(i int) *Rand {
	if i < 0 {
		panic("rng: negative stream index")
	}
	for len(c.states) <= i && len(c.states) < maxCachedStreamStates {
		c.states = append(c.states, c.jump(c.states[len(c.states)-1]))
	}
	if i < len(c.states) {
		return &Rand{s: c.states[i]}
	}
	from, s := len(c.states)-1, c.states[len(c.states)-1]
	if c.cursorAt != 0 && c.cursorAt <= i {
		from, s = c.cursorAt, c.cursor
	}
	for ; from < i; from++ {
		s = c.jump(s)
	}
	c.cursor, c.cursorAt = s, i
	return &Rand{s: s}
}

// jump returns s jumped once.
func (c *StreamCache) jump(s State) State {
	c.jumps++
	r := Rand{s: s}
	r.Jump()
	return r.s
}

// FanStreams returns fan jump-separated sub-streams for one chunk of a
// distributed job: the sub-master seed is derived deterministically from
// the chunk's stream index via FanSeed, then fanned with NewStreams, so
// sub-stream i is the sub-master jumped forward i times by 2^128 steps.
// Sub-streams of one chunk never overlap each other; collisions with the
// top-level chunk streams (seeded differently) are probabilistically
// excluded by the 2^256 xoshiro state space.
func FanStreams(seed uint64, stream, fan int) []*Rand {
	return NewStreams(FanSeed(seed, stream), fan)
}

// State is the generator's four state words held by value. A loop that
// keeps it in a local steps it with Next, so its draws compile inline and
// the words stay in registers; Rand.State and Rand.SetState move it in and
// out of a Rand.
type State struct{ s0, s1, s2, s3 uint64 }

// Next is one xoshiro256** step: the next 64 uniformly distributed bits and
// the advanced state. Rand.Uint64 is this step on the Rand's own state.
func (s State) Next() (uint64, State) {
	out := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return out, s
}

// State returns the generator's state words.
func (r *Rand) State() State { return r.s }

// SetState positions the generator at s, as returned by State or Next.
func (r *Rand) SetState(s State) { r.s = s }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	out, s := r.s.Next()
	r.s = s
	return out
}

// Jump advances the generator by 2^128 steps; 2^128 non-overlapping
// subsequences of length 2^128 are available from one seed.
func (r *Rand) Jump() {
	jump := [4]uint64{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}
	var acc State
	s := r.s
	for _, j := range jump {
		for b := 0; b < 64; b++ {
			if j&(1<<uint(b)) != 0 {
				acc.s0 ^= s.s0
				acc.s1 ^= s.s1
				acc.s2 ^= s.s2
				acc.s3 ^= s.s3
			}
			_, s = s.Next()
		}
	}
	r.s = acc
}

// Unit maps 64 random bits to a uniform value in [0, 1) with 53 bits of
// precision; Float64 is Unit of the next draw.
func Unit(u uint64) float64 {
	return float64(u>>11) / (1 << 53)
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return Unit(r.Uint64())
}

// Float64Open returns a uniform value in (0, 1]; it never returns zero, so
// the result is safe to pass to math.Log.
func (r *Rand) Float64Open() float64 {
	return (float64(r.Uint64()>>11) + 1) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping is fine here: bias is < 2^-53
	// for the modest n used in scheduling, far below MC noise.
	return int(r.Float64() * float64(n))
}
