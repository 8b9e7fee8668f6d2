package mc

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/internal/vec"
)

// Run simulates n photons on a single RNG stream and returns the tally.
// cfg is normalised in place.
func Run(cfg *Config, n int64, seed uint64) (*Tally, error) {
	ru, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return ru.Run(n, rng.New(seed)), nil
}

// scratch carries a kernel's reusable buffers — the sub-packet stack and the
// spare visit-site slices — from one unit to the next. They belong to
// whichever kernel is running, not to a job: a kernel borrows them from
// scratchPool for one unit and gives them back, so a held Runner pins none,
// and sync.Pool's per-P caches keep them on the core that last used them.
type scratch struct {
	stack     []subPacket
	visitPool [][]vec.V
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// runUnit simulates n photons from generator state r into a fresh tally on
// a kernel built for this one unit by the calling goroutine, and returns the
// tally and what the transport loops counted. Every runner in the package
// computes through it, on a Runner's config.
func runUnit(cfg *Config, n int64, r rng.Rand) (*Tally, KernelEvents) {
	k := newKernel(cfg, r)
	s := scratchPool.Get().(*scratch)
	// The hot slice headers live in the padded kernel, never in the pooled
	// struct another core may hold next.
	k.stack, k.visitPool = s.stack, s.visitPool
	k.RunPhotons(n)
	s.stack, s.visitPool = k.stack[:0], k.visitPool
	scratchPool.Put(s)
	if cfg.TrackMoments {
		k.tally.RecordChunkMoments()
	}
	return k.tally, k.events
}

// RunStream simulates n photons on stream `stream` of `streams` independent
// RNG streams derived from seed. Chunks computed this way merge into exactly
// the same tally regardless of which worker computes which stream — the
// reproducibility contract of the distributed system. streams ≤ 0 means the
// stream space is open-ended (precision-targeted jobs issue chunks without
// a predetermined count); only the lower bound is then checked.
func RunStream(cfg *Config, n int64, seed uint64, stream, streams int) (*Tally, error) {
	ru, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if stream < 0 || (streams > 0 && stream >= streams) {
		return nil, fmt.Errorf("mc: stream %d outside [0,%d)", stream, streams)
	}
	r := rng.New(seed)
	for i := 0; i < stream; i++ {
		r.Jump()
	}
	return ru.Run(n, r), nil
}

// RunWithRand simulates n photons from a caller-provided generator state —
// the building block for callers that manage stream derivation themselves.
// Passing the state New(seed) jumped `stream` times reproduces
// RunStream(cfg, n, seed, stream, streams) bit-for-bit. r itself does not
// advance.
func RunWithRand(cfg *Config, n int64, r *rng.Rand) (*Tally, error) {
	ru, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return ru.Run(n, r), nil
}

// Runner runs units of one configuration, normalised once, and is this
// package's one way to use every core. Each unit runs on a kernel built for
// it alone, by the goroutine that runs it, which borrows its scratch buffers
// from a package-wide pool and accumulates into a fresh Tally — the
// reduction contract is untouched — and its photon trajectories are
// bit-identical to RunWithRand on the same generator state, whichever core
// computes it. A Runner holds nothing but its config between runs, so
// holding one is cheap, and it is safe for concurrent use.
//
// Kernels running side by side must not write to one cache line (each would
// run at about half speed): a kernel draws from its own copy of the
// generator state it is handed, keeps its hot slice headers in itself, and
// is padded off its neighbours.
type Runner struct {
	cfg *Config
}

// NewRunner validates and normalises cfg. Tracing begins here, so a
// geometry that derives traversal tables builds them now — once, shared by
// every kernel on it — rather than inside a validation that a non-tracing
// process also runs, or inside the first timed unit.
func NewRunner(cfg *Config) (*Runner, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if p, ok := cfg.Geometry.(interface{ PrepareTrace() }); ok {
		p.PrepareTrace()
	}
	return &Runner{cfg: cfg}, nil
}

// Run simulates n photons from generator state r into a fresh tally. r
// itself does not advance.
func (ru *Runner) Run(n int64, r *rng.Rand) *Tally {
	t, _ := runUnit(ru.cfg, n, *r)
	return t
}

// Unit is one independent piece of a chunk: Photons photons drawn from
// generator state Rand, which does not advance.
type Unit struct {
	Rand    *rng.Rand
	Photons int64
}

// ChunkRun is one finished chunk: its tally, and its units' kernel time and
// transport-loop counts, each summed.
type ChunkRun struct {
	Tally   *Tally
	Elapsed time.Duration
	Events  KernelEvents
}

// RunChunks runs the units of chunks on min(GOMAXPROCS, units) goroutines at
// once and returns the finished chunks in order. Each goroutine claims the
// next unit in chunk order and runs it on a kernel of its own, and none is
// claimed once stop is closed (a nil stop never closes), so the units run
// are a prefix of them all, every one finished; only the chunks whose units
// all ran come back, a prefix of chunks. A one-unit chunk's tally is its
// unit's tally; a longer chunk's is a fresh tally with its units merged in
// unit order. Either way a chunk's bytes do not depend on how many cores ran
// it.
func (ru *Runner) RunChunks(chunks [][]Unit, stop <-chan struct{}) []ChunkRun {
	var units []Unit
	for _, c := range chunks {
		units = append(units, c...)
	}
	width := max(1, min(runtime.GOMAXPROCS(0), len(units)))
	tallies := make([]*Tally, len(units))
	elapsed := make([]time.Duration, len(units))
	events := make([]KernelEvents, len(units))
	var mu sync.Mutex
	claimed := 0
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if claimed == len(units) {
			return 0, false
		}
		select {
		case <-stop:
			return 0, false
		default:
		}
		claimed++
		return claimed - 1, true
	}
	work := func() {
		for i, ok := claim(); ok; i, ok = claim() {
			start := time.Now()
			tallies[i], events[i] = runUnit(ru.cfg, units[i].Photons, *units[i].Rand)
			elapsed[i] = time.Since(start)
		}
	}
	var wg sync.WaitGroup
	for range width - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	runs := make([]ChunkRun, 0, len(chunks))
	for at, c := 0, 0; c < len(chunks) && at+len(chunks[c]) <= claimed; c++ {
		done := tallies[at : at+len(chunks[c])]
		run := ChunkRun{}
		if len(done) == 1 {
			run.Tally = done[0]
		} else {
			run.Tally = NewTally(ru.cfg)
			for _, t := range done {
				if err := run.Tally.Merge(t); err != nil {
					panic(err) // tallies of one config always merge
				}
			}
		}
		for i := at; i < at+len(done); i++ {
			run.Elapsed += elapsed[i]
			run.Events.Add(events[i])
		}
		runs = append(runs, run)
		at += len(done)
	}
	return runs
}

// split shares n photons across the generators gens, the first n mod
// len(gens) of them one photon more.
func split(n int64, gens []*rng.Rand) []Unit {
	units := make([]Unit, len(gens))
	for i, r := range gens {
		units[i] = Unit{Rand: r, Photons: n / int64(len(gens))}
		if int64(i) < n%int64(len(gens)) {
			units[i].Photons++
		}
	}
	return units
}

// FanUnits splits chunk `stream`'s n photons across its `fan` jump-separated
// sub-streams (rng.FanStreams): the one chunk RunStreamFan runs.
func FanUnits(n int64, seed uint64, stream, fan int) []Unit {
	return split(n, rng.FanStreams(seed, stream, fan))
}

// RunStreamFan computes chunk `stream` of `streams` like RunStream, but
// splits the chunk's photons across `fan` sub-streams (FanUnits) and runs
// them as one chunk on a Runner, merged in sub-stream order. The result is a
// pure function of (cfg, n, seed, stream, streams, fan): the number of
// kernels actually used — at most GOMAXPROCS — never changes the tally, so a
// fanned chunk computed on a 1-core and a 32-core worker reduces
// identically. fan ≤ 1 is byte-identical to RunStream, which keeps the
// golden tallies and every legacy cache entry valid.
func RunStreamFan(cfg *Config, n int64, seed uint64, stream, streams, fan int) (*Tally, error) {
	if fan <= 1 {
		return RunStream(cfg, n, seed, stream, streams)
	}
	ru, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if stream < 0 || (streams > 0 && stream >= streams) {
		return nil, fmt.Errorf("mc: stream %d outside [0,%d)", stream, streams)
	}
	return ru.RunChunks([][]Unit{FanUnits(n, seed, stream, fan)}, nil)[0].Tally, nil
}

// RunAdaptive is the local run-until-precision loop: it simulates rounds
// of `workers` jump-separated streams of `chunk` photons each — one-unit
// chunks on one Runner, merged in stream order, so the result is a pure
// function of (cfg, tgt, seed, chunk, workers) — and stops at the first
// round boundary where the target is met or tgt.MaxPhotons (when set) is
// reached. TrackMoments is forced on; the returned tally's estimate and CI
// come from EstimateCI.
//
// The stopping rule tests the on-line variance estimate, which is itself
// noisy early on: a low tgt.MinPhotons floor can latch onto an
// optimistically small estimate and terminate with an overconfident CI
// (the rule's standard small-sample bias). Callers should keep the floor
// at several chunks' worth; a MaxPhotons of zero trusts the target alone,
// which never terminates for a zero-mean observable.
func RunAdaptive(cfg *Config, tgt Target, seed uint64, chunk int64, workers int) (*Tally, error) {
	if err := tgt.Normalize(); err != nil {
		return nil, err
	}
	if !cfg.TrackMoments {
		// The stopping rule needs chunk moments; run on a copy rather than
		// flipping the caller's config, whose later fixed-count runs must
		// keep their moment-free (byte-identical) encodings.
		c := *cfg
		c.TrackMoments = true
		cfg = &c
	}
	ru, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if chunk <= 0 {
		return nil, fmt.Errorf("mc: adaptive chunk size %d must be positive", chunk)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	cache := rng.NewStreamCache(seed)
	total := NewTally(cfg)
	chunks := make([][]Unit, workers)
	for stream := 0; ; {
		round := workers
		if tgt.MaxPhotons > 0 {
			if left := (tgt.MaxPhotons - total.Launched + chunk - 1) / chunk; left < int64(round) {
				round = int(left)
			}
		}
		if round <= 0 {
			return total, nil // budget exhausted before the target was met
		}
		for w := range chunks[:round] {
			chunks[w] = []Unit{{Rand: cache.Stream(stream + w), Photons: chunk}}
		}
		for _, run := range ru.RunChunks(chunks[:round], nil) {
			if err := total.Merge(run.Tally); err != nil {
				return nil, err
			}
		}
		stream += round
		if tgt.MetBy(total) {
			return total, nil
		}
	}
}

// RunParallel splits n photons across `workers` jump-separated RNG streams
// (default GOMAXPROCS) and runs them as one chunk on a Runner, merged in
// stream order. The result is identical to running the same streams
// sequentially, on any number of cores; one worker is Run.
func RunParallel(cfg *Config, n int64, seed uint64, workers int) (*Tally, error) {
	ru, err := NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(workers) > n && n > 0 {
		workers = int(n)
	}
	return ru.RunChunks([][]Unit{split(n, rng.NewStreams(seed, workers))}, nil)[0].Tally, nil
}
