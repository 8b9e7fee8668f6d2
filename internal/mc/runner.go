package mc

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/rng"
)

// Run simulates n photons on a single RNG stream and returns the tally.
// cfg is normalised in place.
func Run(cfg *Config, n int64, seed uint64) (*Tally, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	k := newKernel(cfg, *rng.New(seed))
	k.RunPhotons(n)
	k.record()
	return k.tally, nil
}

// record folds the finished leaf tally's chunk moments in when the config
// asks for them — every runner calls it once per single-stream run.
func (k *kernel) record() {
	if k.cfg.TrackMoments {
		k.tally.RecordChunkMoments()
	}
}

// RunStream simulates n photons on stream `stream` of `streams` independent
// RNG streams derived from seed. Chunks computed this way merge into exactly
// the same tally regardless of which worker computes which stream — the
// reproducibility contract of the distributed system. streams ≤ 0 means the
// stream space is open-ended (precision-targeted jobs issue chunks without
// a predetermined count); only the lower bound is then checked.
func RunStream(cfg *Config, n int64, seed uint64, stream, streams int) (*Tally, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if stream < 0 || (streams > 0 && stream >= streams) {
		return nil, fmt.Errorf("mc: stream %d outside [0,%d)", stream, streams)
	}
	r := rng.New(seed)
	for i := 0; i < stream; i++ {
		r.Jump()
	}
	k := newKernel(cfg, *r)
	k.RunPhotons(n)
	k.record()
	return k.tally, nil
}

// RunWithRand simulates n photons from a caller-provided generator state —
// the building block for callers that manage stream derivation themselves
// (e.g. a worker amortising Jump costs across a job's chunks with an
// rng.StreamCache). Passing the state New(seed) jumped `stream` times
// reproduces RunStream(cfg, n, seed, stream, streams) bit-for-bit. r itself
// does not advance.
func RunWithRand(cfg *Config, n int64, r *rng.Rand) (*Tally, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	k := newKernel(cfg, *r)
	k.RunPhotons(n)
	k.record()
	return k.tally, nil
}

// Runner amortises kernel setup across the runs of one configuration and is
// this package's one way to use every core: the config is normalised once,
// and the runner holds one kernel per core, each reusing its scratch buffers
// (sub-packet stack, pooled visit-site slices) from run to run instead of
// rebuilding them per call. Each run still accumulates into a fresh Tally —
// the reduction contract is untouched — and its photon trajectories are
// bit-identical to RunWithRand on the same generator state, whichever kernel
// computes it.
//
// Kernels running side by side must not write to one cache line (each would
// run at about half speed): a kernel draws from its own copy of the
// generator state it is handed, is padded off its neighbours, and kernel
// w > 0 is built by the goroutine that runs on it. A Runner is not safe for
// concurrent use.
type Runner struct {
	cfg *Config
	ks  []*kernel // ks[0] built by NewRunner, ks[w] by RunChunks' goroutine w
}

// NewRunner validates and normalises cfg and prepares a reusable kernel.
func NewRunner(cfg *Config) (*Runner, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, ks: []*kernel{newKernel(cfg, rng.Rand{})}}, nil
}

// Run simulates n photons from generator state r into a fresh tally, on the
// runner's first kernel. r itself does not advance.
func (ru *Runner) Run(n int64, r *rng.Rand) *Tally { return ru.runOn(0, n, r) }

// runOn is Run on kernel w, building it on first use.
func (ru *Runner) runOn(w int, n int64, r *rng.Rand) *Tally {
	k := ru.ks[w]
	if k == nil {
		k = newKernel(ru.cfg, *r)
		ru.ks[w] = k
	} else {
		k.rng, k.tally = *r, NewTally(ru.cfg)
	}
	k.RunPhotons(n)
	k.record()
	return k.tally
}

// Unit is one independent piece of a chunk: Photons photons drawn from
// generator state Rand, which does not advance.
type Unit struct {
	Rand    *rng.Rand
	Photons int64
}

// ChunkRun is one finished chunk: its tally and its units' kernel time,
// summed.
type ChunkRun struct {
	Tally   *Tally
	Elapsed time.Duration
}

// RunChunks runs the units of chunks on min(GOMAXPROCS, units) kernels at
// once and returns the finished chunks in order. Each kernel claims the next
// unit in chunk order, and none is claimed once stop is closed (a nil stop
// never closes), so the units run are a prefix of them all, every one
// finished; only the chunks whose units all ran come back, a prefix of
// chunks. A one-unit chunk's tally is its unit's tally; a longer chunk's is
// a fresh tally with its units merged in unit order. Either way a chunk's
// bytes do not depend on how many kernels ran it.
func (ru *Runner) RunChunks(chunks [][]Unit, stop <-chan struct{}) []ChunkRun {
	var units []Unit
	for _, c := range chunks {
		units = append(units, c...)
	}
	width := max(1, min(runtime.GOMAXPROCS(0), len(units)))
	for len(ru.ks) < width {
		ru.ks = append(ru.ks, nil)
	}
	tallies := make([]*Tally, len(units))
	elapsed := make([]time.Duration, len(units))
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
	work := func(w int) {
		for i, ok := claim(); ok; i, ok = claim() {
			start := time.Now()
			tallies[i] = ru.runOn(w, units[i].Photons, units[i].Rand)
			elapsed[i] = time.Since(start)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
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
		for _, d := range elapsed[at : at+len(done)] {
			run.Elapsed += d
		}
		runs = append(runs, run)
		at += len(done)
	}
	return runs
}

// TakeEvents returns what the transport loops have counted since the last
// call, summed over the runner's kernels, and starts the count afresh; a
// worker drains it after each grant.
func (ru *Runner) TakeEvents() KernelEvents {
	var ev KernelEvents
	for _, k := range ru.ks {
		if k != nil {
			ev.Add(k.events)
			k.events = KernelEvents{}
		}
	}
	return ev
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
