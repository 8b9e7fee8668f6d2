package mc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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

// Runner amortises kernel setup across the chunk runs of one configuration
// and runs up to one chunk per core at once: the config is normalised once,
// and the runner holds one kernel per core, each reusing its scratch buffers
// (sub-packet stack, pooled visit-site slices) from chunk to chunk instead
// of rebuilding them per call. Each run still accumulates into a fresh Tally
// — the reduction contract is untouched — and its photon trajectories are
// bit-identical to RunWithRand on the same generator state, whichever kernel
// computes it.
//
// Kernels running side by side must not write to one cache line (each would
// run at about half speed): a kernel draws from its own copy of the
// generator state it is handed, is padded off its neighbours, and kernel
// w > 0 is built by the first goroutine that runs on it. RunOn calls on
// distinct kernels may run concurrently; nothing else may.
type Runner struct {
	cfg *Config
	ks  []*kernel // ks[0] built by NewRunner, ks[w] by the first RunOn(w, …)
}

// NewRunner validates and normalises cfg and prepares a reusable kernel.
func NewRunner(cfg *Config) (*Runner, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &Runner{cfg: cfg, ks: []*kernel{newKernel(cfg, rng.Rand{})}}, nil
}

// Kernels readies the runner to compute n chunks at once and returns how
// many kernels they run on: min(GOMAXPROCS, n), at least one. RunOn may then
// be called concurrently for each kernel index below that count.
func (ru *Runner) Kernels(n int) int {
	w := max(1, min(runtime.GOMAXPROCS(0), n))
	for len(ru.ks) < w {
		ru.ks = append(ru.ks, nil)
	}
	return w
}

// Run simulates n photons from generator state r into a fresh tally, on the
// runner's first kernel. r itself does not advance.
func (ru *Runner) Run(n int64, r *rng.Rand) *Tally { return ru.RunOn(0, n, r) }

// RunOn is Run on kernel w, which Kernels must have readied.
func (ru *Runner) RunOn(w int, n int64, r *rng.Rand) *Tally {
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

// RunFan computes a fanned chunk exactly as RunStreamFan does on the
// Runner's config (fan > 1), keeping the sub-kernels' event counts.
func (ru *Runner) RunFan(n int64, seed uint64, stream, streams, fan int) (*Tally, error) {
	t, ev, err := runFan(ru.cfg, n, seed, stream, streams, fan)
	ru.ks[0].events.Add(ev)
	return t, err
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

// RunStreamFan computes chunk `stream` of `streams` like RunStream, but
// splits the chunk's photons across `fan` jump-separated sub-streams
// derived deterministically from the chunk's stream index (rng.FanStreams)
// and merges the sub-tallies in sub-stream order. The result is a pure
// function of (cfg, n, seed, stream, streams, fan): the number of
// goroutines actually used — at most GOMAXPROCS — never changes the tally,
// so a fanned chunk computed on a 1-core and a 32-core worker reduces
// identically. fan ≤ 1 is byte-identical to RunStream, which keeps the
// golden tallies and every legacy cache entry valid.
func RunStreamFan(cfg *Config, n int64, seed uint64, stream, streams, fan int) (*Tally, error) {
	if fan <= 1 {
		return RunStream(cfg, n, seed, stream, streams)
	}
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	t, _, err := runFan(cfg, n, seed, stream, streams, fan)
	return t, err
}

// runFan is RunStreamFan on a normalised config with fan > 1; it also
// returns the sub-kernels' summed event counts.
func runFan(cfg *Config, n int64, seed uint64, stream, streams, fan int) (*Tally, KernelEvents, error) {
	if stream < 0 || (streams > 0 && stream >= streams) {
		return nil, KernelEvents{}, fmt.Errorf("mc: stream %d outside [0,%d)", stream, streams)
	}
	subs := rng.FanStreams(seed, stream, fan)
	shares := make([]int64, fan)
	for i := range shares {
		shares[i] = n / int64(fan)
		if int64(i) < n%int64(fan) {
			shares[i]++
		}
	}
	tallies := make([]*Tally, fan)
	counts := make([]KernelEvents, fan)
	workers := runtime.GOMAXPROCS(0)
	if workers > fan {
		workers = fan
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= fan {
					return
				}
				k := newKernel(cfg, *subs[i])
				k.RunPhotons(shares[i])
				k.record()
				tallies[i], counts[i] = k.tally, k.events
			}
		}()
	}
	wg.Wait()

	total := NewTally(cfg)
	var events KernelEvents
	for i, t := range tallies {
		if err := total.Merge(t); err != nil {
			return nil, events, err
		}
		events.Add(counts[i])
	}
	return total, events, nil
}

// RunAdaptive is the local run-until-precision loop: it simulates rounds
// of `workers` jump-separated streams of `chunk` photons each — merged in
// stream order, so the result is a pure function of (cfg, tgt, seed,
// chunk, workers) — and stops at the first round boundary where the
// target is met or tgt.MaxPhotons (when set) is reached. TrackMoments is
// forced on; the returned tally's estimate and CI come from EstimateCI.
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
	if err := cfg.Normalize(); err != nil {
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
	tallies := make([]*Tally, workers)
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
		var wg sync.WaitGroup
		for w := 0; w < round; w++ {
			wg.Add(1)
			go func(w int, r *rng.Rand) {
				defer wg.Done()
				k := newKernel(cfg, *r)
				k.RunPhotons(chunk)
				k.record()
				tallies[w] = k.tally
			}(w, cache.Stream(stream+w))
		}
		wg.Wait()
		for _, t := range tallies[:round] {
			if err := total.Merge(t); err != nil {
				return nil, err
			}
		}
		stream += round
		if tgt.MetBy(total) {
			return total, nil
		}
	}
}

// RunParallel fans n photons across `workers` goroutines (default
// GOMAXPROCS), each with its own jump-separated RNG stream, and merges the
// partial tallies. The result is identical to running the same streams
// sequentially.
func RunParallel(cfg *Config, n int64, seed uint64, workers int) (*Tally, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if int64(workers) > n && n > 0 {
		workers = int(n)
	}
	if workers <= 1 {
		return Run(cfg, n, seed)
	}

	streams := rng.NewStreams(seed, workers)
	tallies := make([]*Tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		share := n / int64(workers)
		if int64(w) < n%int64(workers) {
			share++
		}
		wg.Add(1)
		go func(w int, share int64) {
			defer wg.Done()
			k := newKernel(cfg, *streams[w])
			k.RunPhotons(share)
			k.record()
			tallies[w] = k.tally
		}(w, share)
	}
	wg.Wait()

	total := NewTally(cfg)
	for _, t := range tallies {
		if err := total.Merge(t); err != nil {
			return nil, err
		}
	}
	return total, nil
}
