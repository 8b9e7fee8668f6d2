package mc_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/vec"
)

// unitWatch is a pencil source that sees units start: a unit's first launch
// finds its kernel's generator at the unit's start state. It records every
// unit that starts and closes stop when unit trip does.
type unitWatch struct {
	source.Pencil
	starts []rng.Rand
	trip   int
	stop   chan struct{}

	mu      sync.Mutex
	started map[int]bool
}

func (u *unitWatch) Launch(r *rng.Rand) (vec.V, vec.V) {
	for j := range u.starts {
		if *r == u.starts[j] {
			u.mu.Lock()
			u.started[j] = true
			if j == u.trip {
				close(u.stop)
			}
			u.mu.Unlock()
		}
	}
	return u.Pencil.Launch(r)
}

// serialChunk is RunChunks' definition for one chunk: RunWithRand per unit,
// the one unit's tally as it is or the units merged in order into a fresh
// tally; it also returns the units' event counts.
func serialChunk(t *testing.T, cfg *mc.Config, units []mc.Unit) (*mc.Tally, mc.KernelEvents) {
	t.Helper()
	counter, err := mc.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tallies := make([]*mc.Tally, len(units))
	for i, u := range units {
		if tallies[i], err = mc.RunWithRand(cfg, u.Photons, u.Rand); err != nil {
			t.Fatal(err)
		}
		counter.Run(u.Photons, u.Rand)
	}
	events := counter.TakeEvents()
	if len(tallies) == 1 {
		return tallies[0], events
	}
	merged := mc.NewTally(cfg)
	for _, tl := range tallies {
		if err := merged.Merge(tl); err != nil {
			t.Fatal(err)
		}
	}
	return merged, events
}

// TestRunChunksReturnsWholeChunkPrefix: with stop closed before each unit
// boundary in turn, RunChunks returns exactly the chunks whose units all
// ran — a prefix of them, byte-equal to the serial definition — on one, two
// and four cores, and its kernels' events sum every unit that ran.
func TestRunChunksReturnsWholeChunkPrefix(t *testing.T) {
	const seed = 23
	for _, tc := range []struct {
		name  string
		sizes []int // units per chunk
	}{
		{"one-unit", []int{1, 1, 1, 1}},
		{"three-unit", []int{3, 3, 3}},
	} {
		watch := &unitWatch{started: map[int]bool{}}
		cfg := &mc.Config{
			Model:        tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
			Source:       watch,
			Detector:     detector.Annulus{RMin: 1, RMax: 4},
			PathGrid:     &mc.GridSpec{N: 6, Edge: 10},
			TrackMoments: true,
		}
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		streams := rng.NewStreams(seed, 9)
		var chunks [][]mc.Unit
		var firstOf []int // unit index each chunk starts at
		n := 0
		for _, size := range tc.sizes {
			var chunk []mc.Unit
			for range size {
				chunk = append(chunk, mc.Unit{Rand: streams[n], Photons: int64(20 + 3*n)})
				watch.starts = append(watch.starts, *streams[n])
				n++
			}
			firstOf = append(firstOf, n-size)
			chunks = append(chunks, chunk)
		}
		watch.trip = -1
		want := make([][]byte, len(chunks))
		events := make([]mc.KernelEvents, len(chunks))
		for c, chunk := range chunks {
			tl, ev := serialChunk(t, cfg, chunk)
			want[c], events[c] = mc.AppendTally(nil, tl), ev
		}

		for _, procs := range []int{1, 2, 4} {
			for k := 0; k <= n; k++ { // stop closed before unit k; k == n never closes
				t.Run(fmt.Sprintf("%s/procs%d/stop%d", tc.name, procs, k), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					watch.stop, watch.trip, watch.started = make(chan struct{}), k-1, map[int]bool{}
					if k == 0 {
						close(watch.stop)
					}
					ru, err := mc.NewRunner(cfg)
					if err != nil {
						t.Fatal(err)
					}
					runs := ru.RunChunks(chunks, watch.stop)
					ran := len(watch.started)
					watch.trip = -1 // disarmed for the reference runs below
					for j := range ran {
						if !watch.started[j] {
							t.Fatalf("units run %v are not a prefix", watch.started)
						}
					}
					if ran < k || (procs == 1 && ran != k) {
						t.Fatalf("%d units ran with stop closed before unit %d", ran, k)
					}
					whole := 0
					for whole < len(chunks) && firstOf[whole]+len(chunks[whole]) <= ran {
						whole++
					}
					if len(runs) != whole {
						t.Fatalf("%d chunks returned after %d units ran, want the %d whole ones", len(runs), ran, whole)
					}
					var sum mc.KernelEvents
					for c, run := range runs {
						if !bytes.Equal(mc.AppendTally(nil, run.Tally), want[c]) {
							t.Errorf("chunk %d differs from the in-order merge of its units", c)
						}
						if run.Elapsed <= 0 {
							t.Errorf("chunk %d reports %v of kernel time", c, run.Elapsed)
						}
						sum.Add(events[c])
					}
					// Units of a chunk cut short ran too: count them on top.
					if whole < len(chunks) && ran > firstOf[whole] {
						_, ev := serialChunk(t, cfg, chunks[whole][:ran-firstOf[whole]])
						sum.Add(ev)
					}
					if got := ru.TakeEvents(); got != sum {
						t.Errorf("kernel events %+v, want the %d units' %+v", got, ran, sum)
					}
				})
			}
		}
	}
}

// TestRunParallelAndAdaptiveIndependentOfGOMAXPROCS pins both local loops
// byte for byte on one core and on four: RunParallel to the in-order merge
// of its streams' shares, RunAdaptive to rounds of one-unit chunks merged
// in stream order until the target is met.
func TestRunParallelAndAdaptiveIndependentOfGOMAXPROCS(t *testing.T) {
	const n, seed, workers, chunk = 1000, 5, 3, 300
	cfg := slabCfg(t, true)
	var units []mc.Unit
	for w, r := range rng.NewStreams(seed, workers) {
		share := int64(n / workers)
		if w < n%workers {
			share++
		}
		units = append(units, mc.Unit{Rand: r, Photons: share})
	}
	wantPar, _ := serialChunk(t, cfg, units)

	tgt := mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.08, MinPhotons: 900}
	if err := tgt.Normalize(); err != nil {
		t.Fatal(err)
	}
	wantAd := mc.NewTally(cfg)
	cache := rng.NewStreamCache(seed)
	for stream := 0; stream == 0 || !tgt.MetBy(wantAd); stream += workers {
		for w := range workers {
			tl, err := mc.RunWithRand(cfg, chunk, cache.Stream(stream+w))
			if err != nil {
				t.Fatal(err)
			}
			if err := wantAd.Merge(tl); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			par, err := mc.RunParallel(slabCfg(t, true), n, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mc.AppendTally(nil, par), mc.AppendTally(nil, wantPar)) {
				t.Errorf("GOMAXPROCS %d: RunParallel differs from the in-order merge of its streams", procs)
			}
			ad, err := mc.RunAdaptive(slabCfg(t, true), tgt, seed, chunk, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mc.AppendTally(nil, ad), mc.AppendTally(nil, wantAd)) {
				t.Errorf("GOMAXPROCS %d: RunAdaptive (%d photons) differs from its rounds merged in order (%d)",
					procs, ad.Launched, wantAd.Launched)
			}
		}()
	}
}
