package mc

import (
	"runtime"
	"testing"

	"repro/internal/rng"
	"repro/internal/tissue"
)

// TestRunnerPinsNoTally: between runs a Runner's kernels reference no
// tally — not after NewRunner, Run or RunChunks — so a worker's held jobs
// do not keep their last chunks' tallies alive (with a path grid, a
// megabyte and more per kernel).
func TestRunnerPinsNoTally(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ru, err := NewRunner(&Config{Model: tissue.AdultHead(), PathGrid: &GridSpec{N: 8, Edge: 40}})
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(after string) {
		t.Helper()
		for w, k := range ru.ks {
			if k != nil && k.tally != nil {
				t.Fatalf("kernel %d holds a tally after %s", w, after)
			}
		}
	}
	pinned("NewRunner")
	if got := ru.Run(50, rng.New(1)); got == nil || got.Launched != 50 {
		t.Fatalf("Run returned %+v, want a 50-photon tally", got)
	}
	pinned("Run")
	runs := ru.RunChunks([][]Unit{
		{{Rand: rng.New(2), Photons: 20}},
		{{Rand: rng.New(3), Photons: 20}, {Rand: rng.New(4), Photons: 20}},
	}, nil)
	if len(runs) != 2 || runs[0].Tally.Launched != 20 || runs[1].Tally.Launched != 40 {
		t.Fatalf("RunChunks returned %+v, want tallies of 20 and 40 photons", runs)
	}
	if len(ru.ks) != 2 {
		t.Fatalf("RunChunks ran %d kernels, want 2", len(ru.ks))
	}
	pinned("RunChunks")
}
