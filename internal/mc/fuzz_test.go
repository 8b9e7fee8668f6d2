package mc

import (
	"bytes"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/grid"
	"repro/internal/tissue"
)

// FuzzDecodeTally throws arbitrary bytes at the compact tally decoder — the
// format of the worker wire's result batches, the journal snapshots and the
// tally files mcmerge reads. It must never panic; a header may not size an allocation
// past maxCodecRegions / MaxGridN per grid edge / MaxHistBins, and a frame
// whose payload does not back what its header claims is an error, not a
// short slice behind large dimensions; and a frame that decodes re-encodes
// to a fixed point, also through DecodeTallyInto's slice-reusing path.
//
// The committed corpus (testdata/fuzz/FuzzDecodeTally) is tallySeeds;
// scripts/fuzz-corpus.sh regenerates it.
func FuzzDecodeTally(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendTally(nil, &Tally{}))

	f.Fuzz(func(t *testing.T, data []byte) {
		tally, err := DecodeTally(data)
		if err != nil {
			return
		}
		regions := len(tally.LayerAbsorbed)
		if regions > maxCodecRegions || len(tally.LayerReached) != regions || len(tally.LayerEnteredWeight) != regions {
			t.Fatalf("region arrays %d/%d/%d", regions, len(tally.LayerReached), len(tally.LayerEnteredWeight))
		}
		for _, g := range []*grid.Grid3{tally.AbsGrid, tally.PathGrid} {
			if g == nil {
				continue
			}
			if g.Nx <= 0 || g.Ny <= 0 || g.Nz <= 0 || g.Nx > MaxGridN || g.Ny > MaxGridN || g.Nz > MaxGridN ||
				g.Nx*g.Ny*g.Nz != len(g.Data) {
				t.Fatalf("grid %dx%dx%d decoded with %d cells", g.Nx, g.Ny, g.Nz, len(g.Data))
			}
		}
		if h := tally.PathHist; h != nil && len(h.Counts) > MaxHistBins {
			t.Fatalf("path histogram decoded with %d bins", len(h.Counts))
		}
		if h := tally.Radial; h != nil && len(h.Counts) > MaxHistBins {
			t.Fatalf("radial histogram decoded with %d bins", len(h.Counts))
		}
		again := AppendTally(nil, tally)
		if err := DecodeTallyInto(tally, again); err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(AppendTally(nil, tally), again) {
			t.Fatal("tally changed across a re-encode")
		}
	})
}

// tallySeed is one committed corpus entry: a frame and whether the decoder
// must accept it.
type tallySeed struct {
	valid bool
	frame func(t *testing.T) []byte
}

// tallySeeds are the committed seeds: a frame of every section shape the
// result plane carries, and headers that claim more than the decoder may
// believe.
func tallySeeds() map[string]tallySeed {
	run := func(cfg *Config, photons int64, seed uint64) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			tally, err := Run(cfg, photons, seed)
			if err != nil {
				t.Fatal(err)
			}
			return AppendTally(nil, tally)
		}
	}
	head := &Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 10, RMax: 30},
		PathHist: &HistSpec{Min: 0, Max: 600, Bins: 60},
		Radial:   &HistSpec{Min: 0, Max: 60, Bins: 30},
	}
	// hostile appends an optional section to an otherwise empty frame:
	// flags is the single byte after the version.
	hostile := func(flag byte, section ...uint64) func(*testing.T) []byte {
		return func(*testing.T) []byte {
			b := AppendTally(nil, &Tally{})
			b[1] = flag
			for _, v := range section {
				b = binary.AppendUvarint(b, v)
			}
			return b
		}
	}
	geometry := make([]byte, 5*8) // a grid's Dx, Dy, Dz, X0, Y0
	return map[string]tallySeed{
		"slab_scalar": {true, run(&Config{Model: tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)}, 50, 1)},
		"head":        {true, run(head, 200, 9)},
		"grid50": {true, run(&Config{
			Model:    tissue.AdultHead(),
			Detector: detector.Annulus{RMin: 10, RMax: 30},
			PathGrid: &GridSpec{N: 50, Edge: 100},
		}, 300, 3)},
		"moments_v2": {true, run(&Config{Model: tissue.AdultHead(), TrackMoments: true}, 200, 5)},
		"truncated": {false, func(t *testing.T) []byte {
			b := run(head, 200, 9)(t)
			return b[:len(b)/2]
		}},
		"overclaim_regions": {false, func(*testing.T) []byte {
			b := AppendTally(nil, &Tally{})
			return binary.AppendUvarint(b[:len(b)-1], maxCodecRegions+1)
		}},
		// 2^22 cubed is 2^66, which wraps to 0 in 64 bits: no cells at all
		// behind dimensions of four million each.
		"overclaim_grid_wrap": {false, func(t *testing.T) []byte {
			return append(hostile(tallyHasPathGrid, 1<<22, 1<<22, 1<<22)(t), geometry...)
		}},
		// One edge past what ingress accepts, the others honest.
		"overclaim_grid_edge": {false, func(t *testing.T) []byte {
			return append(hostile(tallyHasAbsGrid, MaxGridN+1, 1, 1)(t), geometry...)
		}},
		"overclaim_hist": {false, func(t *testing.T) []byte {
			b := hostile(tallyHasPathHist)(t)
			b = append(b, make([]byte, 4*8)...) // Min, Max, Under, Over
			return binary.AppendUvarint(b, MaxHistBins+1)
		}},
		"overclaim_zero_run": {false, func(t *testing.T) []byte {
			b := append(hostile(tallyHasAbsGrid, 2, 2, 2)(t), geometry...)
			return binary.AppendUvarint(b, 9) // nine zeros into eight cells
		}},
	}
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed FuzzDecodeTally seed corpus")

// TestCommittedTallyCorpus keeps the seed corpus honest: every seed exists,
// the valid frames — written by some earlier build — still decode (a
// journal or a peer may hold the like), and the hostile ones are still
// refused.
func TestCommittedTallyCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeTally")
	for name, seed := range tallySeeds() {
		path := filepath.Join(dir, name)
		if *updateCorpus {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed.frame(t))) + ")\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("corpus seed missing (run scripts/fuzz-corpus.sh): %v", err)
			continue
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		frame, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Errorf("corpus seed %s is not a fuzz v1 []byte literal: %v", name, err)
			continue
		}
		if _, err := DecodeTally([]byte(frame)); (err == nil) != seed.valid {
			t.Errorf("committed seed %s: decode error %v, want valid=%v", name, err, seed.valid)
		}
	}
}
