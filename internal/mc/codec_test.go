package mc_test

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/rng"
	"repro/internal/tissue"
)

// tallyJSON renders a tally for bit-exact comparison (the same shortest
// round-trip float encoding the golden harness relies on).
func tallyJSON(t *testing.T, tally *mc.Tally) []byte {
	t.Helper()
	blob, err := json.Marshal(tally)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// gobTally is the reference encoding the compact codec is sized against.
func gobTally(t *testing.T, tally *mc.Tally) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tally); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompactCodecRoundTripGolden round-trips every golden-scenario tally
// through the compact codec and requires bit-exact equality — the wire
// format must never perturb a result, or the distributed reduction would
// drift from the local one.
func TestCompactCodecRoundTripGolden(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			tally, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			blob := mc.AppendTally(nil, tally)
			back, err := mc.DecodeTally(blob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tallyJSON(t, tally), tallyJSON(t, back)) {
				t.Fatal("compact codec round trip changed the tally")
			}
			wantVersion := byte(mc.TallyCodecVersion)
			if tally.Moments != nil {
				// Only moment-carrying tallies pay the version bump; every
				// legacy fixture must keep its v1 bytes.
				wantVersion = mc.TallyCodecVersionMoments
			}
			if blob[0] != wantVersion {
				t.Fatalf("frame leads with %d, want version byte %d", blob[0], wantVersion)
			}

			// The mostly-zero payloads are what the sparse runs exist for;
			// the compact frame must beat gob on every committed scenario.
			if gobBlob := gobTally(t, tally); len(blob) >= len(gobBlob) {
				t.Errorf("compact %dB not smaller than gob %dB", len(blob), len(gobBlob))
			}
		})
	}
}

// TestCompactCodecEmptyAndDense covers the degenerate shapes: a zero-value
// tally, and one where every optional section is present.
func TestCompactCodecEmptyAndDense(t *testing.T) {
	empty := &mc.Tally{}
	blob := mc.AppendTally(nil, empty)
	back, err := mc.DecodeTally(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyJSON(t, empty), tallyJSON(t, back)) {
		t.Fatal("zero tally did not round trip")
	}

	dense, err := mc.Run(&mc.Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 10, RMax: 30},
		AbsGrid:  &mc.GridSpec{N: 6, Edge: 20},
		PathGrid: &mc.GridSpec{N: 5, Edge: 16},
		PathHist: &mc.HistSpec{Min: 0, Max: 400, Bins: 32},
		Radial:   &mc.HistSpec{Min: 0, Max: 50, Bins: 25},
	}, 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	back, err = mc.DecodeTally(mc.AppendTally(nil, dense))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyJSON(t, dense), tallyJSON(t, back)) {
		t.Fatal("dense tally did not round trip")
	}
}

// TestTallyClone pins Clone to an exact, fully independent copy for the
// three tally shapes the service clones (scalar, grid-bearing, moments):
// the clone encodes to the same bytes, and mutating every slice, grid,
// histogram and moment of the clone leaves the original's bytes unchanged.
func TestTallyClone(t *testing.T) {
	head := tissue.AdultHead()
	for name, cfg := range map[string]*mc.Config{
		"scalar": {Model: head, Detector: detector.Annulus{RMin: 10, RMax: 30}},
		"grid": {Model: head, Detector: detector.Annulus{RMin: 10, RMax: 30},
			AbsGrid:  &mc.GridSpec{N: 6, Edge: 20},
			PathGrid: &mc.GridSpec{N: 5, Edge: 16},
			PathHist: &mc.HistSpec{Min: 0, Max: 400, Bins: 32},
			Radial:   &mc.HistSpec{Min: 0, Max: 50, Bins: 25}},
		"moments": {Model: head, TrackMoments: true},
	} {
		t.Run(name, func(t *testing.T) {
			orig, err := mc.Run(cfg, 600, 5)
			if err != nil {
				t.Fatal(err)
			}
			want := mc.AppendTally(nil, orig)
			clone := orig.Clone()
			if !bytes.Equal(mc.AppendTally(nil, clone), want) {
				t.Fatal("clone does not encode to the original's bytes")
			}
			clone.Launched++
			clone.LayerAbsorbed[0]++
			clone.LayerReached[0]++
			clone.LayerEnteredWeight[1]++
			if clone.AbsGrid != nil {
				clone.AbsGrid.Data[0]++
				clone.PathGrid.Data[0]++
				clone.PathHist.Counts[0]++
				clone.Radial.Counts[0]++
			}
			if clone.Moments != nil {
				clone.Moments.Diffuse.Add(1, 1)
			}
			if !bytes.Equal(mc.AppendTally(nil, orig), want) {
				t.Fatal("mutating the clone changed the original")
			}
		})
	}
}

// TestDecodeTallyIntoReuse checks a scratch tally can decode frames of
// different shapes back to back without leaking state between them.
func TestDecodeTallyIntoReuse(t *testing.T) {
	withGrid, err := mc.Run(&mc.Config{
		Model:   tissue.HomogeneousWhiteMatter(),
		AbsGrid: &mc.GridSpec{N: 6, Edge: 12},
		Radial:  &mc.HistSpec{Min: 0, Max: 30, Bins: 10},
	}, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 300, 6)
	if err != nil {
		t.Fatal(err)
	}

	var scratch mc.Tally
	if err := mc.DecodeTallyInto(&scratch, mc.AppendTally(nil, withGrid)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyJSON(t, withGrid), tallyJSON(t, &scratch)) {
		t.Fatal("first decode-into mismatch")
	}
	if err := mc.DecodeTallyInto(&scratch, mc.AppendTally(nil, plain)); err != nil {
		t.Fatal(err)
	}
	if scratch.AbsGrid != nil || scratch.Radial != nil {
		t.Fatal("optional sections leaked from a previous decode")
	}
	if !bytes.Equal(tallyJSON(t, plain), tallyJSON(t, &scratch)) {
		t.Fatal("second decode-into mismatch")
	}
}

// TestCompactCodecRejectsBadFrames exercises the decode-side validation:
// wrong version, truncations at every prefix, and trailing garbage must
// error out instead of panicking or fabricating data.
func TestCompactCodecRejectsBadFrames(t *testing.T) {
	tally, err := mc.Run(&mc.Config{
		Model:  tissue.AdultHead(),
		Radial: &mc.HistSpec{Min: 0, Max: 50, Bins: 20},
	}, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	blob := mc.AppendTally(nil, tally)

	if _, err := mc.DecodeTally(nil); err == nil {
		t.Error("empty frame accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = mc.TallyCodecVersionMoments + 1
	if _, err := mc.DecodeTally(bad); err == nil {
		t.Error("wrong version accepted")
	}
	// A legacy-version frame must not claim the moments section: the flag
	// bit only exists from version 2 on.
	v1moments := append([]byte(nil), blob...)
	v1moments[1] |= 1 << 4 // flags varint (single byte here): tallyHasMoments
	if _, err := mc.DecodeTally(v1moments); err == nil {
		t.Error("version-1 frame with moments flag accepted")
	}
	for cut := 1; cut < len(blob); cut += 7 {
		if _, err := mc.DecodeTally(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := mc.DecodeTally(append(append([]byte(nil), blob...), 0xAB)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestMergeSelfRejected pins the self-merge guard: folding a tally into
// itself used to double-count silently.
func TestMergeSelfRejected(t *testing.T) {
	tally, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	launched := tally.Launched
	if err := tally.Merge(tally); err == nil {
		t.Fatal("self-merge accepted")
	}
	if tally.Launched != launched {
		t.Fatalf("rejected self-merge still mutated the tally: launched %d -> %d",
			launched, tally.Launched)
	}
}

// TestMergeAtomicOnShapeError guards the reducer's requeue-and-recompute
// contract: a merge rejected for incompatible optional-section geometry
// must leave the destination bit-identical — a partial merge would
// double-count the scalars when the recomputed chunks land.
func TestMergeAtomicOnShapeError(t *testing.T) {
	base := func(gridN int) *mc.Tally {
		tally, err := mc.Run(&mc.Config{
			Model:    tissue.AdultHead(),
			Detector: detector.Annulus{RMin: 10, RMax: 30},
			AbsGrid:  &mc.GridSpec{N: gridN, Edge: 20},
			Radial:   &mc.HistSpec{Min: 0, Max: 50, Bins: 20},
		}, 300, 7)
		if err != nil {
			t.Fatal(err)
		}
		return tally
	}
	dst, before := base(6), tallyJSON(t, base(6))
	if err := dst.Merge(base(8)); err == nil { // mismatched grid dims
		t.Fatal("incompatible grid merge accepted")
	}
	if !bytes.Equal(before, tallyJSON(t, dst)) {
		t.Fatal("rejected merge mutated the destination tally")
	}

	bad, err := mc.Run(&mc.Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 10, RMax: 30},
		AbsGrid:  &mc.GridSpec{N: 6, Edge: 20},
		Radial:   &mc.HistSpec{Min: 0, Max: 50, Bins: 25}, // mismatched bins
	}, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Merge(bad); err == nil {
		t.Fatal("incompatible histogram merge accepted")
	}
	if !bytes.Equal(before, tallyJSON(t, dst)) {
		t.Fatal("rejected histogram merge mutated the destination tally")
	}
}

// fanCfg returns a fresh config for the fan tests (RunStreamFan normalises
// in place, so each call site builds its own).
func fanCfg() *mc.Config {
	return &mc.Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 10, RMax: 30},
		Radial:   &mc.HistSpec{Min: 0, Max: 60, Bins: 30},
	}
}

// TestRunStreamFanSingleMatchesRunStream pins fan ≤ 1 to the legacy
// single-stream path bit-for-bit: golden tallies and cached results from
// before the fan existed stay valid.
func TestRunStreamFanSingleMatchesRunStream(t *testing.T) {
	const n, seed, stream, streams = 600, 21, 2, 4
	want, err := mc.RunStream(fanCfg(), n, seed, stream, streams)
	if err != nil {
		t.Fatal(err)
	}
	for _, fan := range []int{0, 1} {
		got, err := mc.RunStreamFan(fanCfg(), n, seed, stream, streams, fan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tallyJSON(t, want), tallyJSON(t, got)) {
			t.Fatalf("fan=%d diverged from RunStream", fan)
		}
	}
}

// TestRunStreamFanDerivationPinned pins the fan decomposition at the mc
// level: a fanned chunk must equal the in-order merge of plain RunStream
// calls over the rng.FanSeed-derived sub-master — the exact recipe workers
// and verification tooling rely on to reproduce a chunk independently.
func TestRunStreamFanDerivationPinned(t *testing.T) {
	const n, seed, stream, streams, fan = 700, 33, 1, 3, 4
	got, err := mc.RunStreamFan(fanCfg(), n, seed, stream, streams, fan)
	if err != nil {
		t.Fatal(err)
	}

	cfg := fanCfg()
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	want := mc.NewTally(cfg)
	subSeed := rng.FanSeed(seed, stream)
	for i := 0; i < fan; i++ {
		share := int64(n / fan)
		if int64(i) < int64(n%fan) {
			share++
		}
		sub, err := mc.RunStream(cfg, share, subSeed, i, fan)
		if err != nil {
			t.Fatal(err)
		}
		if err := want.Merge(sub); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tallyJSON(t, want), tallyJSON(t, got)) {
		t.Fatal("fan decomposition diverged from the pinned sub-stream recipe")
	}
	if got.Launched != n {
		t.Fatalf("fanned run launched %d, want %d", got.Launched, n)
	}
}

// TestRunnerMatchesRunStream pins the scratch-reusing Runner to the plain
// per-chunk path bit-for-bit, including back-to-back chunks (stale scratch
// must never leak into a later chunk's tally).
func TestRunnerMatchesRunStream(t *testing.T) {
	cfg := fanCfg()
	cfg.PathGrid = &mc.GridSpec{N: 8, Edge: 20} // exercises the pooled visit buffers
	runner, err := mc.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seed, streams = 51, 5
	cache := rng.NewStreamCache(seed)
	for _, stream := range []int{3, 0, 4, 3} {
		want, err := mc.RunStream(cfg, 400, seed, stream, streams)
		if err != nil {
			t.Fatal(err)
		}
		got := runner.Run(400, cache.Stream(stream))
		if !bytes.Equal(tallyJSON(t, want), tallyJSON(t, got)) {
			t.Fatalf("runner diverged from RunStream on stream %d", stream)
		}
		// The one-shot primitive must agree too — RunWithRand on the
		// cached stream state is the documented equivalent of RunStream.
		oneShot, err := mc.RunWithRand(cfg, 400, cache.Stream(stream))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tallyJSON(t, want), tallyJSON(t, oneShot)) {
			t.Fatalf("RunWithRand diverged from RunStream on stream %d", stream)
		}
	}
}

// TestRunStreamFanIndependentOfGOMAXPROCS checks the goroutine count is an
// execution detail: the same fan width must produce the same bits no matter
// how many cores execute it (the heterogeneous-fleet reproducibility
// contract).
func TestRunStreamFanIndependentOfGOMAXPROCS(t *testing.T) {
	const n, seed, stream, streams, fan = 500, 44, 0, 2, 4
	prev := runtime.GOMAXPROCS(1)
	one, err := mc.RunStreamFan(fanCfg(), n, seed, stream, streams, fan)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := mc.RunStreamFan(fanCfg(), n, seed, stream, streams, fan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyJSON(t, one), tallyJSON(t, wide)) {
		t.Fatal("GOMAXPROCS changed a fanned chunk tally")
	}
}
