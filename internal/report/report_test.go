package report

import (
	"bytes"
	"encoding/gob"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
)

func testSpec() *mc.Spec {
	return mc.NewSpec(tissue.AdultHead(),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 5, RMax: 15})
}

func runChunk(tb testing.TB, spec *mc.Spec, stream, streams int) *mc.Tally {
	tb.Helper()
	cfg, err := spec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	tally, err := mc.RunStream(cfg, 1000, 7, stream, streams)
	if err != nil {
		tb.Fatal(err)
	}
	return tally
}

// TestWriteReadRoundTrip: a file reads back as it was written — spec,
// provenance and every bit of the tally, grids and histograms included.
func TestWriteReadRoundTrip(t *testing.T) {
	spec := testSpec()
	spec.PathGrid = &mc.GridSpec{N: 8, Edge: 40}
	spec.PathHist = &mc.HistSpec{Min: 0, Max: 500, Bins: 50}
	spec.TrackMoments = true
	f, err := New(spec, 7, 2, "w0", runChunk(t, spec, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mc.AppendTally(nil, got.Tally), mc.AppendTally(nil, f.Tally)) {
		t.Fatal("tally bits changed in round trip")
	}
	if got.SpecDigest != f.SpecDigest || got.Seed != 7 || got.Streams != 2 || got.Worker != "w0" {
		t.Fatalf("metadata lost: %+v", got)
	}
	if !reflect.DeepEqual(got.Spec, f.Spec) {
		t.Fatalf("spec changed in round trip:\n got %+v\nwant %+v", got.Spec, f.Spec)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a tally file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// A well-formed file under another magic must also fail.
	spec := testSpec()
	f, err := New(spec, 7, 2, "w0", runChunk(t, spec, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte(magic), []byte("phomc-tally-v9"), 1)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("wrong magic accepted")
	}
	// So must every cut of a good file, and a flipped digest.
	good := buf.Bytes()
	for n := 0; n < len(good); n += 1 + n/8 {
		if _, err := Read(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("file cut to %d of %d bytes accepted", n, len(good))
		}
	}
	flipped := bytes.Clone(good)
	flipped[len(magic)+1] ^= 1
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Fatal("file with a corrupt digest accepted")
	}
}

// v1File is the first tally-file format: a gob of this shape.
type v1File struct {
	Magic      string
	SpecDigest string
	Spec       mc.Spec
	Seed       uint64
	Streams    int
	Worker     string
	Tally      *mc.Tally
}

// gobV1File encodes f as the first format did.
func gobV1File(tb testing.TB, f *File) []byte {
	tb.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&v1File{Magic: gobMagic, SpecDigest: f.SpecDigest, Spec: f.Spec,
		Seed: f.Seed, Streams: f.Streams, Worker: f.Worker, Tally: f.Tally})
	if err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRefusesGobV1File: a file of the first, gob format is refused
// with an error that names it, not read as garbage.
func TestReadRefusesGobV1File(t *testing.T) {
	spec := testSpec()
	f, err := New(spec, 7, 2, "w0", runChunk(t, spec, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Read(bytes.NewReader(gobV1File(t, f)))
	if err == nil || !strings.Contains(err.Error(), "gob") || !strings.Contains(err.Error(), gobMagic) {
		t.Fatalf("gob v1 file: Read returned %v, want a refusal naming its format", err)
	}
}

// FuzzReadReport throws arbitrary bytes at the tally-file reader — a file
// is whatever a user hands mcmerge. It must never panic, and a file it
// accepts must carry a tally and the digest of its own spec.
func FuzzReadReport(f *testing.F) {
	spec := testSpec()
	file, err := New(spec, 7, 2, "w0", runChunk(f, spec, 0, 2))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := file.Write(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(gobV1File(f, file))
	f.Add([]byte(magic))
	f.Add([]byte(magic + "\xff\xff\xff\xff\x0f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.Tally == nil {
			t.Fatal("Read accepted a file without a tally")
		}
		if d, err := Digest(&got.Spec); err != nil || d != got.SpecDigest {
			t.Fatalf("Read accepted a file whose digest %q is not its spec's (%q, %v)", got.SpecDigest, d, err)
		}
	})
}

func TestDigestDistinguishesSpecs(t *testing.T) {
	a, err := Digest(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	other := testSpec()
	other.Detector.RMax = 20
	b, err := Digest(other)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different specs share a digest")
	}
	again, _ := Digest(testSpec())
	if a != again {
		t.Fatal("digest not deterministic")
	}
}

func TestMergeMatchesSingleRun(t *testing.T) {
	spec := testSpec()
	t0 := runChunk(t, spec, 0, 2)
	t1 := runChunk(t, spec, 1, 2)

	f0, err := New(spec, 7, 2, "w0", t0)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := New(spec, 7, 2, "w1", t1)
	if err != nil {
		t.Fatal(err)
	}
	if err := f0.Merge(f1); err != nil {
		t.Fatal(err)
	}
	if f0.Tally.Launched != 2000 {
		t.Fatalf("merged launched %d", f0.Tally.Launched)
	}
	if f0.Worker != "w0+w1" {
		t.Fatalf("provenance %q", f0.Worker)
	}

	// Ground truth: the same two streams merged directly.
	cfg, _ := spec.Build()
	want := mc.NewTally(cfg)
	want.Merge(runChunk(t, spec, 0, 2))
	want.Merge(runChunk(t, spec, 1, 2))
	if math.Abs(f0.Tally.AbsorbedWeight-want.AbsorbedWeight) > 1e-9 {
		t.Fatal("file merge diverged from direct merge")
	}
}

func TestMergeRejectsForeignResults(t *testing.T) {
	spec := testSpec()
	f0, _ := New(spec, 7, 2, "w0", runChunk(t, spec, 0, 2))

	other := testSpec()
	other.Detector.RMax = 99
	cfgOther, err := other.Build()
	if err != nil {
		t.Fatal(err)
	}
	tallyOther, err := mc.RunStream(cfgOther, 1000, 7, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	fOther, _ := New(other, 7, 2, "wX", tallyOther)
	if err := f0.Merge(fOther); err == nil {
		t.Fatal("merged results of different experiments")
	}

	// Same spec, different seed: also refused.
	fSeed, _ := New(spec, 8, 2, "wY", runChunk(t, spec, 1, 2))
	if err := f0.Merge(fSeed); err == nil {
		t.Fatal("merged results with different seeds")
	}
}

func TestSaveLoadMergeFiles(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec()
	paths := make([]string, 3)
	for i := range paths {
		f, err := New(spec, 7, 3, "w", runChunk(t, spec, i, 3))
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "part"+string(rune('0'+i))+".tally")
		if err := f.Save(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	total, err := MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if total.Tally.Launched != 3000 {
		t.Fatalf("merged launched %d, want 3000", total.Tally.Launched)
	}
	if _, err := MergeFiles(); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeFiles(filepath.Join(dir, "missing.tally")); err == nil {
		t.Fatal("missing file accepted")
	}
}
