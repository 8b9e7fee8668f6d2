// Package report persists simulation results: tally files that can be
// saved by workers, shipped around, merged offline (the sneakernet version
// of the DataManager's reduction) and rendered as text reports. The file
// format carries the spec alongside the tally so merges can verify the
// partial results belong to the same experiment.
package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/canon"
	"repro/internal/mc"
	"repro/internal/wire"
)

// A tally file is a header and the tally in the compact codec:
//
//	magic · digest · spec · uvarint seed · varint streams · worker · mc.AppendTally
//
// in internal/wire's primitives: digest, spec (its JSON) and worker are a
// uvarint length and the bytes. The magic guards against feeding arbitrary files into the merger;
// gobMagic is the first format's, a gob File, which is refused by name.
const (
	magic    = "phomc-tally-v2"
	gobMagic = "phomc-tally-v1"
)

// File is the persisted form of one (partial) simulation result.
type File struct {
	// SpecDigest fingerprints the experiment; only files with identical
	// digests may be merged.
	SpecDigest string
	Spec       mc.Spec
	// Meta records provenance.
	Seed    uint64
	Streams int
	Worker  string
	Tally   *mc.Tally
}

// Digest fingerprints a Spec by hashing its canonical encoding
// (internal/canon). The merge gate compares digests computed by different
// worker processes, so the encoding must not depend on process history.
func Digest(spec *mc.Spec) (string, error) {
	h := sha256.New()
	if err := canon.Write(h, spec); err != nil {
		return "", fmt.Errorf("report: digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// New wraps a tally with its experiment fingerprint.
func New(spec *mc.Spec, seed uint64, streams int, worker string, tally *mc.Tally) (*File, error) {
	d, err := Digest(spec)
	if err != nil {
		return nil, err
	}
	return &File{
		SpecDigest: d,
		Spec:       *spec,
		Seed:       seed,
		Streams:    streams,
		Worker:     worker,
		Tally:      tally,
	}, nil
}

// Write encodes the file to w.
func (f *File) Write(w io.Writer) error {
	spec, err := json.Marshal(&f.Spec)
	if err != nil {
		return fmt.Errorf("report: write: %w", err)
	}
	b := append([]byte(nil), magic...)
	b = wire.AppendString(b, f.SpecDigest)
	b = wire.AppendBytes(b, spec)
	b = wire.AppendUvarint(b, f.Seed)
	b = wire.AppendVarint(b, int64(f.Streams))
	b = wire.AppendString(b, f.Worker)
	if _, err := w.Write(mc.AppendTally(b, f.Tally)); err != nil {
		return fmt.Errorf("report: write: %w", err)
	}
	return nil
}

// Read decodes a result file and validates its header.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("report: read: %w", err)
	}
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		if bytes.Contains(data, []byte(gobMagic)) {
			return nil, fmt.Errorf("report: a gob %s file; this build reads %s only", gobMagic, magic)
		}
		return nil, fmt.Errorf("report: not a tally file")
	}
	hdr := wire.NewReader(rest)
	f := File{SpecDigest: hdr.Text()}
	spec := hdr.Bytes()
	f.Seed, f.Streams, f.Worker = hdr.Uvarint(), int(hdr.Varint()), hdr.Text()
	if err := hdr.Err(); err != nil {
		return nil, fmt.Errorf("report: tally file header: %w", err)
	}
	if err := json.Unmarshal(spec, &f.Spec); err != nil {
		return nil, fmt.Errorf("report: spec: %w", err)
	}
	if f.Tally, err = mc.DecodeTally(hdr.Rest()); err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	want, err := Digest(&f.Spec)
	if err != nil {
		return nil, err
	}
	if want != f.SpecDigest {
		return nil, fmt.Errorf("report: spec digest mismatch (corrupt file?)")
	}
	return &f, nil
}

// Save writes the file to path.
func (f *File) Save(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Load reads a result file from path.
func Load(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}

// Merge folds others into f. All files must share the spec digest, seed and
// stream count — i.e. be partial results of the same experiment.
func (f *File) Merge(others ...*File) error {
	for _, o := range others {
		if o.SpecDigest != f.SpecDigest {
			return fmt.Errorf("report: merging results of different experiments (%s vs %s)",
				f.SpecDigest, o.SpecDigest)
		}
		if o.Seed != f.Seed || o.Streams != f.Streams {
			return fmt.Errorf("report: merging results with different seeding (%d/%d vs %d/%d)",
				f.Seed, f.Streams, o.Seed, o.Streams)
		}
		if err := f.Tally.Merge(o.Tally); err != nil {
			return err
		}
		f.Worker = f.Worker + "+" + o.Worker
	}
	return nil
}

// MergeFiles loads every path and merges them into one result.
func MergeFiles(paths ...string) (*File, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("report: no files to merge")
	}
	total, err := Load(paths[0])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", paths[0], err)
	}
	for _, p := range paths[1:] {
		next, err := Load(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if err := total.Merge(next); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return total, nil
}
