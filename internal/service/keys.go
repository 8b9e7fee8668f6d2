package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"

	"repro/internal/canon"
	"repro/internal/mc"
)

// Key content-addresses a job result: the SHA-256 of the canonical
// encoding (internal/canon) of (Spec, TotalPhotons, ChunkPhotons, Seed),
// plus the fan and a precision target when set (deriveKeys). Those four
// fields are exactly what the reproducibility contract says a
// result depends on — the spec fixes the physics, the photon totals fix
// the chunking (and with it the RNG stream count), and the seed fixes
// the streams — so two submissions with equal keys produce bit-identical
// tallies and the second is answered by the first.
//
// canon, not gob: gob grants wire type IDs from a process-global
// first-encode-wins counter, so the byte stream for identical values
// depends on what else the process gob-encoded earlier (a worker
// connection's protocol traffic was enough to shift every subsequent
// key, which broke journal replay's job-ID stability). canon has no
// global state, so equal specs hash equally in every process.
type Key [sha256.Size]byte

// String renders the key as hex for logs and the HTTP API.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// MarshalText makes a Key a hex string in JSON (the result body's "key"
// and "physicsKey").
func (k Key) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is the inverse of MarshalText.
func (k *Key) UnmarshalText(text []byte) error {
	if len(text) != hex.EncodedLen(len(k)) {
		return fmt.Errorf("service: key %q is not %d hex digits", text, hex.EncodedLen(len(k)))
	}
	if _, err := hex.Decode(k[:], text); err != nil {
		return fmt.Errorf("service: key %q: %w", text, err)
	}
	return nil
}

// deriveKeys computes a job's content key and physics key in one canonical
// walk of the spec (keysOf and RoutingKeys are its callers).
//
// The content key hashes (Spec, TotalPhotons, ChunkPhotons, Seed), then the
// fan when it is > 1 — a fanned chunk decomposes into fan sub-streams, so
// the width changes every chunk tally — and then a precision target's
// normalized Target, whose job has TotalPhotons zero (the count is
// open-ended). Both are appended only when present, which keeps the key
// format, and with it every journaled key and restart-stable job ID of a
// plain fixed-count job, untouched.
//
// The physics key addresses what a tally *is* rather than how much of it was
// asked for: (Spec, ChunkPhotons, Seed, Fan) fixes the physics, the chunk
// decomposition and the RNG streams — everything but the stopping point. A
// moments-tracking run is indexed under it, so a precision target is
// answered by any retained run of the same decomposition that meets it,
// whether that run was itself targeted or fixed-count.
//
// The two hash inputs are different tuples around the same spec, which is
// all but a few dozen of their bytes (3.3 MB for a voxel head): each SHA-256
// state takes its own tuple's head and tail from canon.Split and both take
// the spec between them from one canon.Write, so each sees the bytes of its
// tuple encoded whole and no key moved (TestPinnedKeys).
func deriveKeys(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64, fan int, tgt *mc.Target) (key, pkey Key, err error) {
	keyHead, keyTail, err1 := canon.Split(&struct {
		Spec         canon.Hole
		TotalPhotons int64
		ChunkPhotons int64
		Seed         uint64
	}{TotalPhotons: totalPhotons, ChunkPhotons: chunkPhotons, Seed: seed})
	physHead, physTail, err2 := canon.Split(&struct {
		Physics      string // domain separator vs the job-key tuple
		Spec         canon.Hole
		ChunkPhotons int64
		Seed         uint64
		Fan          int
	}{Physics: "physics", ChunkPhotons: chunkPhotons, Seed: seed, Fan: fan})
	hk, hp := sha256.New(), sha256.New()
	hk.Write(keyHead)
	hp.Write(physHead)
	err3 := canon.Write(io.MultiWriter(hk, hp), spec)
	hk.Write(keyTail)
	hp.Write(physTail)
	var err4, err5 error
	if fan > 1 {
		err4 = canon.Write(hk, fan)
	}
	if tgt != nil {
		err5 = canon.Write(hk, tgt)
	}
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return Key{}, Key{}, fmt.Errorf("service: content keys: %w", err)
	}
	hk.Sum(key[:0])
	hp.Sum(pkey[:0])
	return key, pkey, nil
}
