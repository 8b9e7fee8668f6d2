package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/canon"
	"repro/internal/mc"
)

// Key content-addresses a job result: the SHA-256 of the canonical
// encoding (internal/canon) of (Spec, TotalPhotons, ChunkPhotons, Seed).
// Those four fields are exactly what the reproducibility contract says a
// result depends on — the spec fixes the physics, the photon totals fix
// the chunking (and with it the RNG stream count), and the seed fixes
// the streams — so two submissions with equal keys produce bit-identical
// tallies and the second can be served from cache.
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

// KeyOf computes the content address of a job.
func KeyOf(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64) (Key, error) {
	return KeyOfFan(spec, totalPhotons, chunkPhotons, seed, 0)
}

// KeyOfFan is KeyOf for fanned jobs: a fan width > 1 changes every chunk
// tally (the chunk decomposes into fan sub-streams), so it must be part of
// the content address. The fan is appended to the hash input only when it
// is > 1, which keeps the key *format* — and with it every existing cache
// entry and restart-stable job ID of legacy single-stream jobs — untouched.
func KeyOfFan(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64, fan int) (Key, error) {
	key, _, err := deriveKeys(spec, totalPhotons, chunkPhotons, seed, fan, nil)
	return key, err
}

// KeyOfTarget is the content address of a precision-targeted job: the
// fixed-count tuple (with TotalPhotons zero — the count is open-ended)
// extended by the normalized Target, appended the same trailing way the
// fan is so every fixed-count key is untouched.
func KeyOfTarget(spec *mc.Spec, chunkPhotons int64, seed uint64, fan int, tgt *mc.Target) (Key, error) {
	key, _, err := deriveKeys(spec, 0, chunkPhotons, seed, fan, tgt)
	return key, err
}

// PhysicsKeyOf addresses what a tally *is* rather than how much of it was
// asked for: the (Spec, ChunkPhotons, Seed, Fan) tuple that fixes the
// physics, the chunk decomposition and the RNG streams — everything but
// the stopping point. Every moments-tracking result is indexed under its
// physics key so a precision-targeted request can be served by any stored
// run of the same decomposition that meets-or-exceeds it (more photons,
// tighter RSE), whether that run was itself targeted or fixed-count.
func PhysicsKeyOf(spec *mc.Spec, chunkPhotons int64, seed uint64, fan int) (Key, error) {
	_, pkey, err := deriveKeys(spec, 0, chunkPhotons, seed, fan, nil)
	return pkey, err
}

// deriveKeys computes a job's content key and physics key in one canonical
// walk of the spec. The two hash inputs are different tuples around the same
// spec, which is all but a few dozen of their bytes (3.3 MB for a voxel
// head): each SHA-256 state takes its own tuple's head and tail from
// canon.Split and both take the spec between them from one canon.Write, so
// each sees the bytes of its tuple encoded whole and no key moved
// (TestPinnedKeys). The exported single-key functions return one of the two.
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

// ResultCache is a bounded FIFO-evicting map from job key to completed
// tally, plus a physics-keyed side index serving meets-or-exceeds
// precision lookups (one entry per physics key: the deepest — most
// photons — stored run of that decomposition). Each registry holds one;
// a gateway holds none, and routes every variant of a physics to the shard
// whose cache serves it (RouteKey).
//
// It is a pure container of immutable tallies: Put stores the pointer it
// is given and Get returns it, and nobody clones around it — a registry
// files a job's tally once the job is done and nothing merges into it
// again (Result.Tally is read-only). A nil *ResultCache is a disabled
// cache: every lookup misses, every put is dropped.
type ResultCache struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*mc.Tally
	order   []Key

	physics      map[Key]*mc.Tally
	physicsOrder []Key
}

// NewResultCache bounds each index to max entries; 0 means 256, negative
// returns the nil (disabled) cache.
func NewResultCache(max int) *ResultCache {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = 256
	}
	return &ResultCache{
		max:     max,
		entries: make(map[Key]*mc.Tally),
		physics: make(map[Key]*mc.Tally),
	}
}

// Get returns the tally stored under the exact content key, or nil.
func (c *ResultCache) Get(k Key) *mc.Tally {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[k]
}

// Put stores a completed tally under its exact content key.
func (c *ResultCache) Put(k Key, t *mc.Tally) {
	if c == nil || t == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[k]; !ok {
		c.order = append(c.order, k)
		if len(c.order) > c.max {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.entries[k] = t
}

// PutPhysics indexes a moments-carrying tally under its physics key,
// keeping the deepest run per key (a later shallower run must not evict a
// stored result that satisfies stricter targets).
func (c *ResultCache) PutPhysics(pk Key, t *mc.Tally) {
	if c == nil || t == nil || t.Moments == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.physics[pk]; ok {
		if t.Launched > cur.Launched {
			c.physics[pk] = t
		}
		return
	}
	c.physicsOrder = append(c.physicsOrder, pk)
	if len(c.physicsOrder) > c.max {
		delete(c.physics, c.physicsOrder[0])
		c.physicsOrder = c.physicsOrder[1:]
	}
	c.physics[pk] = t
}

// GetMeeting returns the physics-indexed tally for pk if it satisfies tgt
// (photon floor reached, RSE at or below the requested relative error) —
// the meets-or-exceeds cache hit of precision-targeted submissions. A
// request is never penalised for a stored run having spent *more* photons
// than its own cap: the extra precision is free.
func (c *ResultCache) GetMeeting(pk Key, tgt *mc.Target) *mc.Tally {
	if c == nil || tgt == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.physics[pk]; ok && tgt.MetBy(t) {
		return t
	}
	return nil
}

// Len reports the number of exact-key entries.
func (c *ResultCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
