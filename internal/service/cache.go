package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
	return keyOf(spec, totalPhotons, chunkPhotons, seed, fan, nil)
}

// KeyOfTarget is the content address of a precision-targeted job: the
// fixed-count tuple (with TotalPhotons zero — the count is open-ended)
// extended by the normalized Target, appended the same trailing way the
// fan is so every fixed-count key is untouched.
func KeyOfTarget(spec *mc.Spec, chunkPhotons int64, seed uint64, fan int, tgt *mc.Target) (Key, error) {
	return keyOf(spec, 0, chunkPhotons, seed, fan, tgt)
}

func keyOf(spec *mc.Spec, totalPhotons, chunkPhotons int64, seed uint64, fan int, tgt *mc.Target) (Key, error) {
	h := sha256.New()
	canonical := struct {
		Spec         *mc.Spec
		TotalPhotons int64
		ChunkPhotons int64
		Seed         uint64
	}{spec, totalPhotons, chunkPhotons, seed}
	if err := canon.Write(h, &canonical); err != nil {
		return Key{}, fmt.Errorf("service: cache key: %w", err)
	}
	if fan > 1 {
		if err := canon.Write(h, fan); err != nil {
			return Key{}, fmt.Errorf("service: cache key: %w", err)
		}
	}
	if tgt != nil {
		if err := canon.Write(h, tgt); err != nil {
			return Key{}, fmt.Errorf("service: cache key: %w", err)
		}
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// PhysicsKeyOf addresses what a tally *is* rather than how much of it was
// asked for: the (Spec, ChunkPhotons, Seed, Fan) tuple that fixes the
// physics, the chunk decomposition and the RNG streams — everything but
// the stopping point. Every moments-tracking result is indexed under its
// physics key so a precision-targeted request can be served by any stored
// run of the same decomposition that meets-or-exceeds it (more photons,
// tighter RSE), whether that run was itself targeted or fixed-count.
func PhysicsKeyOf(spec *mc.Spec, chunkPhotons int64, seed uint64, fan int) (Key, error) {
	h := sha256.New()
	canonical := struct {
		Physics      string // domain separator vs the job-key tuple
		Spec         *mc.Spec
		ChunkPhotons int64
		Seed         uint64
		Fan          int
	}{"physics", spec, chunkPhotons, seed, fan}
	if err := canon.Write(h, &canonical); err != nil {
		return Key{}, fmt.Errorf("service: physics key: %w", err)
	}
	var k Key
	h.Sum(k[:0])
	return k, nil
}

// ResultCache is a bounded FIFO-evicting map from job key to completed
// tally, plus a physics-keyed side index serving meets-or-exceeds
// precision lookups (one entry per physics key: the deepest — most
// photons — stored run of that decomposition). Both tiers use it: the
// registry's per-shard cache and the gateway's shared result tier.
//
// It is a pure container of immutable tallies: Put stores the pointer it
// is given and Get returns it. A caller whose results may be merged into
// (the registry) clones on the way in and on the way out, off this lock;
// one that only re-encodes them (the gateway) never clones. A nil
// *ResultCache is a disabled cache: every lookup misses, every put is
// dropped.
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
