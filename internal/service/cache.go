package service

import (
	"crypto/sha256"
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
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

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

// cache is a bounded FIFO-evicting map from job key to completed tally,
// plus a physics-keyed side index serving meets-or-exceeds precision
// lookups (one entry per physics key: the deepest — most photons — stored
// run of that decomposition). It carries its own lock so the tally clones
// in get/put (a megabyte for a 50³ grid) never stall the registry mutex
// (and with it the whole fleet).
type cache struct {
	mu      sync.Mutex
	max     int
	entries map[Key]*mc.Tally
	order   []Key
	hits    int64
	misses  int64

	physics      map[Key]*mc.Tally
	physicsOrder []Key
}

func newCache(max int) *cache {
	if max < 0 {
		return nil
	}
	if max == 0 {
		max = 256
	}
	return &cache{
		max:     max,
		entries: make(map[Key]*mc.Tally),
		physics: make(map[Key]*mc.Tally),
	}
}

// get returns a deep copy of the cached tally (callers may mutate results).
func (c *cache) get(k Key) *mc.Tally {
	return c.getCounted(k, true)
}

// getCounted is get with the miss counter optional: a lookup that falls
// through to a second index (the physics lookup of precision submissions)
// must record one miss for the whole submission, not one per index probed
// — or the /stats hit rate operators size the cache by is skewed.
func (c *cache) getCounted(k Key, recordMiss bool) *mc.Tally {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.entries[k]
	if !ok {
		if recordMiss {
			c.misses++
		}
		return nil
	}
	c.hits++
	return t.Clone()
}

// put stores a deep copy of a pre-cloned tally: the live tally is also
// handed to Wait callers, who are free to Merge into it; the cache entry
// must not alias it. Callers clone before put so the copy can happen
// outside any lock they hold.
func (c *cache) put(k Key, clone *mc.Tally) {
	if c == nil || clone == nil {
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
	c.entries[k] = clone
}

// putPhysics indexes a pre-cloned moments-carrying tally under its physics
// key, keeping the deepest run per key (a later shallower run must not
// evict a stored result that satisfies stricter targets).
func (c *cache) putPhysics(pk Key, clone *mc.Tally) {
	if c == nil || clone == nil || clone.Moments == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.physics[pk]; ok {
		if clone.Launched > cur.Launched {
			c.physics[pk] = clone
		}
		return
	}
	c.physicsOrder = append(c.physicsOrder, pk)
	if len(c.physicsOrder) > c.max {
		delete(c.physics, c.physicsOrder[0])
		c.physicsOrder = c.physicsOrder[1:]
	}
	c.physics[pk] = clone
}

// getMeeting returns a deep copy of the physics-indexed tally for pk if it
// satisfies tgt (photon floor reached, RSE at or below the requested
// relative error) — the meets-or-exceeds cache hit of precision-targeted
// submissions. A request is never penalised for a stored run having spent
// *more* photons than its own cap: the extra precision is free.
func (c *cache) getMeeting(pk Key, tgt *mc.Target) *mc.Tally {
	if c == nil || tgt == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.physics[pk]
	if !ok || !tgt.MetBy(t) {
		c.misses++
		return nil
	}
	c.hits++
	return t.Clone()
}

// stats snapshots the entry count and hit/miss counters.
func (c *cache) stats() (entries int, hits, misses int64) {
	if c == nil {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.hits, c.misses
}
