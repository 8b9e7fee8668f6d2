package service

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mc"
)

// TestShardRoutingIsPureFunctionOfKey is the routing property test: shard
// assignment depends on nothing but (key bytes, shard count) — no gateway
// state, no clock, no registration order — so any two gateways (or one
// gateway across restarts) route identically, and the key→ID derivation
// lands GETs on the same shard POSTs went to.
func TestShardRoutingIsPureFunctionOfKey(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10_000; trial++ {
		var k Key
		rng.Read(k[:])
		for _, shards := range []int{1, 2, 3, 4, 7, 16} {
			got := ShardOfKey(k, shards)
			if got < 0 || got >= shards {
				t.Fatalf("ShardOfKey(%x, %d) = %d out of range", k[:8], shards, got)
			}
			if again := ShardOfKey(k, shards); again != got {
				t.Fatalf("ShardOfKey not deterministic: %d then %d", got, again)
			}
			// The ID a registry mints from this key routes to the same
			// shard (modulo the reserved-zero nudge, which stays in shard
			// 0's range).
			if byID := ShardOfID(KeyID(k), shards); byID != got {
				t.Fatalf("ShardOfID(KeyID) = %d, ShardOfKey = %d (shards %d, key %x)",
					byID, got, shards, k[:8])
			}
		}
	}
}

// TestShardRangesContiguousAndExhaustive pins the partition shape: walking
// IDs upward crosses each shard exactly once, in order — the property that
// makes "shard i owns range i" documentation true and keeps a renumbered
// replica list from moving keys.
func TestShardRangesContiguousAndExhaustive(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		width := uint64(math.MaxUint64)/uint64(shards) + 1
		prev := -1
		for s := 0; s < shards; s++ {
			lo := width * uint64(s)
			cur := ShardOfID(lo, shards)
			if cur != prev+1 {
				t.Fatalf("shards=%d: range start %d maps to shard %d, want %d",
					shards, lo, cur, prev+1)
			}
			// The range is closed under its width (last shard absorbs the
			// remainder up to MaxUint64).
			hi := uint64(math.MaxUint64)
			if s < shards-1 {
				hi = lo + width - 1
			}
			if got := ShardOfID(hi, shards); got != cur {
				t.Fatalf("shards=%d: range end %d maps to shard %d, want %d",
					shards, hi, got, cur)
			}
			prev = cur
		}
		if prev != shards-1 {
			t.Fatalf("shards=%d: walk ended on shard %d", shards, prev)
		}
	}
	if got := ShardOfID(0, 4); got != 0 {
		t.Fatalf("ShardOfID(0) = %d, want 0", got)
	}
	if got := ShardOfID(math.MaxUint64, 4); got != 3 {
		t.Fatalf("ShardOfID(max) = %d, want 3", got)
	}
}

// TestRoutingKeysMatchSubmit pins the gateway's key derivation to the
// registry's own: RoutingKeys on a request-shaped spec yields exactly the
// key Submit files the job under (observable through the minted ID).
func TestRoutingKeysMatchSubmit(t *testing.T) {
	mk := func() JobSpec {
		return JobSpec{Spec: slabSpec(6), TotalPhotons: 400, ChunkPhotons: 100, Seed: 9}
	}
	routed := mk()
	key, pkey, err := RoutingKeys(&routed, 0)
	if err != nil {
		t.Fatalf("RoutingKeys: %v", err)
	}
	if pkey == (Key{}) || key == pkey {
		t.Fatalf("physics key missing or equal to content key")
	}
	reg := New(Options{})
	out, err := reg.Submit(mk())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if want := KeyID(key); out.Job.ID() != want {
		t.Fatalf("Submit minted id %016x, RoutingKeys predicts %016x", out.Job.ID(), want)
	}
	if got := binary.BigEndian.Uint64(key[:8]); KeyID(key) != got && got != 0 {
		t.Fatalf("KeyID(%x) = %d", key[:8], KeyID(key))
	}
	// Malformed specs come back typed, exactly like Submit's own 422 path.
	bad := JobSpec{Spec: slabSpec(6)} // no photons, no target
	if _, _, err := RoutingKeys(&bad, 0); !IsInvalid(err) {
		t.Fatalf("RoutingKeys on invalid spec: %v (want InvalidJobError)", err)
	}
	// So do scoring structures past the bounds the tally codec shares, from
	// both entry points and before a tally is sized for them.
	for name, over := range map[string]func(*mc.Spec){
		"grid": func(s *mc.Spec) { s.AbsGrid = &mc.GridSpec{N: mc.MaxGridN + 1, Edge: 10} },
		"hist": func(s *mc.Spec) { s.Radial = &mc.HistSpec{Max: 1, Bins: mc.MaxHistBins + 1} },
	} {
		huge := mk()
		huge.Spec = slabSpec(6)
		over(huge.Spec)
		if _, _, err := RoutingKeys(&huge, 0); !IsInvalid(err) || !strings.Contains(err.Error(), "limit") {
			t.Fatalf("RoutingKeys on an over-bound %s: %v (want InvalidJobError naming the limit)", name, err)
		}
		if _, err := reg.Submit(huge); !IsInvalid(err) {
			t.Fatalf("Submit of an over-bound %s: %v (want InvalidJobError)", name, err)
		}
	}
}
