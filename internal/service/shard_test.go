package service

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

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
// replica list from moving keys. The ranges cut the top 32 bits of an ID,
// so each starts on a multiple of 2^32.
func TestShardRangesContiguousAndExhaustive(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		width := (uint64(math.MaxUint32)/uint64(shards) + 1) << 32
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

// TestEveryJobIDNamesItsRoutingShard is the ID half of the routing property
// over every way a job is registered — fresh, coalesced onto a live one, an
// exact-key hit, a physics-key hit, and restored by journal replay — for
// specs with and without moments: whatever the path, the ID a registry
// mints lands GET /jobs/{id} on the shard POST /jobs was routed to.
func TestEveryJobIDNamesItsRoutingShard(t *testing.T) {
	dir := t.TempDir()
	reg, wl, _ := journaledRegistry(t, dir, 0, Options{})
	target := func(seed uint64, relErr float64) JobSpec {
		return JobSpec{Spec: targetSpec(5), ChunkPhotons: 100, Seed: seed,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: relErr}}
	}
	fresh := []JobSpec{
		{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 1},
		{Spec: slabSpec(6), TotalPhotons: 400, ChunkPhotons: 100, Seed: 2, Fan: 2},
		{Spec: targetSpec(5), TotalPhotons: 2000, ChunkPhotons: 100, Seed: 3},
		target(4, 0.05),
		target(5, 0.05),
	}
	byPath := map[string][]*Job{}
	submit := func(path string, js JobSpec) {
		t.Helper()
		out, err := reg.Submit(js)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if out.Coalesced != (path == "coalesced") || out.Cached != strings.HasSuffix(path, "hit") {
			t.Fatalf("%s came back %+v", path, out)
		}
		byPath[path] = append(byPath[path], out.Job)
	}
	for _, js := range fresh { // no workers yet: they stay live
		submit("fresh", js)
	}
	for _, js := range fresh {
		submit("coalesced", js)
	}
	startWorkers(t, reg, 2)
	for _, j := range byPath["fresh"] {
		if _, err := j.Wait(30 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	for _, js := range fresh {
		submit("exact hit", js)
	}
	// Looser targets over the two precision runs and over the fixed-count
	// run that tracked moments: other content keys, the same physics.
	for _, js := range []JobSpec{target(4, 0.5), target(5, 0.5), target(3, 0.9)} {
		submit("physics hit", js)
	}
	if e, p := reg.met.cacheHitExact.Value(), reg.met.cacheHitPhysics.Value(); e != 5 || p != 3 {
		t.Fatalf("hits by index: exact %d, physics %d; want 5 and 3", e, p)
	}
	wl.Close()
	replayed, wlB, restored := replayInto(t, dir, Options{})
	defer wlB.Close()
	if restored != len(fresh) {
		t.Fatalf("replay restored %d jobs, want %d", restored, len(fresh))
	}
	for _, st := range replayed.List() {
		byPath["replayed"] = append(byPath["replayed"], replayed.Get(st.ID))
	}

	moved := false
	for path, jobs := range byPath {
		for _, j := range jobs {
			route := RouteKey(&j.spec, j.key, j.pkey)
			if route != j.key {
				moved = true
			}
			for _, n := range []int{2, 3, 5} {
				if got, want := ShardOfID(j.ID(), n), ShardOfKey(route, n); got != want {
					t.Errorf("%s job %016x: ID names shard %d of %d, its routing key shard %d", path, j.ID(), got, n, want)
				}
			}
		}
	}
	if !moved {
		t.Fatal("no job routed by its physics key: the test covers nothing RouteKey changes")
	}
}
