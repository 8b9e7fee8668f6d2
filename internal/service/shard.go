package service

import (
	"encoding/binary"
	"math"
)

// Shard routing: the leading 32 bits of a job's routing key (RouteKey) are
// partitioned into `shards` contiguous, equal-width ranges, and shard i owns
// the i-th range. Because a job's ID carries the same 32 bits on top
// (JobID), a stateless gateway can route POST /jobs by the key it computes
// from the request body and every GET /jobs/{id} by the ID alone — no
// routing table, no lookup service, no shared state. The mapping is a pure
// function of (key, shards): it survives gateway restarts, and renaming or
// re-ordering a shard's replicas never moves a key.

// RouteKey is the key a normalized submission is routed by and its job ID's
// shard bits taken from: the physics key when the spec tracks moments, the
// content key otherwise. Moments-tracking specs are exactly the ones the physics
// index serves — only their tallies are filed there (PutPhysics), and only
// targeted submissions, which force moments on, look a tally up there
// (GetMeeting) — so every variant of one physics, fixed-count or any
// target, lands on the shard whose cache holds the deepest run of it.
// Every other spec keeps its content-key route.
func RouteKey(spec *JobSpec, key, pkey Key) Key {
	if spec.Spec.TrackMoments {
		return pkey
	}
	return key
}

// ShardOfKey returns which of `shards` key-range shards owns k.
func ShardOfKey(k Key, shards int) int {
	return ShardOfID(binary.BigEndian.Uint64(k[:8]), shards)
}

// ShardOfID returns the shard owning a job ID from its top 32 bits alone.
// Those are the routing key's (JobID; a collision probe that carries into
// them is vanishingly rare), so ShardOfID(id, n) agrees with ShardOfKey of
// the key the job was routed by.
func ShardOfID(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	width := math.MaxUint32/uint64(shards) + 1
	i := int(id >> 32 / width)
	if i >= shards { // the last range absorbs the rounding remainder
		i = shards - 1
	}
	return i
}

// KeyID is the big-endian uint64 of a key's first 8 bytes — the ID of a
// job routed by its content key. Zero is reserved, so it maps to 1.
func KeyID(k Key) uint64 {
	id := binary.BigEndian.Uint64(k[:8])
	if id == 0 {
		id = 1
	}
	return id
}

// JobID is the ID a registry derives for a normalized submission (before
// the collision probe, which freeIDLocked starts from it): KeyID(key) with
// its top 32 bits, the ones ShardOfID reads, taken from the routing key.
// So a moments-tracking job's ID names its physics key's shard, yet each
// variant of one physics keeps an ID of its own content — a journal
// replays every job under the ID it was accepted with, in whatever order.
// A job routed by its content key keeps KeyID(key) unchanged.
func JobID(spec *JobSpec, key, pkey Key) uint64 {
	id := RouteKey(spec, key, pkey)
	copy(id[4:8], key[4:8])
	return KeyID(id)
}

// RoutingKeys normalizes the spec in place exactly as Submit will and
// returns its content key and physics key — what a gateway needs to pick
// the owning shard (RouteKey) — and the normalized spec then also answers
// AdmissionPhotons. maxTargetPhotons must match the shards' own operator
// cap: it clamps a targeted submission's photon budget during normalization
// and therefore participates in the key (pass 0 for the default).
// Validation failures come back wrapped as InvalidJobError, like Submit's
// own.
func RoutingKeys(spec *JobSpec, maxTargetPhotons int64) (key, pkey Key, err error) {
	if err := spec.Normalize(maxTargetPhotons); err != nil {
		return Key{}, Key{}, err
	}
	key, pkey, err = keysOf(spec)
	if err != nil {
		return Key{}, Key{}, invalid(err)
	}
	return key, pkey, nil
}

// Normalize is the cheap first half of RoutingKeys on its own — defaults
// filled and the tuple validated in place, nothing hashed — for a gateway
// that must tell a malformed job (422) from one it may shed unkeyed (429).
// It is idempotent; failures are InvalidJobError.
func (s *JobSpec) Normalize(maxTargetPhotons int64) error {
	if err := s.normalize(maxTargetPhotons); err != nil {
		return invalid(err)
	}
	return nil
}

// AdmissionPhotons exposes the photon cost admission charges for a
// normalized submission — the fixed budget, or a targeted job's
// guaranteed minimum. A gateway holding the tenant buckets debits exactly
// this for every submission it forwards: it cannot see a shard's cache, so
// a resubmission its shard answers from there pays what fresh work would.
func (s *JobSpec) AdmissionPhotons() int64 { return s.admissionPhotons() }
