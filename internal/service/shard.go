package service

import (
	"encoding/binary"
	"math"
)

// Shard routing: the uint64 prefix of a job's content Key is partitioned
// into `shards` contiguous, equal-width ranges, and shard i owns the i-th
// range. Because job IDs are themselves derived from the same prefix
// (freeIDLocked), a stateless gateway can route POST /jobs by the key it
// computes from the request body and every GET /jobs/{id} by the ID alone
// — no routing table, no lookup service, no shared state. The mapping is
// a pure function of (key, shards): it survives gateway restarts, and
// renaming or re-ordering a shard's replicas never moves a key.

// ShardOfKey returns which of `shards` key-range shards owns k.
func ShardOfKey(k Key, shards int) int {
	return ShardOfID(binary.BigEndian.Uint64(k[:8]), shards)
}

// ShardOfID returns the shard owning a job ID. IDs are the big-endian
// uint64 prefix of the job's content key (plus a vanishingly rare linear
// probe on collision), so ShardOfID(id, n) agrees with ShardOfKey of the
// key the ID came from.
func ShardOfID(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	width := math.MaxUint64/uint64(shards) + 1
	i := int(id / width)
	if i >= shards { // the last range absorbs the rounding remainder
		i = shards - 1
	}
	return i
}

// KeyID is the job ID a registry derives from a content key (before the
// collision probe, which freeIDLocked starts from it): the big-endian
// uint64 of the key's first 8 bytes. Zero is reserved, so it maps to 1.
func KeyID(k Key) uint64 {
	id := binary.BigEndian.Uint64(k[:8])
	if id == 0 {
		id = 1
	}
	return id
}

// RoutingKeys normalizes the spec in place exactly as Submit will and
// returns its content key and physics key — what a gateway needs to pick
// the owning shard and to probe the shared result cache before routing
// (the normalized spec then also answers AdmissionPhotons).
// maxTargetPhotons must match the shards' own operator cap: it clamps a
// targeted submission's photon budget during normalization and therefore
// participates in the key (pass 0 for the default). Validation failures
// come back wrapped as InvalidJobError, like Submit's own.
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
// this, so gateway-side admission matches single-node admission.
func (s *JobSpec) AdmissionPhotons() int64 { return s.admissionPhotons() }
