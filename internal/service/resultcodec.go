package service

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/mc"
)

// ResultCompactType is the media type of the compact result encoding. A
// routing tier names it in Accept on GET /jobs/{id}/result; a 200 answer
// then carries it as Content-Type and AppendResult's bytes as the body.
// Every other status keeps its JSON body either way.
const ResultCompactType = "application/vnd.mc.result"

// The compact result is the JobResultBody between two tiers of this
// service — JSON is for the client at the edge. A small envelope holds the
// non-tally fields and the tally follows in mc's compact codec, the format
// the worker wire and the journal snapshots already use, running to the
// end of the data (all varints unsigned unless noted):
//
//	version · flags · key[32] · physicsKey[32] · elapsed f64 · len id
//	[len observable · relErr f64 · minPhotons · maxPhotons]  (resHasTarget)
//	compact tally
//
// Floats travel as raw little-endian bits, so decoding and JSON-encoding
// at the gateway yields the bytes the shard's own JSON encoder would have.
const resultCodecVersion = 1

// Flag bit 0 once marked a cache hit; it is retired, and refused like any
// unknown bit.
const (
	resTargetMet = 1 << 1
	resHasTarget = 1 << 2
)

// maxResultString bounds the envelope's two strings (a 16-digit job ID, an
// observable name) before either sizes an allocation.
const maxResultString = 64

var errBadResult = errors.New("service: malformed compact result")

// AppendResult appends the compact encoding of a finished job's result
// (res.Tally must be set) to buf and returns the extended slice.
func AppendResult(buf []byte, res *JobResultBody) []byte {
	var flags byte
	if res.TargetMet {
		flags |= resTargetMet
	}
	if res.Target != nil {
		flags |= resHasTarget
	}
	buf = append(buf, resultCodecVersion, flags)
	buf = append(buf, res.Key[:]...)
	buf = append(buf, res.PhysicsKey[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(res.Elapsed))
	buf = binary.AppendUvarint(buf, uint64(len(res.ID)))
	buf = append(buf, res.ID...)
	if tgt := res.Target; tgt != nil {
		buf = binary.AppendUvarint(buf, uint64(len(tgt.Observable)))
		buf = append(buf, tgt.Observable...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(tgt.RelErr))
		buf = binary.AppendVarint(buf, tgt.MinPhotons)
		buf = binary.AppendVarint(buf, tgt.MaxPhotons)
	}
	return mc.AppendTally(buf, res.Tally)
}

// DecodeResult is the inverse of AppendResult. The tally's own decoder
// bounds what a hostile frame can make it allocate.
func DecodeResult(data []byte) (*JobResultBody, error) {
	res := new(JobResultBody)
	const fixed = 2 + 2*len(Key{}) + 8 // version, flags, both keys, elapsed
	if len(data) < fixed {
		return nil, errBadResult
	}
	if data[0] != resultCodecVersion {
		return nil, fmt.Errorf("service: compact result version %d (want %d)", data[0], resultCodecVersion)
	}
	flags := data[1]
	if flags&^(resTargetMet|resHasTarget) != 0 {
		return nil, errBadResult
	}
	res.TargetMet = flags&resTargetMet != 0
	rest := data[2:]
	rest = rest[copy(res.Key[:], rest):]
	rest = rest[copy(res.PhysicsKey[:], rest):]
	res.Elapsed = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	rest = rest[8:]

	str := func() (string, bool) {
		n, w := binary.Uvarint(rest)
		if w <= 0 || n > maxResultString || n > uint64(len(rest)-w) {
			return "", false
		}
		s := string(rest[w : w+int(n)])
		rest = rest[w+int(n):]
		return s, true
	}
	var ok bool
	if res.ID, ok = str(); !ok {
		return nil, errBadResult
	}
	if flags&resHasTarget != 0 {
		tgt := new(mc.Target)
		obs, ok := str()
		if !ok || len(rest) < 8 {
			return nil, errBadResult
		}
		tgt.Observable = mc.Observable(obs)
		tgt.RelErr = math.Float64frombits(binary.LittleEndian.Uint64(rest))
		rest = rest[8:]
		for _, p := range []*int64{&tgt.MinPhotons, &tgt.MaxPhotons} {
			v, w := binary.Varint(rest)
			if w <= 0 {
				return nil, errBadResult
			}
			*p, rest = v, rest[w:]
		}
		res.Target = tgt
	}
	tally, err := mc.DecodeTally(rest)
	if err != nil {
		return nil, fmt.Errorf("service: compact result: %w", err)
	}
	res.Tally = tally
	return res, nil
}
