package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Frame layout, little-endian:
//
//	[4] payload length n (1 type byte + record data)
//	[4] CRC32C (Castagnoli) of the payload
//	[n] payload
//
// The checksum covers the payload only; a torn or bit-flipped header is
// caught by the length bound or by the CRC failing over whatever bytes
// the bogus length selects. Castagnoli rather than IEEE because it is
// the storage-stack convention (and hardware-accelerated via SSE4.2 /
// ARMv8 CRC instructions in the stdlib).
const (
	frameHeader = 8
	// MaxRecordBytes bounds a single record's payload. Nothing the journal
	// writes approaches it; its real job is rejecting garbage lengths when
	// scanning a corrupt segment, so a flipped bit in a length field
	// cannot send the scanner a gigabyte past the torn tail.
	MaxRecordBytes = 16 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordType tags a journal record. The WAL itself treats the type as an
// opaque byte; the set below is the service-layer journal's schema.
type RecordType uint8

// Journal record kinds, in the order the control plane emits them over a
// job's life. Every record is self-contained (it decodes without state
// from an earlier one) and leads with its job's content key.
const (
	// RecJobAccepted marks a Submit that passed admission: the job's key
	// and its spec (a JSON header, a voxel grid's labels raw behind it).
	RecJobAccepted RecordType = 6
	// RecSnapshot carries a job's resumable state (completed chunk ids,
	// partial tally; the spec comes from the accept record) — the
	// amortized "last known good" replay starts from. A finished job's
	// last snapshot is complete, and replay rebuilds it born Done.
	RecSnapshot RecordType = 3
	// RecJobCanceled marks a cancel; replay drops the job entirely.
	RecJobCanceled RecordType = 5
)

// Retired record kinds. Nothing writes them and the journal's replay
// refuses a log that holds one; the numbers stay declared so they are
// never reused for a different payload.
const (
	// RecJobAcceptedGob was the accept record as a per-generation gob
	// stream (stateful: records of one generation decoded only in order).
	RecJobAcceptedGob RecordType = 1
	// RecChunksReduced listed the chunk ids of a reduced batch. Replay
	// never folded it: the durable tally is the last snapshot, and chunks
	// past it recompute.
	RecChunksReduced RecordType = 2
	// RecJobFinalized marked a job done. Replay decides that from the
	// final snapshot's own completeness.
	RecJobFinalized RecordType = 4
)

// Record is one framed journal entry.
type Record struct {
	Type RecordType
	Data []byte
}

// encodeFrame renders a record as one contiguous frame, written with a
// single Write call so an in-process crash tears at most one frame.
func encodeFrame(rec Record) []byte {
	n := 1 + len(rec.Data)
	frame := make([]byte, frameHeader+n)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(n))
	frame[frameHeader] = byte(rec.Type)
	copy(frame[frameHeader+1:], rec.Data)
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(frame[frameHeader:], castagnoli))
	return frame
}

// scanFrames parses whole, checksum-valid frames from buf, invoking fn
// for each, and returns the clean prefix length. A short header, a
// zero/oversized length, a short payload or a CRC mismatch ends the scan:
// the torn-tail contract is "truncate at the first bad frame", never
// resync past corruption (a framing stream has no reliable resync point,
// and a record after a torn one may depend on state the tear lost).
func scanFrames(buf []byte, fn func(Record)) (clean int) {
	off := 0
	for {
		rest := buf[off:]
		if len(rest) < frameHeader {
			return off
		}
		n := int(binary.LittleEndian.Uint32(rest[0:4]))
		if n < 1 || n > MaxRecordBytes || len(rest)-frameHeader < n {
			return off
		}
		payload := rest[frameHeader : frameHeader+n]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off
		}
		if fn != nil {
			data := make([]byte, n-1)
			copy(data, payload[1:])
			fn(Record{Type: RecordType(payload[0]), Data: data})
		}
		off += frameHeader + n
	}
}
