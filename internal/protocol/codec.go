package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Payloads, by type (signed integers are varints, unsigned ones and counts
// uvarints, job ids and floats fixed64 — an id is a hash, which a uvarint
// would spend ten bytes on — strings and byte slices a uvarint length and
// the bytes, bool a 0/1 byte, and opt(X) a bool then X when it is true):
//
//	hello:        version · name · mflops · build (v9 on; an older hello ends at mflops)
//	welcome:      version · server name
//	task-request: want · opt(batch)
//	  batch:      n · group*n
//	  group:      job id · n · chunk*n · elapsed ns · tally · n · chunk secs*n
//	task-assign:  job id · n · (chunk id · stream · photons)*n · opt(job) · opt(ack)
//	  job:        id · streams · submission
//	no-work:      done · opt(ack)
//	error:        msg
//	  ack:        n · (job id · chunk id · duplicate · rejected · reason)*n

// buildSince is the first version whose Hello carries a build string. An
// older Hello must still decode, to be answered with a version mismatch.
const buildSince = 9

// appendMessage appends m's payload, reading a nil body as its type's zero
// body.
func appendMessage(b []byte, m *Message) []byte {
	switch m.Type {
	case MsgHello:
		h := orZero(m.Hello)
		b = binary.AppendVarint(b, int64(h.Version))
		b = appendString(b, h.Name)
		b = appendFloat(b, h.Mflops)
		if h.Version < buildSince {
			return b
		}
		return appendString(b, h.Build)
	case MsgWelcome:
		w := orZero(m.Welcome)
		b = binary.AppendVarint(b, int64(w.Version))
		return appendString(b, w.ServerName)
	case MsgTaskRequest:
		return appendRequest(b, orZero(m.Request))
	case MsgTaskAssign:
		a := orZero(m.Assign)
		b = binary.LittleEndian.AppendUint64(b, a.JobID)
		b = binary.AppendUvarint(b, uint64(len(a.Grants)))
		for _, g := range a.Grants {
			b = binary.AppendVarint(b, int64(g.ChunkID))
			b = binary.AppendVarint(b, int64(g.Stream))
			b = binary.AppendVarint(b, g.Photons)
		}
		if b = appendBool(b, a.Job != nil); a.Job != nil {
			b = binary.LittleEndian.AppendUint64(b, a.Job.ID)
			b = binary.AppendVarint(b, int64(a.Job.Streams))
			b = appendBytes(b, a.Job.Submission)
		}
		return appendAcks(b, m.BatchAck)
	case MsgNoWork:
		b = appendBool(b, orZero(m.NoWork).Done)
		return appendAcks(b, m.BatchAck)
	case MsgError:
		return appendString(b, orZero(m.Error).Msg)
	}
	return b
}

func appendRequest(b []byte, r *TaskRequest) []byte {
	b = binary.AppendVarint(b, int64(r.Want))
	if b = appendBool(b, r.Batch != nil); r.Batch != nil {
		b = binary.AppendUvarint(b, uint64(len(r.Batch.Groups)))
		for _, g := range r.Batch.Groups {
			b = binary.LittleEndian.AppendUint64(b, g.JobID)
			b = binary.AppendUvarint(b, uint64(len(g.Chunks)))
			for _, id := range g.Chunks {
				b = binary.AppendVarint(b, int64(id))
			}
			b = binary.AppendVarint(b, int64(g.Elapsed))
			b = appendBytes(b, g.TallyData)
			b = binary.AppendUvarint(b, uint64(len(g.ChunkSecs)))
			for _, s := range g.ChunkSecs {
				b = appendFloat(b, s)
			}
		}
	}
	return b
}

func appendAcks(b []byte, a *BatchAck) []byte {
	if b = appendBool(b, a != nil); a == nil {
		return b
	}
	b = binary.AppendUvarint(b, uint64(len(a.Acks)))
	for _, ack := range a.Acks {
		b = binary.LittleEndian.AppendUint64(b, ack.JobID)
		b = binary.AppendVarint(b, int64(ack.ChunkID))
		b = appendBool(b, ack.Duplicate)
		b = appendBool(b, ack.Rejected)
		b = appendString(b, ack.Reason)
	}
	return b
}

// alloc makes a slice of n elements; an empty one is nil, as it was sent.
func alloc[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

func orZero[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBytes(b, p []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(p))), p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// decoder reads a payload. Its first failure sticks: every later read
// returns a zero value, so a body decodes straight through and the caller
// checks err once.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) failf(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("protocol: "+format, args...)
	}
	d.data = nil
}

func (d *decoder) uint() uint64 {
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.failf("truncated or malformed frame")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) int() int {
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.failf("truncated or malformed frame")
		return 0
	}
	d.data = d.data[n:]
	return int(v)
}

func (d *decoder) fixed() uint64 {
	if len(d.data) < 8 {
		d.failf("truncated frame")
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

func (d *decoder) float() float64 { return math.Float64frombits(d.fixed()) }

func (d *decoder) bool() bool {
	if len(d.data) < 1 || d.data[0] > 1 {
		d.failf("truncated frame or a flag that is not 0 or 1")
		return false
	}
	v := d.data[0] == 1
	d.data = d.data[1:]
	return v
}

// count reads a claimed element count and refuses one over max, or over
// the bytes left (every element takes at least one), before anything is
// sized by it.
func (d *decoder) count(max int, format string, args ...any) int {
	n := d.uint()
	if n > uint64(max) {
		d.failf(format+" %d, max %d", append(args, n, max)...)
		return 0
	}
	if n > uint64(len(d.data)) {
		d.failf("truncated frame")
		return 0
	}
	return int(n)
}

// bytes returns the next length-prefixed byte slice, aliasing the frame;
// an empty one is nil.
func (d *decoder) bytes() []byte {
	n := d.uint()
	if n > uint64(len(d.data)) {
		d.failf("truncated frame")
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.data[:n:n]
	d.data = d.data[n:]
	return p
}

func (d *decoder) string() string { return string(d.bytes()) }

// decodeMessage fills m's body for m.Type, enforcing every bound Recv
// promises.
func decodeMessage(d *decoder, m *Message) {
	switch m.Type {
	case MsgHello:
		h := &Hello{Version: d.int(), Name: d.string(), Mflops: d.float()}
		if h.Version >= buildSince {
			h.Build = d.string()
		}
		if len(h.Name) > MaxName || len(h.Build) > MaxName {
			d.failf("hello carries a %d-byte worker name and a %d-byte build, max %d each",
				len(h.Name), len(h.Build), MaxName)
		}
		if !measure(h.Mflops) {
			d.failf("hello carries a negative or non-finite rate")
		}
		m.Hello = h
	case MsgWelcome:
		m.Welcome = &Welcome{Version: d.int(), ServerName: d.string()}
	case MsgTaskRequest:
		m.Request = decodeRequest(d)
	case MsgTaskAssign:
		a := &TaskAssign{JobID: d.fixed()}
		a.Grants = alloc[ChunkGrant](d.count(MaxGrantChunks, "task assign grants"))
		for i := range a.Grants {
			a.Grants[i] = ChunkGrant{ChunkID: d.int(), Stream: d.int(), Photons: int64(d.int())}
		}
		if d.bool() {
			a.Job = &Job{ID: d.fixed(), Streams: d.int(), Submission: d.bytes()}
		}
		m.Assign, m.BatchAck = a, decodeAcks(d)
	case MsgNoWork:
		m.NoWork = &NoWork{Done: d.bool()}
		m.BatchAck = decodeAcks(d)
	case MsgError:
		m.Error = &Error{Msg: d.string()}
	}
}

func decodeRequest(d *decoder) *TaskRequest {
	r := &TaskRequest{Want: d.int()}
	if !d.bool() {
		return r
	}
	// Every group covers at least one chunk, so the group count is bounded
	// by the chunk bound, and each group's chunks by what is left of it.
	b := &ResultBatch{}
	b.Groups = alloc[BatchGroup](d.count(MaxBatchChunks, "result batch groups"))
	left := MaxBatchChunks
	for i := range b.Groups {
		g := &b.Groups[i]
		g.JobID = d.fixed()
		n := d.count(left, "result batch covers more than its bound: group %d claims", i)
		if n == 0 && d.err == nil {
			d.failf("result batch group %d covers no chunks", i)
		}
		left -= n
		g.Chunks = alloc[int](n)
		for k := range g.Chunks {
			g.Chunks[k] = d.int()
		}
		if g.Elapsed = time.Duration(d.int()); g.Elapsed < 0 {
			d.failf("result batch group %d carries a negative time", i)
		}
		g.TallyData = d.bytes()
		if ns := d.uint(); ns != 0 && ns != uint64(n) {
			d.failf("result batch group %d has %d chunk timings for %d chunks", i, ns, n)
		} else if ns > 0 {
			g.ChunkSecs = make([]float64, n)
			for k := range g.ChunkSecs {
				if g.ChunkSecs[k] = d.float(); !measure(g.ChunkSecs[k]) {
					d.failf("result batch group %d carries a negative or non-finite time", i)
				}
			}
		}
	}
	r.Batch = b
	return r
}

func decodeAcks(d *decoder) *BatchAck {
	if !d.bool() {
		return nil
	}
	a := &BatchAck{Acks: alloc[ResultAck](d.count(MaxBatchChunks, "batch ack covers chunks:"))}
	for i := range a.Acks {
		a.Acks[i] = ResultAck{JobID: d.fixed(), ChunkID: d.int(), Duplicate: d.bool(),
			Rejected: d.bool(), Reason: d.string()}
	}
	return a
}
