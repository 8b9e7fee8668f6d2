package protocol

import (
	"time"

	"repro/internal/wire"
)

// Payloads, by type, in internal/wire's primitives (counts are uvarints, job
// ids fixed64), and opt(X) a bool then X when it is true:
//
//	hello:        version · name · build (any other version: version, the rest unread)
//	welcome:      version · server name
//	task-request: want · opt(batch)
//	  batch:      n · group*n
//	  group:      job id · n · chunk*n · elapsed ns · tally · n · chunk secs*n
//	task-assign:  job id · n · (chunk id · photons)*n · opt(submission) · opt(ack)
//	no-work:      done · opt(ack)
//	error:        msg
//	  ack:        n · (job id · chunk id · duplicate · rejected · reason)*n

// appendMessage appends m's payload, reading a nil body as its type's zero
// body.
func appendMessage(b []byte, m *Message) []byte {
	switch m.Type {
	case MsgHello:
		h := orZero(m.Hello)
		b = wire.AppendVarint(b, int64(h.Version))
		b = wire.AppendString(b, h.Name)
		return wire.AppendString(b, h.Build)
	case MsgWelcome:
		w := orZero(m.Welcome)
		b = wire.AppendVarint(b, int64(w.Version))
		return wire.AppendString(b, w.ServerName)
	case MsgTaskRequest:
		return appendRequest(b, orZero(m.Request))
	case MsgTaskAssign:
		a := orZero(m.Assign)
		b = wire.AppendFixed64(b, a.JobID)
		b = wire.AppendUvarint(b, uint64(len(a.Grants)))
		for _, g := range a.Grants {
			b = wire.AppendVarint(b, int64(g.ChunkID))
			b = wire.AppendVarint(b, g.Photons)
		}
		if b = wire.AppendBool(b, a.Submission != nil); a.Submission != nil {
			b = wire.AppendBytes(b, a.Submission)
		}
		return appendAcks(b, m.BatchAck)
	case MsgNoWork:
		b = wire.AppendBool(b, orZero(m.NoWork).Done)
		return appendAcks(b, m.BatchAck)
	case MsgError:
		return wire.AppendString(b, orZero(m.Error).Msg)
	}
	return b
}

func appendRequest(b []byte, r *TaskRequest) []byte {
	b = wire.AppendVarint(b, int64(r.Want))
	if b = wire.AppendBool(b, r.Batch != nil); r.Batch != nil {
		b = wire.AppendUvarint(b, uint64(len(r.Batch.Groups)))
		for _, g := range r.Batch.Groups {
			b = wire.AppendFixed64(b, g.JobID)
			b = wire.AppendUvarint(b, uint64(len(g.Chunks)))
			for _, id := range g.Chunks {
				b = wire.AppendVarint(b, int64(id))
			}
			b = wire.AppendVarint(b, int64(g.Elapsed))
			b = wire.AppendBytes(b, g.TallyData)
			b = wire.AppendUvarint(b, uint64(len(g.ChunkSecs)))
			b = wire.AppendFloats(b, g.ChunkSecs...)
		}
	}
	return b
}

func appendAcks(b []byte, a *BatchAck) []byte {
	if b = wire.AppendBool(b, a != nil); a == nil {
		return b
	}
	b = wire.AppendUvarint(b, uint64(len(a.Acks)))
	for _, ack := range a.Acks {
		b = wire.AppendFixed64(b, ack.JobID)
		b = wire.AppendVarint(b, int64(ack.ChunkID))
		b = wire.AppendBool(b, ack.Duplicate)
		b = wire.AppendBool(b, ack.Rejected)
		b = wire.AppendString(b, ack.Reason)
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

// decodeMessage fills m's body for m.Type, enforcing every bound Recv
// promises.
func decodeMessage(r *wire.Reader, m *Message) {
	switch m.Type {
	case MsgHello:
		h := &Hello{Version: int(r.Varint())}
		if h.Version != Version {
			r.Rest() // another layout: refused by its version, not by its bytes
		} else {
			h.Name, h.Build = r.Text(), r.Text()
			if len(h.Name) > MaxName || len(h.Build) > MaxName {
				r.Failf("hello carries a %d-byte worker name and a %d-byte build, max %d each",
					len(h.Name), len(h.Build), MaxName)
			}
		}
		m.Hello = h
	case MsgWelcome:
		m.Welcome = &Welcome{Version: int(r.Varint()), ServerName: r.Text()}
	case MsgTaskRequest:
		m.Request = decodeRequest(r)
	case MsgTaskAssign:
		a := &TaskAssign{JobID: r.Fixed64()}
		a.Grants = alloc[ChunkGrant](r.Count(MaxGrantChunks, "task assign grants"))
		for i := range a.Grants {
			a.Grants[i] = ChunkGrant{ChunkID: int(r.Varint()), Photons: r.Varint()}
		}
		if r.Bool() {
			a.Submission = r.Bytes()
		}
		m.Assign, m.BatchAck = a, decodeAcks(r)
	case MsgNoWork:
		m.NoWork = &NoWork{Done: r.Bool()}
		m.BatchAck = decodeAcks(r)
	case MsgError:
		m.Error = &Error{Msg: r.Text()}
	}
}

func decodeRequest(r *wire.Reader) *TaskRequest {
	req := &TaskRequest{Want: int(r.Varint())}
	if !r.Bool() {
		return req
	}
	// Every group covers at least one chunk, so the group count is bounded
	// by the chunk bound, and each group's chunks by what is left of it.
	b := &ResultBatch{}
	b.Groups = alloc[BatchGroup](r.Count(MaxBatchChunks, "result batch groups"))
	left := MaxBatchChunks
	for i := range b.Groups {
		g := &b.Groups[i]
		g.JobID = r.Fixed64()
		n := r.Count(left, "result batch chunks past its bound: a group claims")
		if n == 0 {
			r.Failf("result batch group %d covers no chunks", i)
		}
		left -= n
		g.Chunks = alloc[int](n)
		for k := range g.Chunks {
			g.Chunks[k] = int(r.Varint())
		}
		if g.Elapsed = time.Duration(r.Varint()); g.Elapsed < 0 {
			r.Failf("result batch group %d carries a negative time", i)
		}
		g.TallyData = r.Bytes()
		if ns := r.Uvarint(); ns != 0 && ns != uint64(n) {
			r.Failf("result batch group %d has %d chunk timings for %d chunks", i, ns, n)
		} else if ns > 0 {
			g.ChunkSecs = make([]float64, n)
			r.Floats(g.ChunkSecs)
			for _, s := range g.ChunkSecs {
				if !measure(s) {
					r.Failf("result batch group %d carries a negative or non-finite time", i)
				}
			}
		}
	}
	req.Batch = b
	return req
}

func decodeAcks(r *wire.Reader) *BatchAck {
	if !r.Bool() {
		return nil
	}
	a := &BatchAck{Acks: alloc[ResultAck](r.Count(MaxBatchChunks, "batch ack chunks"))}
	for i := range a.Acks {
		a.Acks[i] = ResultAck{JobID: r.Fixed64(), ChunkID: int(r.Varint()), Duplicate: r.Bool(),
			Rejected: r.Bool(), Reason: r.Text()}
	}
	return a
}
