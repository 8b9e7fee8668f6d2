// Package protocol defines the wire protocol between the DataManager server
// and worker clients: hand-framed message envelopes over a stream
// transport. It mirrors the two-class architecture of the paper's Java
// platform — the DataManager assigns simulations, the Algorithm (worker)
// returns results.
//
// Since v7 one message is one frame, `uvarint n · type · payload`, in the
// style of the journal's (internal/wal) but without its checksum, which TCP
// already provides. A payload is internal/wire's primitives in a fixed
// order per type (codec.go), so a frame of type T always carries T's body
// and a field is added only by bumping Version. A job descriptor carries
// its spec as the bytes the service journals for it
// (service.AppendSubmission), and a result its tally as mc.AppendTally;
// Recv bounds every claimed count before it sizes an allocation. A descriptor rides a TaskAssign only when the session
// does not hold it, by a rule both ends keep (Descriptors). A worker's
// Hello names it and its build, once per session; after it a worker sends
// only results and their compute times, and the server learns its speed
// from when its batches arrive.
package protocol

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Version is the protocol version; mismatches are rejected at Hello time.
// Version 2 made workers job-agnostic: the job descriptor moved from the
// Welcome to the TaskAssign (a fleet serves many jobs concurrently, and a
// worker learns a job the first time it is handed one of its chunks), task
// requests advertise the jobs a worker already knows, and results that do
// not match a current assignment are rejected rather than reduced.
//
// Version 3 overhauled the result plane: workers pre-reduce consecutive
// chunk tallies per job and flush them as a ResultBatch (standalone or
// piggybacked on the next TaskRequest), tallies travel in the compact
// mc codec, task requests advertise the computed-but-unflushed chunks the
// worker keeps back, jobs carry the multi-core fan width, and acks come
// back per chunk in a BatchAck.
//
// Version 4 added precision-targeted jobs: a job descriptor may carry a
// Target and an open-ended stream space (Streams == 0 — the server issues
// chunks until the target's relative standard error is met, so there is
// no predetermined chunk count), and chunk tallies of such jobs travel
// with their moment accumulators (mc tally codec version 2). A v3 worker
// would reject the open-ended stream indices and strip the moments, so
// the handshake requires v4.
//
// Version 5 removed the single-result frames (one chunk tally and its
// standalone ack, wire types 5 and 6): a ResultBatch of one chunk is the
// single-result path. The numbers stay reserved so every surviving type
// keeps its value, and a v4 peer is refused at the handshake rather than
// mid-session when its first single-result frame arrives.
//
// Version 6 removed result holding. Whatever a worker has computed rides
// its next TaskRequest, so a request no longer advertises chunks it keeps
// back and abandons every assignment of the session it does not flush (the
// v2 rule again); the standalone batch frame and its ack (wire types 9 and
// 10) are gone — a worker that is leaving flushes with a request that asks
// for no grant (Want 0) — and a TaskAssign lists its chunks in one Grants
// slice. 9 and 10 stay reserved like 5 and 6.
//
// Version 7 replaced the gob envelope with hand-written frames (see the
// package doc) and the descriptor's spec fields with the job's submission
// bytes. A v6 peer's Hello is not a v7 frame; the server answers it with
// V6Refusal, which a v6 worker reads as a version mismatch.
//
// Version 8 dropped the known-jobs list that led a task request: which
// descriptors a session holds is a rule both ends keep (Descriptors). A v7
// Hello still decodes, and is answered with a version mismatch.
//
// Version 9 dropped the worker's telemetry report from the task request: a
// session's one speed is the server's own grant-to-arrival estimate, and
// the worker's build string rides its Hello, once per session. A Hello
// older than v9 ends at its rate, so it still decodes, and is answered with
// a version mismatch.
//
// Version 10 says each fact once. A grant is a chunk id and its photon
// count: chunk id is the chunk's RNG stream, so there is no separate stream
// index to disagree with it. A descriptor is the job's submission bytes
// alone, riding the TaskAssign: the job's id is the assign's, and its chunk
// bound is what the submission itself partitions into. A Hello is a
// version, a name and a build string. The self-reported rate (the paper's
// Table 2 Mflop/s) is gone: its comment promised scheduling heuristics, but
// only GET /fleet, a log line and mcserver's summary ever echoed it, and
// the server measures a session's speed itself. Recv reads a Hello's
// version first and, for any version but this one, leaves the rest unread,
// so every older layout — and any later one — decodes to be refused.
const Version = 10

// V6Refusal is what a server writes to a peer whose first frame is not a v7
// Hello: the gob stream a v6 worker decodes as Message{Type: MsgError,
// Error: &Error{Msg: "version mismatch: server 7"}}, which ends its redial
// loop. It was recorded once from an encoder of just the two fields a v6
// decoder needs, and stays fixed bytes so this package imports no gob.
const V6Refusal = "#\x7f\x03\x01\x01\x02v6\x01\xff\x80\x00\x01\x02\x01\x04Type\x01\x04\x00\x01\x05Error" +
	"\x01\xff\x82\x00\x00\x00\x1b\xff\x81\x03\x01\x01\x05Error\x01\xff\x82\x00\x01\x01\x01\x03Msg\x01\f" +
	"\x00\x00\x00#\xff\x80\x01\x10\x01\x01\x1aversion mismatch: server 7\x00\x00"

// MsgType discriminates the envelope.
type MsgType int

const (
	// MsgHello is sent by a worker immediately after connecting.
	MsgHello MsgType = iota + 1
	// MsgWelcome is the server's reply to Hello: its version and name.
	// (Since v2 the job descriptor rides the first TaskAssign of each job.)
	MsgWelcome
	// MsgTaskRequest asks the server for the next chunk.
	MsgTaskRequest
	// MsgTaskAssign hands a chunk to the worker.
	MsgTaskAssign
	// reserved5 and reserved6 hold the wire numbers of the v4
	// single-result frames so later types keep their values; Recv rejects
	// them.
	reserved5
	reserved6
	// MsgNoWork tells a worker there is nothing to do right now.
	MsgNoWork
	// MsgError reports a fatal protocol or job error.
	MsgError
	// reserved9 and reserved10 hold the wire numbers of the v5 standalone
	// result batch and its ack; Recv rejects them.
	reserved9
	reserved10
)

// valid reports whether t names a live message type: in range and not one
// of the reserved numbers.
func (t MsgType) valid() bool {
	return t >= MsgHello && t <= MsgError && t != reserved5 && t != reserved6
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgTaskRequest:
		return "task-request"
	case MsgTaskAssign:
		return "task-assign"
	case MsgNoWork:
		return "no-work"
	case MsgError:
		return "error"
	default:
		return fmt.Sprintf("MsgType(%d)", int(t))
	}
}

// MaxName bounds a Hello's worker name and build string; Recv rejects
// longer ones. The session keeps both for its whole life and shows them on
// every view of the fleet.
const MaxName = 128

// Hello introduces a worker. A Hello of another Version decodes with its
// version alone, to be refused by it.
type Hello struct {
	Version int
	Name    string
	// Build is the worker's build string (obs.Version), shown as the
	// session's version on GET /fleet.
	Build string
}

// Welcome greets a freshly connected worker. Jobs are delivered lazily via
// TaskAssign, so one worker session can serve many jobs.
type Welcome struct {
	Version    int
	ServerName string
}

// MaxDescriptors bounds the descriptors a session holds: a built Config
// can carry a multi-megabyte voxel grid.
const MaxDescriptors = 32

// Descriptors is the rule both ends of a session keep for which job
// descriptors the worker holds: the last MaxDescriptors that rode a
// TaskAssign of the session. The server Adds a job as it attaches the
// descriptor (exactly when Has is false), the worker as it receives it, and
// one stream orders both. Should they drift, a worker handed a job it does
// not hold without its descriptor ends the session, which requeues the
// grant. The zero value is empty.
type Descriptors struct {
	ids []uint64 // oldest first
}

// Has reports whether the session holds job id's descriptor.
func (d *Descriptors) Has(id uint64) bool { return slices.Contains(d.ids, id) }

// Add records that job id's descriptor rode a TaskAssign, evicting the
// oldest job if the session held MaxDescriptors.
func (d *Descriptors) Add(id uint64) (evicted uint64, ok bool) {
	if ok = len(d.ids) == MaxDescriptors; ok {
		evicted = d.ids[0]
		d.ids = slices.Delete(d.ids, 0, 1)
	}
	d.ids = append(d.ids, id)
	return evicted, ok
}

// TaskRequest hands back what the worker has computed and asks the server
// for the next chunks of any job.
//
// Batch, when set, carries the pre-reduced results of everything the
// worker computed since its last request; the per-chunk acks ride back on
// the reply's BatchAck. Any assignment of the session the Batch does not
// cover is abandoned and requeued.
// Want asks the server to grant up to that many chunks of one job in a
// single TaskAssign, so a worker's next batch is its grant. 0 asks for
// none: a worker that is leaving flushes that way and is answered NoWork
// at once. A request carries nothing else: the server learns a worker's
// speed from when its batches arrive.
type TaskRequest struct {
	Batch *ResultBatch
	Want  int
}

// TaskAssign hands one or more chunks of one job to a worker: at most as
// many as the request's Want, all on one grant with one timeout clock on
// the server. Submission is the job's descriptor, its
// service.AppendSubmission bytes (its spec, seed and fan width among them),
// when the session does not hold it (Descriptors), and nil when it does.
// A chunk tally is a pure function of (spec, seed, chunk id, fan), never of
// the worker's core count.
type TaskAssign struct {
	JobID      uint64
	Grants     []ChunkGrant
	Submission []byte
}

// ChunkGrant is one chunk of a TaskAssign. The chunk id selects the chunk's
// dedicated RNG stream, so results are reproducible and order-independent.
type ChunkGrant struct {
	ChunkID int
	Photons int64
}

// MaxGrantChunks bounds the chunks one TaskAssign may grant; Recv rejects
// larger frames.
const MaxGrantChunks = 64

// MaxFan bounds a job's fan width: a worker allocates one generator per
// sub-stream of a fanned chunk. The service refuses a wider submission, and
// a worker a descriptor of one.
const MaxFan = 1024

// MaxBatchChunks bounds the total chunks covered by one ResultBatch;
// larger frames are malformed or hostile and rejected by Recv before the
// registry allocates per-chunk bookkeeping.
const MaxBatchChunks = 4096

// BatchGroup is one job's slice of a ResultBatch: the covered chunk list
// and the worker-side pre-reduction of those chunks' tallies, encoded with
// the compact mc codec (mc.AppendTally), which the server decodes off the
// registry lock into a reusable scratch tally.
// ChunkSecs, when non-empty, is the per-chunk compute wall time parallel
// to Chunks — the worker-side timing that lets the server split Elapsed
// into true per-chunk spans instead of assuming a uniform share. Recv
// requires its length to be zero or exactly len(Chunks).
type BatchGroup struct {
	JobID     uint64
	Chunks    []int
	Elapsed   time.Duration // summed compute time of the covered chunks
	TallyData []byte
	ChunkSecs []float64
}

// ResultBatch carries one or more pre-reduced groups, one per job. (A
// grant is chunks of one job, so this tree's worker sends one group.)
type ResultBatch struct {
	Groups []BatchGroup
}

// NumChunks returns the total chunks covered by the batch.
func (b *ResultBatch) NumChunks() int {
	n := 0
	for i := range b.Groups {
		n += len(b.Groups[i].Chunks)
	}
	return n
}

// BatchAck acknowledges a ResultBatch with exactly one ResultAck per
// covered chunk, in batch order.
type BatchAck struct {
	Acks []ResultAck
}

// ResultAck is one chunk's verdict inside a BatchAck. Duplicate reports (e.g. after a
// timeout-triggered reassignment races the original worker) are acked with
// Duplicate=true and discarded by the reducer. Rejected reports that the
// result did not match any current assignment — a stale worker from a
// previous run, a cancelled job, or a forged JobID — and was not reduced;
// the session stays open so the worker can request fresh work.
type ResultAck struct {
	// JobID disambiguates acks inside a multi-job BatchAck.
	JobID     uint64
	ChunkID   int
	Duplicate bool
	Rejected  bool
	Reason    string
}

// NoWork tells the worker there is nothing for it right now, or ever. A
// request that flushed results or asked for no grant gets it at once; an
// empty-handed one only after the server has kept the request waiting for
// work as long as it is willing to.
type NoWork struct {
	// Done means the service has finished and the worker should disconnect.
	// A NoWork without it means "ask again now": the server itself holds an
	// idle worker's request until there is work, so there is no back-off
	// for the worker to be told.
	Done bool
}

// Error is a fatal server-side report.
type Error struct {
	Msg string
}

// Message is the envelope travelling on the wire; the field matching Type
// is populated. One exception to the one-field rule: a TaskAssign or
// NoWork reply to a TaskRequest that carried a Batch also carries the
// BatchAck for it.
type Message struct {
	Type     MsgType
	Hello    *Hello
	Welcome  *Welcome
	Request  *TaskRequest
	Assign   *TaskAssign
	NoWork   *NoWork
	Error    *Error
	BatchAck *BatchAck
}

// ConnMetrics counts frames and bytes by direction and message type on
// behalf of a Conn. The per-type counters are resolved once at
// construction, so the per-frame cost on an instrumented connection is
// two atomic adds; an uninstrumented Conn pays only a nil check. One
// ConnMetrics may be shared by every connection of a process (the
// counters are fleet-wide totals, not per-session series — per-session
// metric labels would be unbounded cardinality).
type ConnMetrics struct {
	sendFrames [MsgError + 1]*obs.Counter
	recvFrames [MsgError + 1]*obs.Counter
	sendBytes  [MsgError + 1]*obs.Counter
	recvBytes  [MsgError + 1]*obs.Counter
}

// NewConnMetrics registers <subsystem>_frames_total and
// <subsystem>_bytes_total (labels: dir, type) on reg and pre-resolves a
// counter per direction and message type. Registration is idempotent:
// calling it again with the same subsystem returns a view onto the same
// counters.
func NewConnMetrics(reg *obs.Registry, subsystem string) *ConnMetrics {
	frames := reg.CounterVec(subsystem+"_frames_total",
		"Protocol frames by direction and message type.", "dir", "type")
	bytes := reg.CounterVec(subsystem+"_bytes_total",
		"Protocol bytes by direction and message type.", "dir", "type")
	m := &ConnMetrics{}
	for t := MsgHello; t <= MsgError; t++ {
		if !t.valid() {
			continue
		}
		m.sendFrames[t] = frames.With("send", t.String())
		m.recvFrames[t] = frames.With("recv", t.String())
		m.sendBytes[t] = bytes.With("send", t.String())
		m.recvBytes[t] = bytes.With("recv", t.String())
	}
	return m
}

// MaxFrameBytes bounds one frame. It admits a job descriptor carrying a
// submission of service.DefaultMaxBodyBytes (32 MiB) with room to spare,
// and any tally the journal can hold; its job is refusing a garbage length
// before a buffer is sized by it.
const MaxFrameBytes = 64 << 20

// Conn frames Messages over a stream. It is not safe for concurrent
// writers.
type Conn struct {
	r   *bufio.Reader // a frame's uvarint length is read a byte at a time
	w   io.Writer
	c   io.Closer
	buf []byte // Send's frame buffer, kept while it is small
	met *ConnMetrics
}

// NewConn wraps rw (a net.Conn or an in-memory pipe) in the protocol codec.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{r: bufio.NewReader(rw), w: rw, c: rw}
}

// SetMetrics attaches frame/byte accounting to the connection. Call it
// before the first Send/Recv; nil detaches.
func (c *Conn) SetMetrics(m *ConnMetrics) { c.met = m }

// Send encodes one message as one frame and writes it with a single Write.
// A nil body is sent as its type's zero body.
func (c *Conn) Send(m *Message) error {
	// The payload is appended behind room for the longest length prefix,
	// and the prefix written right before it once the length is known.
	const room = binary.MaxVarintLen64
	b := append(c.buf[:0], make([]byte, room)...)
	b = appendMessage(append(b, byte(m.Type)), m)
	var hdr [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(hdr[:], uint64(len(b)-room))
	frame := b[room-k:]
	copy(frame, hdr[:k])
	if cap(b) <= 64<<10 {
		c.buf = b
	}
	if _, err := c.w.Write(frame); err != nil {
		return fmt.Errorf("protocol: send %v: %w", m.Type, err)
	}
	if c.met != nil && m.Type.valid() {
		c.met.sendFrames[m.Type].Inc()
		c.met.sendBytes[m.Type].Add(uint64(len(frame)))
	}
	return nil
}

// Recv reads the next frame and decodes it: a length past MaxFrameBytes, a
// missing, out-of-range or reserved type, a body cut short or followed by
// trailing bytes, an oversized grant, batch, ack, name or build and a
// non-finite or negative time are protocol errors, not panics or unbounded
// allocations further up the stack. An io.EOF between frames is returned
// as is.
func (c *Conn) Recv() (*Message, error) {
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > MaxFrameBytes {
		return nil, fmt.Errorf("protocol: frame of %d bytes, want 1..%d", n, MaxFrameBytes)
	}
	frame, err := readFrame(c.r, int(n))
	if err != nil {
		return nil, err
	}
	m := &Message{Type: MsgType(frame[0])}
	if !m.Type.valid() {
		return nil, fmt.Errorf("protocol: message with invalid type %d", int(m.Type))
	}
	if c.met != nil {
		c.met.recvFrames[m.Type].Inc()
		c.met.recvBytes[m.Type].Add(uint64(len(frame)) + uint64(uvarintLen(n)))
	}
	r := wire.NewReader(frame[1:])
	decodeMessage(&r, m)
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("protocol: %v frame: %w", m.Type, err)
	}
	return m, nil
}

// readFrame reads an n-byte frame into a fresh buffer. Past 1 MiB the
// buffer grows with the bytes that arrive, not with the claim, so a hostile
// length costs little more than its sender transmits. Decoded byte slices alias the frame, which is never
// reused.
func readFrame(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, 1<<20))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n, 2*cap(buf))-len(buf))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a frame was begun
		}
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// measure reports whether v can be a duration: finite and not negative.
// Recv refuses any other, which no JSON view could render.
func measure(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.c.Close() }
