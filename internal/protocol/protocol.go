// Package protocol defines the wire protocol between the DataManager server
// and worker clients: gob-encoded message envelopes over a stream transport.
// It mirrors the two-class architecture of the paper's Java platform — the
// DataManager assigns simulations, the Algorithm (worker) returns results.
package protocol

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
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
// mc codec instead of per-result gob, task requests advertise the
// computed-but-unflushed chunks the worker keeps back, jobs carry the
// multi-core fan width, and acks come back per chunk in a BatchAck.
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
const Version = 6

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

// Hello introduces a worker.
type Hello struct {
	Version int
	Name    string
	// Mflops is the worker's self-reported processing rate (Table 2); the
	// server records it for diagnostics and scheduling heuristics.
	Mflops float64
}

// Welcome greets a freshly connected worker. Jobs are delivered lazily via
// TaskAssign, so one worker session can serve many jobs.
type Welcome struct {
	Version    int
	ServerName string
}

// Job describes one complete simulation the fleet is computing.
type Job struct {
	ID   uint64
	Spec mc.Spec
	Seed uint64
	// Streams is the total number of RNG streams (= number of chunks) of a
	// fixed-count job. Zero means the job is open-ended — a
	// precision-targeted job issues chunks (streams 0, 1, 2, …) until its
	// Target is met, so workers must not bound the stream index.
	Streams int
	// Fan is the job-level multi-core decomposition: each chunk is split
	// across Fan jump-separated sub-streams (mc.RunStreamFan) so a worker
	// can compute one chunk on all its cores. Fan is part of the job's
	// identity — a chunk tally is a pure function of (Seed, Stream, Fan),
	// never of the worker's core count — and ≤ 1 means the legacy
	// single-stream chunk.
	Fan int
	// Target, when set, is the precision goal of an open-ended job
	// (informational for workers — the server owns the stopping rule; the
	// Spec's TrackMoments flag is what makes chunk tallies carry the
	// required moments).
	Target *mc.Target
}

// MaxKnownJobs bounds the KnownJobs advertisement in a TaskRequest. Workers
// cache at most a few dozen descriptors, so anything beyond this is a
// malformed or hostile frame; Recv rejects it before the registry allocates
// per-entry bookkeeping.
const MaxKnownJobs = 4096

// TaskRequest hands back what the worker has computed and asks the server
// for the next chunks of any job. KnownJobs is the authoritative list of
// job descriptors the worker currently holds: the server omits re-sending
// bulky specs for listed jobs and re-carries the descriptor for any job
// the worker has evicted from its bounded cache.
//
// Batch, when set, carries the pre-reduced results of everything the
// worker computed since its last request; the per-chunk acks ride back on
// the reply's BatchAck. Any assignment of the session the Batch does not
// cover is abandoned and requeued.
// Want asks the server to grant up to that many chunks of one job in a
// single TaskAssign, so a worker's next batch is its grant. 0 asks for
// none: a worker that is leaving flushes that way and is answered NoWork
// at once.
// Report, when set, piggybacks the worker's self-measured telemetry (see
// WorkerReport). All of the telemetry fields are additive: gob leaves
// absent fields zero, so adding them did not bump Version.
type TaskRequest struct {
	KnownJobs []uint64
	Batch     *ResultBatch
	Want      int
	Report    *WorkerReport
}

// MaxReportVersion bounds the WorkerReport build-string length; Recv
// rejects longer ones (a version string is tens of bytes, not kilobytes).
const MaxReportVersion = 128

// WorkerReport is a worker's compact self-portrait, piggybacked on a
// TaskRequest so the server's per-session profile reflects what the
// worker measured rather than only what the server can infer from ack
// timing. Workers attach it at a gentle cadence (not every request), so
// any single report may be slightly stale; the server folds each one into
// its session profile as it arrives.
type WorkerReport struct {
	// PhotonsPerSec is the worker's EWMA of kernel throughput: each grant's
	// photons over the wall time it took to compute, on however many cores.
	PhotonsPerSec float64
	// ChunkSecs / EncodeSecs are EWMAs of per-chunk compute and
	// batch-encode wall time.
	ChunkSecs  float64
	EncodeSecs float64
	// Goroutines and HeapBytes are Go runtime stats (sampled, rate-limited
	// worker-side — ReadMemStats is not free).
	Goroutines int
	HeapBytes  uint64
	// Version is the worker's build/version string (obs.Version).
	Version string
}

// TaskAssign hands one or more chunks of one job to a worker: at most as
// many as the request's Want, each with its own outstanding entry and
// timeout clock on the server. Job carries the full descriptor the first
// time a session is handed a chunk of a job it has not advertised as known.
type TaskAssign struct {
	JobID  uint64
	Job    *Job
	Grants []ChunkGrant
}

// ChunkGrant is one chunk of a TaskAssign. Stream selects the chunk's
// dedicated RNG stream so results are reproducible and order-independent.
type ChunkGrant struct {
	ChunkID int
	Stream  int
	Photons int64
}

// MaxGrantChunks bounds the chunks one TaskAssign may grant; Recv rejects
// larger frames.
const MaxGrantChunks = 64

// MaxFan bounds a job's fan width: a worker allocates one generator per
// sub-stream of a fanned chunk. The service refuses a wider submission, and
// Recv a TaskAssign for one.
const MaxFan = 1024

// MaxBatchChunks bounds the total chunks covered by one ResultBatch;
// larger frames are malformed or hostile and rejected by Recv before the
// registry allocates per-chunk bookkeeping.
const MaxBatchChunks = 4096

// BatchGroup is one job's slice of a ResultBatch: the covered chunk list
// and the worker-side pre-reduction of those chunks' tallies, encoded with
// the compact mc codec (mc.AppendTally). Carrying bytes instead of a
// *mc.Tally keeps the envelope's gob cost flat and lets the server decode
// off the registry lock into a reusable scratch tally.
// ChunkSecs, when non-empty, is the per-chunk compute wall time parallel
// to Chunks — the worker-side timing that lets the server split Elapsed
// into true per-chunk spans instead of assuming a uniform share. Additive
// (v4 workers that omit it still reduce fine); Recv requires its length
// to be zero or exactly len(Chunks).
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

// countWriter / countReader observe the raw transport byte streams so
// Send/Recv can attribute per-message byte deltas to the message type.
// The counts are read only from the same goroutine that drives the
// codec half, so plain fields suffice (a Conn is half-duplex per side:
// one goroutine sends, one receives).
type countWriter struct {
	w io.Writer
	n uint64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

type countReader struct {
	r io.Reader
	n uint64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// Conn wraps a stream with gob encode/decode of Messages. It is not safe
// for concurrent writers.
type Conn struct {
	enc *gob.Encoder
	dec *gob.Decoder
	bw  *bufio.Writer
	cw  *countWriter
	cr  *countReader
	met *ConnMetrics
	c   io.Closer
}

// NewConn wraps rw (a net.Conn or an in-memory pipe) in the protocol codec.
// Writes are buffered and flushed once per Send: gob emits a message as
// several small writes (type sections, then the value), and coalescing them
// halves the rendezvous count on synchronous transports like net.Pipe and
// the syscall count on TCP.
func NewConn(rw io.ReadWriteCloser) *Conn {
	cw := &countWriter{w: rw}
	cr := &countReader{r: rw}
	bw := bufio.NewWriterSize(cw, 16<<10)
	return &Conn{enc: gob.NewEncoder(bw), dec: gob.NewDecoder(cr), bw: bw, cw: cw, cr: cr, c: rw}
}

// SetMetrics attaches frame/byte accounting to the connection. Call it
// before the first Send/Recv; nil detaches.
func (c *Conn) SetMetrics(m *ConnMetrics) { c.met = m }

// Send encodes one message and flushes it to the transport.
func (c *Conn) Send(m *Message) error {
	before := c.cw.n
	if err := c.enc.Encode(m); err != nil {
		return fmt.Errorf("protocol: send %v: %w", m.Type, err)
	}
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("protocol: send %v: %w", m.Type, err)
	}
	if c.met != nil && m.Type.valid() {
		c.met.sendFrames[m.Type].Inc()
		c.met.sendBytes[m.Type].Add(c.cw.n - before)
	}
	return nil
}

// Recv decodes the next message and validates its envelope: a missing,
// out-of-range or reserved type, a task request without its body, an
// oversized KnownJobs advertisement, grant or batch are protocol errors,
// not panics or unbounded allocations further up the stack.
func (c *Conn) Recv() (*Message, error) {
	before := c.cr.n
	var m Message
	if err := c.dec.Decode(&m); err != nil {
		return nil, err
	}
	if !m.Type.valid() {
		return nil, fmt.Errorf("protocol: message with invalid type %d", int(m.Type))
	}
	if c.met != nil {
		c.met.recvFrames[m.Type].Inc()
		c.met.recvBytes[m.Type].Add(c.cr.n - before)
	}
	if m.Type == MsgTaskRequest && m.Request == nil {
		return nil, fmt.Errorf("protocol: task request without a body")
	}
	if m.Request != nil {
		if len(m.Request.KnownJobs) > MaxKnownJobs {
			return nil, fmt.Errorf("protocol: task request advertises %d known jobs, max %d",
				len(m.Request.KnownJobs), MaxKnownJobs)
		}
		if rep := m.Request.Report; rep != nil {
			if len(rep.Version) > MaxReportVersion {
				return nil, fmt.Errorf("protocol: worker report version string is %d bytes, max %d",
					len(rep.Version), MaxReportVersion)
			}
			if !measure(rep.PhotonsPerSec) || !measure(rep.ChunkSecs) || !measure(rep.EncodeSecs) {
				return nil, fmt.Errorf("protocol: worker report carries a negative or non-finite rate or time")
			}
		}
		if b := m.Request.Batch; b != nil {
			if n := b.NumChunks(); n > MaxBatchChunks {
				return nil, fmt.Errorf("protocol: result batch covers %d chunks, max %d", n, MaxBatchChunks)
			}
			for i := range b.Groups {
				if len(b.Groups[i].Chunks) == 0 {
					return nil, fmt.Errorf("protocol: result batch group %d covers no chunks", i)
				}
				if ns := len(b.Groups[i].ChunkSecs); ns != 0 && ns != len(b.Groups[i].Chunks) {
					return nil, fmt.Errorf("protocol: result batch group %d has %d chunk timings for %d chunks",
						i, ns, len(b.Groups[i].Chunks))
				}
				if g := &b.Groups[i]; g.Elapsed < 0 || slices.ContainsFunc(g.ChunkSecs, func(s float64) bool { return !measure(s) }) {
					return nil, fmt.Errorf("protocol: result batch group %d carries a negative or non-finite time", i)
				}
			}
		}
	}
	if m.Assign != nil && len(m.Assign.Grants) > MaxGrantChunks {
		return nil, fmt.Errorf("protocol: task assign grants %d chunks, max %d",
			len(m.Assign.Grants), MaxGrantChunks)
	}
	if m.Assign != nil && m.Assign.Job != nil && m.Assign.Job.Fan > MaxFan {
		return nil, fmt.Errorf("protocol: task assign fans chunks %d ways, max %d",
			m.Assign.Job.Fan, MaxFan)
	}
	if m.BatchAck != nil && len(m.BatchAck.Acks) > MaxBatchChunks {
		return nil, fmt.Errorf("protocol: batch ack covers %d chunks, max %d",
			len(m.BatchAck.Acks), MaxBatchChunks)
	}
	return &m, nil
}

// measure reports whether v can be a rate or a duration: finite and not
// negative. Recv refuses any other, which no JSON view could render.
func measure(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Close closes the underlying transport.
func (c *Conn) Close() error { return c.c.Close() }
