package obs

import (
	"sync"
	"time"
)

// EventKind discriminates job lifecycle events.
type EventKind uint8

const (
	// EvSubmitted records a job entering the registry.
	EvSubmitted EventKind = iota + 1
	// EvCoalesced records an identical submission attaching to this job.
	EvCoalesced
	// EvCacheHit records a submission answered by a retained run, on the
	// run's own ring; Detail names the index that hit: "exact" for a
	// repeat, "physics" for a looser precision target the run meets.
	EvCacheHit
	// EvResumed records a job restored by journal replay; Value counts the
	// chunks its snapshot restored (0 for a job queued whole).
	EvResumed
	// EvChunkGranted records one chunk handed to a worker.
	EvChunkGranted
	// EvChunkCompleted records one chunk's tally reduced into the job.
	EvChunkCompleted
	// EvChunkReassigned records a chunk requeued after its owner timed
	// out, disconnected, or stopped advertising it (Detail says which).
	EvChunkReassigned
	// EvChunkRejected records a result the reducer refused — benign
	// stragglers after finalize included; Detail carries the reason.
	EvChunkRejected
	// EvEstimate records a precision-targeted job's re-estimate after a
	// merge; Value is the observable's relative standard error.
	EvEstimate
	// EvFinalized records the job finishing; Detail distinguishes
	// "complete", "target-met" and "budget-exhausted".
	EvFinalized
	// EvCanceled records the job being canceled.
	EvCanceled
)

// String implements fmt.Stringer (also the JSON spelling).
func (k EventKind) String() string {
	switch k {
	case EvSubmitted:
		return "submitted"
	case EvCoalesced:
		return "coalesced"
	case EvCacheHit:
		return "cache-hit"
	case EvResumed:
		return "resumed"
	case EvChunkGranted:
		return "chunk-granted"
	case EvChunkCompleted:
		return "chunk-completed"
	case EvChunkReassigned:
		return "chunk-reassigned"
	case EvChunkRejected:
		return "chunk-rejected"
	case EvEstimate:
		return "estimate"
	case EvFinalized:
		return "finalized"
	case EvCanceled:
		return "canceled"
	default:
		return "unknown"
	}
}

// ParseEventKind maps the JSON spelling back to its EventKind (the inverse
// of String); ok is false for names no kind produces.
func ParseEventKind(s string) (k EventKind, ok bool) {
	for k := EvSubmitted; k <= EvCanceled; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Event is one entry of a job's lifecycle trace. Chunk is -1 for events
// that are not chunk-scoped.
type Event struct {
	Time   time.Time
	Kind   EventKind
	Chunk  int
	Worker string
	Detail string
	Value  float64
	// Span is a chunk-completed event's timing breakdown; nil for every
	// other kind, and for a completion whose chunk had no trustworthy
	// grant stamp.
	Span *Span
}

// Span is one chunk's cross-process timing breakdown, joined from
// server-side stamps (grant, flush arrival, reduce) and the
// worker-reported compute duration:
//
//	Queue   — chunk issued (or requeued) -> granted to a worker
//	Wire    — granted -> result arrival, minus compute: encode/decode,
//	          network, and any time the result waited on the worker's
//	          next request
//	Compute — worker-reported kernel time for this chunk (server-inferred
//	          share of the batch when the worker reported none)
//	Reduce  — this chunk's share of merging its batch into the job tally
//
// Durations, not absolute pairs, so a span stays meaningful across the
// two clocks involved (queue/wire/reduce are server-clock, compute is
// worker-clock).
type Span struct {
	Chunk   int
	Worker  string
	Granted time.Time // server clock; orders spans and anchors the record
	Queue   time.Duration
	Wire    time.Duration
	Compute time.Duration
	Reduce  time.Duration
}

// Trace is a job's bounded ring of lifecycle events: when full, the
// oldest events are overwritten and counted as dropped, so recent history
// is always reconstructable at a fixed memory cost no matter how many
// events churned through. A nil *Trace drops everything (tracing
// disabled).
//
// The backing array grows geometrically toward cap instead of being
// preallocated: a short-lived job (the common case — the service-plane
// bench creates thousands per second) pays for the handful of events it
// records, not for the full ring it never fills.
type Trace struct {
	mu      sync.Mutex
	cap     int // maximum ring size; len(buf) grows toward it
	buf     []Event
	start   int // index of the oldest event
	n       int // live events in the ring
	dropped uint64
}

// DefaultTraceEvents is the per-job ring capacity when the operator names
// none.
const DefaultTraceEvents = 512

// NewTrace returns a ring holding up to capacity events (<= 0 means
// DefaultTraceEvents).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	return &Trace{cap: capacity}
}

// Record appends an event, stamping it with the current time if unset,
// and overwrites the oldest when the ring is full.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.mu.Lock()
	if t.n == len(t.buf) && len(t.buf) < t.cap {
		// Grow toward cap. The ring has never wrapped while it is still
		// growing (start stays 0 until the first overwrite), so a plain
		// copy preserves order.
		next := min(max(len(t.buf)*2, 8), t.cap)
		grown := make([]Event, next)
		copy(grown, t.buf)
		t.buf = grown
	}
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = e
		t.n++
	} else {
		t.buf[t.start] = e
		t.start = (t.start + 1) % len(t.buf)
		t.dropped++
	}
	t.mu.Unlock()
}

// Snapshot returns the retained events in chronological order and how
// many older events the ring has overwritten.
func (t *Trace) Snapshot() (events []Event, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events = make([]Event, 0, t.n)
	for i := 0; i < t.n; i++ {
		events = append(events, t.buf[(t.start+i)%len(t.buf)])
	}
	return events, t.dropped
}

// Spans projects the ring onto its per-chunk spans: the span of every
// retained event that carries one, in completion order, and how many
// older events (of any kind) the ring has overwritten.
func (t *Trace) Spans() (spans []Span, dropped uint64) {
	events, dropped := t.Snapshot()
	for _, e := range events {
		if e.Span != nil {
			spans = append(spans, *e.Span)
		}
	}
	return spans, dropped
}
