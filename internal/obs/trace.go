package obs

import (
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
}

// Trace is a bounded ring of lifecycle events (see ring for the
// overwrite-oldest and grow-toward-cap semantics). A nil *Trace drops
// everything (tracing disabled).
type Trace struct {
	ring ring[Event]
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
	return &Trace{ring: ring[Event]{cap: capacity}}
}

// Record appends an event, stamping it with the current time if unset.
func (t *Trace) Record(e Event) {
	if t == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	t.ring.record(e)
}

// Snapshot returns the retained events in chronological order and how
// many older events the ring has overwritten.
func (t *Trace) Snapshot() (events []Event, dropped uint64) {
	if t == nil {
		return nil, 0
	}
	return t.ring.snapshot()
}
