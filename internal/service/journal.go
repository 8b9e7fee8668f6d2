package service

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Journal is the registry's crash-durability plane: a thin schema layer
// over a wal.Log that records exactly what a restart reads back — job
// accepted, amortized tally snapshots (the last one of a finished job is
// its result), cancel — so a restarted mcqueue replays its way back to the
// exact job set a SIGKILL interrupted. It is the only persistence: a
// polite SIGTERM merely compacts it first.
//
// The write policy is availability over durability-at-any-cost: an
// append failure is logged and the registry keeps serving (what a later
// crash can replay degrades, never what is being served), and appends happen
// off the registry and reduction locks, so the fleet's hot path never
// waits on storage. What replay restores is therefore bounded by the
// fsync policy — and by the snapshot cadence, since chunk tallies are
// pure functions of (seed, stream, fan): anything past the last snapshot
// is recomputed, not lost, and the resumed tally is identical to an
// uninterrupted run's.
type Journal struct {
	wlog *wal.Log
	opts JournalOptions
	log  *slog.Logger

	compacting atomic.Bool
	// compactAt is the log size that triggers the next size compaction:
	// CompactBytes, or twice what the last compaction left when the
	// retained jobs alone outweigh it — a rewrite then pays for itself in
	// appended bytes instead of running on every append.
	compactAt atomic.Int64
	// acceptMu serialises accept appends with compact's gather→Compact
	// window (see compact).
	acceptMu sync.Mutex

	mu        sync.Mutex
	sinceSnap map[Key]int // reduced chunks since each job's last snapshot
}

// Journal defaults.
const (
	DefaultSnapshotEvery = 64
	DefaultCompactBytes  = 64 << 20
)

// JournalOptions tune the journal's amortization knobs.
type JournalOptions struct {
	// SnapshotEvery appends a full tally snapshot after that many reduced
	// chunks per job (0 means DefaultSnapshotEvery). Smaller means less
	// recompute after a crash, more journal bytes.
	SnapshotEvery int
	// CompactBytes triggers a snapshot-based compaction once the log
	// exceeds it (0 means DefaultCompactBytes, negative disables the
	// size trigger; CompactJournal still works).
	CompactBytes int64
	// Logger, if set, receives journal warnings (nil discards).
	Logger *slog.Logger
}

// NewJournal wraps an opened wal.Log in the registry's record schema.
// Pass it in Options.Journal, then fold the log's replayed records back
// with Replay before serving traffic.
func NewJournal(l *wal.Log, opts JournalOptions) *Journal {
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = DefaultSnapshotEvery
	}
	if opts.CompactBytes == 0 {
		opts.CompactBytes = DefaultCompactBytes
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	jl := &Journal{wlog: l, opts: opts, log: opts.Logger, sinceSnap: make(map[Key]int)}
	jl.compactAt.Store(opts.CompactBytes)
	return jl
}

// Close releases the journal's write-ahead log. It is idempotent and
// nil-safe: the SIGTERM drain path and a failover teardown can both close
// the same journal, and the second call is a no-op returning nil (the
// underlying wal.Log carries the same guarantee). Appends after Close
// fail cleanly — logged and dropped like any other append failure, per
// the journal's availability-over-durability write policy.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.wlog.Close()
}

// Record payloads. Every record is self-contained — it decodes with no
// state carried from an earlier record — and leads with its job's 32-byte
// content key (all varints are unsigned):
//
//	accept:   key[32] · submission (AppendSubmission: JSON header, raw labels)
//	snapshot: key[32] · flags · nchunks · count · chunk-id* · [compact tally]
//	cancel:   key[32]
//
// The accept record carries the JobSpec itself, in the encoding it crossed
// the gateway→shard hop in, so a field added to it later is journaled
// without anyone remembering to and a voxel grid is written as its bytes,
// not as base64 text. A log written before that encoding holds the JobSpec
// as bare JSON; DecodeSubmission reads both. Snapshots — the high-rate
// record — are hand-framed binary and carry no spec: replay takes it from
// the key's accept record (Submit journals the accept as it registers the
// job, and a compaction writes an accept before each snapshot). The tally,
// present when flags&snapHasTally, is the exact bit-preserving compact
// codec from the result plane (mc.AppendTally), so a replayed tally merges
// to byte-identical results. The WAL sees only opaque bytes either way.
//
// Flag bit 0 is retired: it marked final snapshots and nothing read it.
const snapHasTally = 1 << 1

func appendKeyRec(key Key) []byte {
	return append([]byte(nil), key[:]...)
}

// readKey reads a record's leading content key and returns a reader on what
// follows it.
func readKey(data []byte) (Key, wire.Reader) {
	var k Key
	r := wire.NewReader(data)
	copy(k[:], r.Next(len(k)))
	return k, r
}

func decodeKeyRec(data []byte) (Key, error) {
	key, r := readKey(data)
	return key, recErr(&r)
}

// recErr returns a record reader's first failure, naming the journal.
func recErr(r *wire.Reader) error {
	if err := r.Err(); err != nil {
		return fmt.Errorf("service: malformed journal record: %w", err)
	}
	return nil
}

// encodeAcceptRec renders key[32] · AppendSubmission(spec). key[:] is a full
// slice, so the codec's one Grow to the record's exact size is the record's
// only buffer.
func encodeAcceptRec(key Key, spec *JobSpec) ([]byte, error) {
	return AppendSubmission(key[:], spec)
}

func decodeAcceptRec(data []byte) (Key, JobSpec, error) {
	key, r := readKey(data)
	if err := recErr(&r); err != nil {
		return key, JobSpec{}, err
	}
	spec, err := DecodeSubmission(r.Rest())
	return key, spec, err
}

func encodeSnapshotRec(key Key, nChunks int, completed []int, tally *mc.Tally) []byte {
	buf := make([]byte, 0, 1024)
	buf = append(buf, key[:]...)
	var flags byte
	if tally != nil {
		flags |= snapHasTally
	}
	buf = append(buf, flags)
	buf = wire.AppendUvarint(buf, uint64(nChunks))
	buf = wire.AppendUvarint(buf, uint64(len(completed)))
	for _, id := range completed {
		buf = wire.AppendUvarint(buf, uint64(id))
	}
	if tally != nil {
		buf = mc.AppendTally(buf, tally)
	}
	return buf
}

// decodeSnapshotRec returns the record's snapshot; the spec it resumes is
// the one of its key's accept record.
func decodeSnapshotRec(data []byte) (Key, snapshot, error) {
	var snap snapshot
	key, r := readKey(data)
	flags := r.Byte()
	snap.NChunks = r.Length(1<<31, "chunks")
	// Every id takes at least one byte, so the bytes left bound the count
	// before it sizes an allocation; and the count is at most NChunks, so
	// there is an id to read only when NChunks-1 is one.
	snap.Completed = make([]int, r.Count(snap.NChunks, "completed chunks"))
	for i := range snap.Completed {
		snap.Completed[i] = r.Length(snap.NChunks-1, "completed chunk id")
	}
	if err := recErr(&r); err != nil {
		return key, snapshot{}, err
	}
	if flags&snapHasTally != 0 {
		t, err := mc.DecodeTally(r.Rest())
		if err != nil {
			return key, snap, fmt.Errorf("service: snapshot tally: %w", err)
		}
		snap.Tally = t
	}
	return key, snap, nil
}

// snapshotRecord encodes a job's current resumable state directly from
// the live job under its reduction + registry locks (the order reducers
// use), so the record never observes a merge without its completion mark
// or vice versa. The tally is encoded in place, not copied first: the
// journal snapshots on the reduction path.
func snapshotRecord(j *Job) []byte {
	j.redMu.Lock()
	j.reg.mu.Lock()
	defer j.redMu.Unlock()
	defer j.reg.mu.Unlock()
	completed := make([]int, 0, j.inPhase[phaseDone])
	for id, c := range j.chunks {
		if c.phase == phaseDone {
			completed = append(completed, id)
		}
	}
	return encodeSnapshotRec(j.key, len(j.chunks), completed, j.tally)
}

// appendAccept encodes and appends one accept record; failures are
// logged, never propagated (see the type comment's availability
// contract). The append — not the encode — holds acceptMu, which compact
// holds across its whole rewrite.
func (jl *Journal) appendAccept(key Key, spec *JobSpec) {
	data, err := encodeAcceptRec(key, spec)
	if err == nil {
		jl.acceptMu.Lock()
		err = jl.wlog.Append(wal.RecJobAccepted, data)
		jl.acceptMu.Unlock()
	}
	if err != nil {
		jl.log.Error("journal append failed", "type", int(wal.RecJobAccepted), "err", err)
	}
}

// appendRaw appends pre-framed bytes under the same availability
// contract.
func (jl *Journal) appendRaw(t wal.RecordType, data []byte) {
	if err := jl.wlog.Append(t, data); err != nil {
		jl.log.Error("journal append failed", "type", int(t), "err", err)
	}
}

// jobAccepted journals a fresh admitted submission. The spec is a copy
// taken under the registry lock (absorbParamsLocked may mutate the live
// job's copy concurrently).
func (jl *Journal) jobAccepted(r *Registry, key Key, spec JobSpec) {
	if jl == nil {
		return
	}
	jl.appendAccept(key, &spec)
	jl.maybeCompact(r)
}

// chunksReduced paces the amortized snapshots: every SnapshotEvery
// reduced chunks per job it journals a full tally snapshot. The chunks
// themselves are not journaled — replay resumes from the last snapshot
// and recomputes the rest. A finished job gets its final snapshot at once:
// replay rebuilds it born Done from that, the answer to its repeats and
// looser targets again.
// It must be cut before sealJob releases the job's waiters, while the
// tally is still guaranteed quiescent — as is the size compaction after
// it, which snapshots the job again. Called with no registry or reduction
// locks held.
func (jl *Journal) chunksReduced(r *Registry, j *Job, chunks int, finished bool) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	due := finished
	if finished {
		delete(jl.sinceSnap, j.key)
	} else {
		jl.sinceSnap[j.key] += chunks
		if due = jl.sinceSnap[j.key] >= jl.opts.SnapshotEvery; due {
			jl.sinceSnap[j.key] = 0
		}
	}
	jl.mu.Unlock()
	if due {
		jl.snapshot(j)
	}
	jl.maybeCompact(r)
}

// snapshot journals the job's current resumable state.
func (jl *Journal) snapshot(j *Job) {
	jl.appendRaw(wal.RecSnapshot, snapshotRecord(j))
}

// canceled journals a cancel; replay drops the job.
func (jl *Journal) canceled(r *Registry, key Key) {
	if jl == nil {
		return
	}
	jl.appendRaw(wal.RecJobCanceled, appendKeyRec(key))
	jl.mu.Lock()
	delete(jl.sinceSnap, key)
	jl.mu.Unlock()
	jl.maybeCompact(r)
}

// acceptedSpec copies the job's spec under the registry lock
// (absorbParamsLocked may mutate the live copy concurrently) for an
// accept record.
func acceptedSpec(j *Job) JobSpec {
	j.reg.mu.Lock()
	spec := j.spec
	sp := *j.spec.Spec
	spec.Spec = &sp
	j.reg.mu.Unlock()
	return spec
}

// maybeCompact runs a compaction when the log has outgrown the trigger,
// at most one at a time; losers of the CAS just skip (the winner is
// already shrinking the log). Every append of a serving registry ends
// here — accept, reduced batch (final or not), cancel — so no mix of jobs
// grows the log past the trigger unnoticed. Replay appends nothing; it
// ends in a compaction of its own.
func (jl *Journal) maybeCompact(r *Registry) {
	if jl.opts.CompactBytes < 0 || jl.wlog.Size() < jl.compactAt.Load() {
		return
	}
	if !jl.compacting.CompareAndSwap(false, true) {
		return
	}
	defer jl.compacting.Store(false)
	if err := jl.compact(r); err != nil {
		jl.log.Error("journal compaction failed", "err", err)
	}
}

// compact rewrites the log to one accept + snapshot pair per retained
// job, live or finished (snapshots carry no spec, so each needs its accept
// record before it). History before the snapshots — older snapshots and
// canceled jobs — is dropped; a canceled job simply has nothing to replay.
// A cache hit is no job at all, so neither path journals one: a SIGTERM
// leaves what a SIGKILL would.
func (jl *Journal) compact(r *Registry) error {
	// Hold acceptMu for the whole rewrite: Compact deletes every existing
	// record, so an accept append racing the gather→Compact window would
	// be silently erased — its job unreplayable, since snapshots carry no
	// spec. Blocking accepts (submits are rare next to reductions) closes
	// the window. A snapshot that races it is only stale, never lost:
	// snapshotRecord below reads the job's state at least as late.
	jl.acceptMu.Lock()
	defer jl.acceptMu.Unlock()
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.order))
	for _, j := range r.order {
		if j.state != StateCanceled {
			jobs = append(jobs, j)
		}
	}
	r.mu.Unlock()
	recs := make([]wal.Record, 0, 2*len(jobs))
	for _, j := range jobs {
		spec := acceptedSpec(j)
		accept, err := encodeAcceptRec(j.key, &spec)
		if err != nil {
			return err
		}
		recs = append(recs,
			wal.Record{Type: wal.RecJobAccepted, Data: accept},
			wal.Record{Type: wal.RecSnapshot, Data: snapshotRecord(j)})
	}
	jl.mu.Lock()
	clear(jl.sinceSnap)
	jl.mu.Unlock()
	if err := jl.wlog.Compact(recs); err != nil {
		return err
	}
	jl.compactAt.Store(max(jl.opts.CompactBytes, 2*jl.wlog.Size()))
	return nil
}

// CompactJournal rewrites the journal down to one accept and one snapshot
// per retained job — Replay ends with it, and mcqueue's SIGTERM path calls
// it so a polite shutdown leaves a minimal log to replay. It runs whatever
// CompactBytes says (that is the size trigger only), and is a no-op without
// a journal or when a size-triggered compaction is already running.
func (r *Registry) CompactJournal() error {
	jl := r.journal
	if jl == nil {
		return nil
	}
	if !jl.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer jl.compacting.Store(false)
	return jl.compact(r)
}

// Replay folds recovered records into the registry, restoring every job
// the log holds as accepted and not canceled. Fold semantics, per job key:
// an accept record starts a new incarnation of the key (a resubmission
// after a cancel is a job again), the last snapshot wins, a cancel drops
// the incarnation. A record of the key with no accept before it belongs to
// the incarnation the next accept opens, and stands: Submit appends the
// accept off the registry lock, so a quick cancel or a one-chunk job's
// final snapshot can reach the log first.
//
// Every surviving key comes back through Registry.restore: born Done from
// a complete last snapshot (the answer to repeats and looser targets
// again), resumed from an incomplete one, or queued whole from its accept
// record alone. Whatever was reduced past the last snapshot recomputes,
// which is safe because a chunk tally is a pure function of (seed, stream,
// fan). Restores bypass admission — the work was admitted before the crash
// — and count into Stats.JobsReplayed. Replay then compacts once, so the
// log holds one accept and one snapshot per restored job and nothing it
// skipped; a failed compaction is logged and leaves the log as it was. A
// crash before or during it replays the same records again. Returns the
// number of jobs restored (live or done).
//
// A log holding a record of a retired type (wal.RecJobAcceptedGob,
// RecChunksReduced, RecJobFinalized) was written before the three-kind
// schema; it is refused whole, with nothing restored, rather than
// half-replayed without its accept records.
func (jl *Journal) Replay(r *Registry, records []wal.Record) (int, error) {
	if jl == nil || len(records) == 0 {
		return 0, nil
	}
	type jobState struct {
		spec     *JobSpec
		snap     *snapshot
		canceled bool
	}
	states := make(map[Key]*jobState)
	var order []Key
	get := func(k Key) *jobState {
		s := states[k]
		if s == nil {
			s = &jobState{}
			states[k] = s
			order = append(order, k)
		}
		return s
	}
	skipped := 0
	skip := func(what string, key Key, err error) {
		skipped++
		jl.log.Warn("journal replay: "+what+" skipped", "key", fmt.Sprintf("%x", key[:8]), "err", err)
	}
	for _, rec := range records {
		switch rec.Type {
		case wal.RecJobAccepted:
			key, spec, err := decodeAcceptRec(rec.Data)
			if err != nil {
				skip("accept record", key, err)
				continue
			}
			s := get(key)
			if s.spec != nil {
				*s = jobState{}
			}
			s.spec = &spec
		case wal.RecSnapshot:
			key, snap, err := decodeSnapshotRec(rec.Data)
			if err != nil {
				skip("snapshot record", key, err)
				continue
			}
			get(key).snap = &snap
		case wal.RecJobCanceled:
			key, err := decodeKeyRec(rec.Data)
			if err != nil {
				skip("cancel record", key, err)
				continue
			}
			get(key).canceled = true
		case wal.RecJobAcceptedGob, wal.RecChunksReduced, wal.RecJobFinalized:
			return 0, fmt.Errorf("service: journal holds a record of retired type %d, "+
				"written by a release before the accept/snapshot/cancel schema; "+
				"this binary keeps no decoder for it — finish or discard the journal "+
				"with the release that wrote it, or start on an empty directory", rec.Type)
		default:
			skip("record", Key{}, fmt.Errorf("unknown record type %d", rec.Type))
		}
	}
	restored := 0
	for _, k := range order {
		s := states[k]
		switch {
		case s.canceled:
			continue
		case s.spec == nil:
			// A snapshot whose accept record was lost (an append failure
			// in degraded mode): nothing resumable without the spec.
			skip("snapshot record", k, errors.New("no accept record for its key"))
			continue
		}
		if _, err := r.restore(*s.spec, s.snap); err != nil {
			skip("job", k, err)
			continue
		}
		restored++
	}
	if skipped > 0 {
		jl.log.Warn("journal replay: records skipped", "skipped", skipped)
	}
	jl.log.Info("journal replayed", "records", len(records), "jobs", restored)
	if err := r.CompactJournal(); err != nil {
		jl.log.Error("journal compaction failed", "err", err)
	}
	return restored, nil
}
