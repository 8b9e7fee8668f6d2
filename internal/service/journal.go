package service

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Journal is the registry's crash-durability plane: a thin schema layer
// over a wal.Log that records every control-plane transition — job
// accepted, chunk batches reduced, amortized tally snapshots, finalize,
// cancel — so a restarted mcqueue replays its way back to the exact job
// set a SIGKILL interrupted. It is the only persistence: a polite SIGTERM
// merely compacts it first.
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
	wlog    *wal.Log
	opts    JournalOptions
	log     *slog.Logger
	acceptC *acceptCodec

	compacting atomic.Bool

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
	return &Journal{wlog: l, opts: opts, log: opts.Logger,
		acceptC: newAcceptCodec(), sinceSnap: make(map[Key]int)}
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

// Record payloads. Only the cold accept record is gob-encoded (it
// carries the arbitrarily-structured spec, once per job); every
// high-rate record — chunk batches, snapshots, finalize/cancel marks —
// is hand-framed binary, because a fresh gob encoder re-sends full type
// descriptions and a fresh decoder recompiles its engines per record,
// which at service-plane job rates cost ~20% of control-plane
// throughput. Snapshots carry no spec at all: replay takes it from the
// job's accept record, which always precedes them (Submit journals the
// accept first, and compaction/resume rewrite an accept alongside each
// snapshot). The WAL sees only opaque bytes either way.
type walAccepted struct {
	Key  Key
	Spec JobSpec
}

// Binary record layouts (all varints are unsigned):
//
//	chunks:   key[32] · count · chunk-id*
//	mark:     key[32]                       (finalize and cancel)
//	snapshot: key[32] · flags · nchunks · count · chunk-id* · [compact tally]
//
// The tally, present when flags&snapHasTally, is the exact bit-preserving
// compact codec from the result plane (mc.AppendTally), so a replayed
// tally merges to byte-identical results.
const (
	snapFinal    = 1 << 0
	snapHasTally = 1 << 1
)

// snapParts is a decoded snapshot record — Snapshot minus the spec,
// which replay grafts back from the accept record.
type snapParts struct {
	final     bool
	nChunks   int
	completed []int
	tally     *mc.Tally
}

var errBadRecord = errors.New("service: malformed journal record")

func appendKeyRec(key Key) []byte {
	return append([]byte(nil), key[:]...)
}

func decodeKeyRec(data []byte) (Key, error) {
	var k Key
	if len(data) < len(k) {
		return k, errBadRecord
	}
	copy(k[:], data)
	return k, nil
}

func encodeChunksRec(key Key, chunks []int) []byte {
	buf := make([]byte, 0, len(key)+1+2*len(chunks))
	buf = append(buf, key[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(chunks)))
	for _, c := range chunks {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

func decodeSnapshotRec(data []byte) (Key, snapParts, error) {
	var p snapParts
	key, err := decodeKeyRec(data)
	if err != nil {
		return key, p, err
	}
	rest := data[len(key):]
	if len(rest) < 1 {
		return key, p, errBadRecord
	}
	flags := rest[0]
	rest = rest[1:]
	p.final = flags&snapFinal != 0
	uvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	nc, ok := uvarint()
	if !ok || nc > 1<<31 {
		return key, p, errBadRecord
	}
	p.nChunks = int(nc)
	count, ok := uvarint()
	if !ok || count > nc {
		return key, p, errBadRecord
	}
	p.completed = make([]int, 0, count)
	for range count {
		id, ok := uvarint()
		if !ok || id >= nc {
			return key, p, errBadRecord
		}
		p.completed = append(p.completed, int(id))
	}
	if flags&snapHasTally != 0 {
		t, err := mc.DecodeTally(rest)
		if err != nil {
			return key, p, fmt.Errorf("service: snapshot tally: %w", err)
		}
		p.tally = t
	}
	return key, p, nil
}

// snapshotRecord encodes a job's current resumable state directly from
// the live job under its reduction + registry locks (the order reducers
// use), so the record never observes a merge without its completion mark
// or vice versa. The tally is encoded in place, not copied first: the
// journal snapshots on the reduction path.
func snapshotRecord(j *Job, final bool) []byte {
	j.redMu.Lock()
	j.reg.mu.Lock()
	defer j.redMu.Unlock()
	defer j.reg.mu.Unlock()
	buf := make([]byte, 0, 1024)
	buf = append(buf, j.key[:]...)
	var flags byte
	if final {
		flags |= snapFinal
	}
	if j.tally != nil {
		flags |= snapHasTally
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(j.nChunks))
	count := 0
	for id := 0; id < j.nChunks; id++ {
		if j.completed[id] {
			count++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(count))
	for id := 0; id < j.nChunks; id++ {
		if j.completed[id] {
			buf = binary.AppendUvarint(buf, uint64(id))
		}
	}
	if j.tally != nil {
		buf = mc.AppendTally(buf, j.tally)
	}
	return buf
}

// acceptCodec gob-encodes accept records on a persistent stream. A fresh
// gob encoder re-sends the full type description of JobSpec/mc.Spec with
// every record (~25× the cost of encoding the values); a persistent
// encoder sends descriptors once and values after. Each record is
// prefixed with the stream's 8-byte generation id so replay can feed the
// records of one generation, in log order, through one matching decoder
// — the concatenation of a generation's records is exactly the byte
// stream its encoder produced. A generation's descriptors live in its
// first record, so a torn tail (which can only lose the last record)
// never strands a decodable record; an append *failure* mid-generation
// could, which is why appendAccept resets to a fresh generation on any
// error. Compaction also resets: it rewrites the log with a new
// generation's records and deletes the old prefix, and post-compaction
// appends continue the new generation whose descriptors the compacted
// segment now holds.
type acceptCodec struct {
	mu  sync.Mutex
	gen uint64
	buf bytes.Buffer
	enc *gob.Encoder
}

func newAcceptCodec() *acceptCodec {
	c := &acceptCodec{}
	c.resetLocked()
	return c
}

// resetLocked starts a fresh generation (random id, fresh encoder).
func (c *acceptCodec) resetLocked() {
	var g [8]byte
	rand.Read(g[:]) // never fails (go ≥ 1.24)
	c.gen = binary.LittleEndian.Uint64(g[:])
	c.buf.Reset()
	c.enc = gob.NewEncoder(&c.buf)
}

// encodeLocked returns one generation-prefixed accept record.
func (c *acceptCodec) encodeLocked(v walAccepted) ([]byte, error) {
	c.buf.Reset()
	if err := c.enc.Encode(v); err != nil {
		return nil, err
	}
	out := make([]byte, 8+c.buf.Len())
	binary.LittleEndian.PutUint64(out, c.gen)
	copy(out[8:], c.buf.Bytes())
	return out, nil
}

// acceptDecoder replays accept records: one persistent gob decoder per
// generation, fed each record's bytes in log order. A decode error
// poisons its generation's stream state, so the generation is tombstoned
// and its later records are skipped rather than misread.
type acceptDecoder struct {
	streams map[uint64]*acceptStream
}

type acceptStream struct {
	feed sliceFeeder
	dec  *gob.Decoder
	dead bool
}

// sliceFeeder is an io.Reader over a replaceable slice — the decoder's
// window onto the current record's bytes.
type sliceFeeder struct{ data []byte }

func (f *sliceFeeder) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func (ad *acceptDecoder) decode(data []byte) (walAccepted, error) {
	var a walAccepted
	if len(data) < 8 {
		return a, errBadRecord
	}
	gen := binary.LittleEndian.Uint64(data)
	st := ad.streams[gen]
	if st == nil {
		st = &acceptStream{}
		st.dec = gob.NewDecoder(&st.feed)
		if ad.streams == nil {
			ad.streams = make(map[uint64]*acceptStream)
		}
		ad.streams[gen] = st
	}
	if st.dead {
		return a, fmt.Errorf("service: accept record in poisoned stream %016x", gen)
	}
	st.feed.data = data[8:]
	if err := st.dec.Decode(&a); err != nil {
		st.dead = true
		return a, fmt.Errorf("service: accept record: %w", err)
	}
	if len(st.feed.data) != 0 {
		st.dead = true
		return a, errBadRecord
	}
	return a, nil
}

// appendAccept encodes and appends one accept record; failures are
// logged, never propagated (see the type comment's availability
// contract). Encode and append stay inside one critical section so
// records land in the log in stream order — a generation's first record
// carries its type descriptors, so a reordering would strand the
// overtaking record at replay. An error resets the generation: the
// failed record may hold descriptors (or a first-use type) that later
// records of this generation would silently depend on.
func (jl *Journal) appendAccept(v walAccepted) {
	jl.acceptC.mu.Lock()
	defer jl.acceptC.mu.Unlock()
	data, err := jl.acceptC.encodeLocked(v)
	if err == nil {
		err = jl.wlog.Append(wal.RecJobAccepted, data)
	}
	if err != nil {
		jl.acceptC.resetLocked()
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
func (jl *Journal) jobAccepted(key Key, spec JobSpec) {
	if jl == nil {
		return
	}
	jl.appendAccept(walAccepted{Key: key, Spec: spec})
}

// chunksReduced journals a reduced chunk batch and, every SnapshotEvery
// reduced chunks per job, a full tally snapshot. finished routes to the
// finalize path instead (final snapshot + mark) — it must run before
// sealJob releases the job's waiters, while the tally is still
// guaranteed quiescent. Called with no registry or reduction locks held.
func (jl *Journal) chunksReduced(r *Registry, j *Job, chunks []int, finished bool) {
	if jl == nil {
		return
	}
	jl.appendRaw(wal.RecChunksReduced, encodeChunksRec(j.key, chunks))
	if finished {
		jl.finalized(j)
		return
	}
	jl.mu.Lock()
	jl.sinceSnap[j.key] += len(chunks)
	due := jl.sinceSnap[j.key] >= jl.opts.SnapshotEvery
	if due {
		jl.sinceSnap[j.key] = 0
	}
	jl.mu.Unlock()
	if due {
		jl.snapshot(j, false)
	}
	jl.maybeCompact(r)
}

// snapshot journals the job's current resumable state.
func (jl *Journal) snapshot(j *Job, final bool) {
	jl.appendRaw(wal.RecSnapshot, snapshotRecord(j, final))
}

// finalized journals a job's completion: its final snapshot (replay
// re-seeds the result cache from it) and the finalize mark.
func (jl *Journal) finalized(j *Job) {
	if jl == nil {
		return
	}
	jl.snapshot(j, true)
	jl.appendRaw(wal.RecJobFinalized, appendKeyRec(j.key))
	jl.mu.Lock()
	delete(jl.sinceSnap, j.key)
	jl.mu.Unlock()
}

// canceled journals a cancel; replay drops the job.
func (jl *Journal) canceled(key Key) {
	if jl == nil {
		return
	}
	jl.appendRaw(wal.RecJobCanceled, appendKeyRec(key))
	jl.mu.Lock()
	delete(jl.sinceSnap, key)
	jl.mu.Unlock()
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

// resumed re-journals a job restored by replay so the journal is
// self-contained going forward. The accept record must precede the
// snapshot: snapshots carry no spec.
func (jl *Journal) resumed(j *Job, complete bool) {
	if jl == nil {
		return
	}
	jl.appendAccept(walAccepted{Key: j.key, Spec: acceptedSpec(j)})
	jl.snapshot(j, complete)
	if complete {
		jl.appendRaw(wal.RecJobFinalized, appendKeyRec(j.key))
	}
}

// maybeCompact runs a compaction when the log has outgrown the trigger,
// at most one at a time; losers of the CAS just skip (the winner is
// already shrinking the log).
func (jl *Journal) maybeCompact(r *Registry) {
	if jl.opts.CompactBytes < 0 || jl.wlog.Size() < jl.opts.CompactBytes {
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
// job (snapshots carry no spec, so each needs its accept record
// alongside): live jobs as resumable snapshots, finished ones with the
// finalize mark added (so a restart still re-seeds the result cache).
// History before the snapshots — older chunk batches and canceled jobs —
// is dropped; a canceled job simply has nothing to replay.
func (jl *Journal) compact(r *Registry) error {
	// Hold the accept codec for the whole rewrite: Compact deletes every
	// existing record, so an accept append racing the gather→Compact
	// window would be silently erased — its job unreplayable, since
	// snapshots carry no spec. Blocking accepts (submits are rare next to
	// reductions) closes the window, and the generation reset below means
	// the compacted log is a self-contained stream: its first accept
	// record carries the new generation's type descriptors, and
	// post-compaction accepts continue that same generation.
	jl.acceptC.mu.Lock()
	defer jl.acceptC.mu.Unlock()
	jl.acceptC.resetLocked()
	r.mu.Lock()
	jobs := make([]*Job, 0, len(r.order))
	states := make([]JobState, 0, len(r.order))
	for _, j := range r.order {
		if j.state == StateCanceled {
			continue
		}
		jobs = append(jobs, j)
		states = append(states, j.state)
	}
	r.mu.Unlock()
	recs := make([]wal.Record, 0, 3*len(jobs))
	for i, j := range jobs {
		accept, err := jl.acceptC.encodeLocked(walAccepted{Key: j.key, Spec: acceptedSpec(j)})
		if err != nil {
			return err
		}
		recs = append(recs, wal.Record{Type: wal.RecJobAccepted, Data: accept})
		// snapshotRecord takes the job's own locks, so a job that
		// finished between the gather above and here yields a complete
		// snapshot — replay makes it born-Done either way. The gathered
		// state only decides whether to add the finalize mark.
		recs = append(recs, wal.Record{Type: wal.RecSnapshot,
			Data: snapshotRecord(j, states[i] == StateDone)})
		if states[i] == StateDone {
			recs = append(recs, wal.Record{Type: wal.RecJobFinalized, Data: appendKeyRec(j.key)})
		}
	}
	jl.mu.Lock()
	clear(jl.sinceSnap)
	jl.mu.Unlock()
	return jl.wlog.Compact(recs)
}

// CompactJournal rewrites the journal down to one snapshot per retained
// job — mcqueue's SIGTERM path calls it so a polite shutdown leaves a
// minimal log to replay. A no-op without a journal or when a
// size-triggered compaction is already running.
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

// Replay folds recovered records into the registry, re-queueing every
// job the crash interrupted. Fold semantics: later records supersede
// earlier ones per job key — the last snapshot wins, a finalize mark
// makes the job born-Done from its final snapshot (re-seeding the result
// cache), a cancel mark drops it. Chunk-batch records past the last
// snapshot are progress markers only: those chunks recompute, which is
// safe because a chunk tally is a pure function of (seed, stream, fan).
// Returns the number of jobs restored (live or done). Replayed
// submissions bypass admission — their work was admitted before the
// crash — and count into Stats.JobsReplayed.
func (jl *Journal) Replay(r *Registry, records []wal.Record) (int, error) {
	if jl == nil || len(records) == 0 {
		return 0, nil
	}
	type jobState struct {
		spec      *JobSpec
		snap      *snapParts
		finalized bool
		canceled  bool
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
	var ad acceptDecoder
	for _, rec := range records {
		switch rec.Type {
		case wal.RecJobAccepted:
			a, err := ad.decode(rec.Data)
			if err != nil {
				skipped++
				jl.log.Warn("journal replay: accept record skipped", "err", err)
				continue
			}
			sp := a.Spec
			get(a.Key).spec = &sp
		case wal.RecSnapshot:
			key, parts, err := decodeSnapshotRec(rec.Data)
			if err != nil {
				skipped++
				continue
			}
			get(key).snap = &parts
		case wal.RecJobFinalized:
			key, err := decodeKeyRec(rec.Data)
			if err != nil {
				skipped++
				continue
			}
			get(key).finalized = true
		case wal.RecJobCanceled:
			key, err := decodeKeyRec(rec.Data)
			if err != nil {
				skipped++
				continue
			}
			get(key).canceled = true
		case wal.RecChunksReduced:
			// Progress markers; the durable tally behind them is the last
			// snapshot. Nothing to fold.
		default:
			skipped++
		}
	}
	restored := 0
	for _, k := range order {
		s := states[k]
		var err error
		switch {
		case s.canceled:
			continue
		case s.snap != nil && s.spec != nil:
			// Live job resumed from its last snapshot, or — when
			// finalized — born Done from its final one. The snapshot
			// record carries no spec; the accept record supplies it.
			snap := Snapshot{
				Spec:      *s.spec,
				NChunks:   s.snap.nChunks,
				Completed: s.snap.completed,
				Tally:     s.snap.tally,
			}
			snap.Spec.replay = true
			_, err = r.SubmitSnapshot(&snap)
		case s.snap != nil:
			// A snapshot whose accept record was lost (an append failure
			// in degraded mode): nothing resumable without the spec.
			skipped++
			jl.log.Warn("journal replay: snapshot without accept record",
				"key", fmt.Sprintf("%x", k[:8]))
			continue
		case s.finalized:
			// A finalize mark whose snapshot was lost (torn away with the
			// tail): nothing resumable. The work is gone from the cache
			// but not from the world — an identical resubmission simply
			// recomputes.
			continue
		case s.spec != nil:
			spec := *s.spec
			spec.replay = true
			_, err = r.Submit(spec)
		default:
			continue
		}
		if err != nil {
			skipped++
			jl.log.Warn("journal replay: job skipped", "err", err)
			continue
		}
		restored++
	}
	if skipped > 0 {
		jl.log.Warn("journal replay: records skipped", "skipped", skipped)
	}
	jl.log.Info("journal replayed", "records", len(records), "jobs", restored)
	return restored, nil
}
