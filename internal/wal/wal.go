// Package wal is an append-only, segmented, CRC32C-framed write-ahead
// log: the durability substrate under the service registry's job
// journal. Records are opaque (type byte + payload) — the schema lives
// in the journal layer — and the log's own guarantees are narrow and
// mechanical:
//
//   - An Append is atomic-on-replay: a record either survives whole
//     (length and checksum verify) or is truncated away with the torn
//     tail. Frames are written with a single write call, so an
//     in-process crash tears at most the last frame.
//   - Durability is governed by the fsync policy: "always" syncs every
//     append before it returns; "interval" (the default) never syncs
//     inside an append and never makes one wait — the first append to a
//     clean log arms a timer that syncs one interval later, idle tail
//     included, outside the log's lock; "none" leaves it to the OS. A
//     SIGKILL loses nothing under any policy — the page cache survives
//     process death — so the policy only prices power loss and kernel
//     panics.
//   - The log rotates to a new segment when the current one fills, and
//     Compact atomically replaces all segments with a caller-provided
//     record set (the journal's snapshots). A crash between writing the
//     compacted segment and unlinking its predecessors leaves both on
//     disk; replay order makes that harmless, because compacted records
//     sort after — and therefore supersede — everything they summarize.
//
// Open replays every segment in sequence order, tolerating a torn tail
// (truncate at the first bad frame, count it, keep going) and gapped or
// empty segments, then arms the last segment for appending.
package wal

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// FsyncPolicy says when Append calls fsync.
type FsyncPolicy int

const (
	// FsyncInterval (default) fsyncs at most once per FsyncInterval, from
	// a timer the first append after a sync arms — never on the append
	// path nor under the lock appends take, and whether or not another
	// append follows. The window of exposure to power loss is one interval
	// plus one fsync; a process kill loses nothing.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways fsyncs every append before it returns.
	FsyncAlways
	// FsyncNone never fsyncs on append (Sync, rotation sealing and
	// compaction still do): durability rides entirely on the OS.
	FsyncNone
)

// ParseFsyncPolicy maps the flag spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "interval", "":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or none)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNone:
		return "none"
	default:
		return "interval"
	}
}

// Defaults for zero-valued Options fields.
const (
	DefaultSegmentBytes  = 8 << 20
	DefaultFsyncInterval = 100 * time.Millisecond
)

// Options configure Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the current one exceeds
	// it; 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Fsync picks the append durability policy.
	Fsync FsyncPolicy
	// FsyncInterval is how long an appended record may wait for its fsync
	// under the FsyncInterval policy; 0 means DefaultFsyncInterval.
	FsyncInterval time.Duration
	// Obs receives the wal_* metrics; nil instruments a private registry.
	Obs *obs.Registry
	// Logger, if set, receives torn-tail and compaction logging.
	Logger *slog.Logger
}

// Replay is what Open recovered from disk.
type Replay struct {
	// Records are every intact record across all segments, in append
	// order.
	Records []Record
	// Segments is how many segment files were scanned.
	Segments int
	// TornTruncations counts segments that ended in a torn or corrupt
	// frame (the tail segment is physically truncated to its clean
	// prefix; earlier segments just have the garbage ignored).
	TornTruncations int
	// Bytes is the total clean-prefix byte count replayed.
	Bytes int64
}

type walMetrics struct {
	appends      *obs.Counter
	appendErrors *obs.Counter
	bytes        *obs.Counter
	fsyncSec     *obs.Histogram
	replayRecs   *obs.Counter
	tornTruncs   *obs.Counter
	rotations    *obs.Counter
	compactions  *obs.Counter
}

func newWalMetrics(reg *obs.Registry) *walMetrics {
	return &walMetrics{
		appends:      reg.Counter("wal_appends_total", "Records appended to the write-ahead log."),
		appendErrors: reg.Counter("wal_append_errors_total", "Append or rotation failures (the record may not be durable)."),
		bytes:        reg.Counter("wal_bytes_total", "Bytes appended to the write-ahead log."),
		fsyncSec:     reg.Histogram("wal_fsync_seconds", "Latency of WAL fsync calls.", obs.DefBuckets),
		replayRecs:   reg.Counter("wal_replay_records_total", "Intact records recovered by replay at open."),
		tornTruncs:   reg.Counter("wal_torn_tail_truncations_total", "Segments whose tail was torn or corrupt at open."),
		rotations:    reg.Counter("wal_rotations_total", "Segment rotations."),
		compactions:  reg.Counter("wal_compactions_total", "Snapshot-based compactions."),
	}
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use; appends are serialized internally.
type Log struct {
	opts Options
	log  *slog.Logger
	met  *walMetrics

	mu        sync.Mutex
	f         *os.File // current append segment
	seq       uint64   // its sequence number
	size      int64    // its byte length
	total     int64    // clean bytes across all live segments
	dirty     bool
	closed    bool
	syncTimer *time.Timer // FsyncInterval's pending sync, nil when none is armed
}

func (l *Log) segPath(seq uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("wal-%016d.log", seq))
}

// segments lists existing segment sequence numbers in replay order.
func (l *Log) segments() ([]uint64, error) {
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	seqs := make([]uint64, 0, len(names))
	for _, name := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open replays the log in dir (creating it if absent) and arms it for
// appending. The returned Replay holds every intact record in append
// order; the caller folds them into its own state.
func Open(opts Options) (*Log, *Replay, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: no directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = DefaultFsyncInterval
	}
	if opts.Logger == nil {
		opts.Logger = obs.NopLogger()
	}
	oreg := opts.Obs
	if oreg == nil {
		oreg = obs.NewRegistry()
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	l := &Log{opts: opts, log: opts.Logger, met: newWalMetrics(oreg)}
	// A temp file left by a compaction that died before its rename is
	// dead weight (its seq was never committed); clear it.
	if stale, err := filepath.Glob(filepath.Join(opts.Dir, "wal-*.log.tmp")); err == nil {
		for _, p := range stale {
			os.Remove(p)
		}
	}
	seqs, err := l.segments()
	if err != nil {
		return nil, nil, err
	}
	rep := &Replay{Segments: len(seqs)}
	for i, seq := range seqs {
		path := l.segPath(seq)
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, nil, err
		}
		clean := scanFrames(buf, func(rec Record) {
			rep.Records = append(rep.Records, rec)
		})
		if clean < len(buf) {
			rep.TornTruncations++
			l.met.tornTruncs.Inc()
			l.log.Warn("wal: torn segment tail", "segment", filepath.Base(path), "clean", clean, "size", len(buf))
			if i == len(seqs)-1 {
				// Physically truncate the tail segment so appends resume
				// on a clean frame boundary. Earlier segments are sealed
				// (never appended to again); ignoring their garbage is
				// enough.
				if err := os.Truncate(path, int64(clean)); err != nil {
					return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
				}
			}
		}
		rep.Bytes += int64(clean)
		l.total += int64(clean)
	}
	l.met.replayRecs.Add(uint64(len(rep.Records)))
	if len(seqs) == 0 {
		l.seq = 1
		if err := l.createSegmentLocked(false); err != nil {
			return nil, nil, err
		}
	} else {
		last := seqs[len(seqs)-1]
		f, err := os.OpenFile(l.segPath(last), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		l.f, l.seq, l.size = f, last, st.Size()
	}
	return l, rep, nil
}

// createSegmentLocked opens a fresh segment file for l.seq and makes its
// directory entry durable. rotation distinguishes a mid-run rotation
// (which carries the crashpoint) from the initial segment at Open.
func (l *Log) createSegmentLocked(rotation bool) error {
	f, err := os.OpenFile(l.segPath(l.seq), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if rotation {
		// The new segment file exists but its directory entry may not be
		// durable, and the old segment is sealed: the moment a crash
		// leaves an empty or missing trailing segment behind.
		fault.Crash("wal.mid-rotation")
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, 0
	return nil
}

// rotateLocked seals the current segment (fsync + close — a sealed
// segment is never written again, so it is made durable regardless of
// policy) and starts the next one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seq++
	if err := l.createSegmentLocked(true); err != nil {
		return err
	}
	l.met.rotations.Inc()
	return nil
}

// Append frames the record and writes it to the log, rotating first if
// the current segment is full, then applies the fsync policy. On return
// with a nil error the record is at least process-crash-durable; whether
// it is power-loss-durable is the policy's call.
func (l *Log) Append(t RecordType, data []byte) error {
	frame := encodeFrame(Record{Type: t, Data: data})
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	if l.size > 0 && l.size+int64(len(frame)) > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.met.appendErrors.Inc()
			return fmt.Errorf("wal: rotate: %w", err)
		}
	}
	if fault.Take("wal.mid-append") {
		// Stage the damage before dying: half a frame reaches the file,
		// the torn tail replay must absorb.
		l.f.Write(frame[:len(frame)/2])
		fault.Kill("wal.mid-append")
	}
	n, err := l.f.Write(frame)
	if err != nil {
		// A short write leaves a torn frame; replay truncates it away, so
		// the failed record is consistently absent rather than half-there.
		l.met.appendErrors.Inc()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.size += int64(n)
	l.total += int64(n)
	l.dirty = true
	l.met.appends.Inc()
	l.met.bytes.Add(uint64(n))
	fault.Crash("wal.post-append")
	switch l.opts.Fsync {
	case FsyncAlways:
		return l.syncLocked()
	case FsyncInterval:
		if l.syncTimer == nil {
			l.syncTimer = time.AfterFunc(l.opts.FsyncInterval, l.intervalSync)
		}
	}
	return nil
}

// syncFile is the fsync the interval timer issues; a test stalls it.
var syncFile = (*os.File).Sync

// intervalSync is the FsyncInterval timer: it syncs what was appended since
// it was armed and disarms, so the next append arms the next one. The fsync
// runs outside the lock — an append never waits for it, however slow the
// disk — and clears the dirty mark only if nothing was appended beside it;
// what was has armed its own timer. A failure has no caller to return to:
// it is logged and the log stays dirty.
func (l *Log) intervalSync() {
	l.mu.Lock()
	l.syncTimer = nil
	f, size := l.f, l.size
	idle := l.closed || !l.dirty
	l.mu.Unlock()
	if idle {
		return
	}
	start := time.Now()
	err := syncFile(f)
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed || l.f != f:
		// Close, a rotation or a compaction retired the segment under the
		// fsync; each of them made it durable itself.
	case err != nil:
		l.log.Error("wal: interval fsync failed", "err", err)
	default:
		l.met.fsyncSec.Observe(time.Since(start).Seconds())
		if l.size == size {
			l.dirty = false
		}
	}
}

func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.met.fsyncSec.Observe(time.Since(start).Seconds())
	l.dirty = false
	return nil
}

// Sync forces an fsync of the current segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// Size returns the total clean bytes across live segments — the
// journal's compaction trigger.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Compact atomically replaces the entire log with the given record set
// (the journal's per-job snapshots). The compacted records land in a
// fresh segment numbered after every existing one, written crash-durably
// via AtomicReplace before the predecessors are unlinked: a crash in
// between leaves old and new segments coexisting, which replay resolves
// by order — the compacted records come last and supersede what they
// summarize, so replaying (old + compacted) equals replaying compacted
// alone. Appending continues into the compacted segment.
func (l *Log) Compact(records []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	old, err := l.segments()
	if err != nil {
		return err
	}
	newSeq := l.seq + 1
	path := l.segPath(newSeq)
	var nbytes int64
	err = AtomicReplace(path, func(f *os.File) error {
		for _, rec := range records {
			frame := encodeFrame(rec)
			if _, err := f.Write(frame); err != nil {
				return err
			}
			nbytes += int64(len(frame))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The compacted segment is durable; its predecessors still exist. A
	// crash here is the double-replay case the idempotence test covers.
	fault.Crash("wal.mid-compaction")
	l.f.Close()
	for _, seq := range old {
		if seq < newSeq {
			os.Remove(l.segPath(seq))
		}
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen compacted segment: %w", err)
	}
	l.f, l.seq, l.size, l.total = f, newSeq, nbytes, nbytes
	l.dirty = false
	l.met.compactions.Inc()
	l.log.Info("wal: compacted", "records", len(records), "bytes", nbytes, "retired", len(old))
	return nil
}

// Close syncs and closes the log. Further appends fail. Close is
// idempotent: the SIGTERM drain and a failover teardown can both close
// the same log, and every call after the first is a no-op returning nil
// — never an error on the already-closed descriptor.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.syncTimer != nil {
		l.syncTimer.Stop() // one already firing finds the log closed
	}
	if err := l.syncLocked(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
