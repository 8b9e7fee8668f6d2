package wal

import (
	"bytes"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func openT(t *testing.T, opts Options) (*Log, *Replay) {
	t.Helper()
	l, rep, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%+v): %v", opts, err)
	}
	return l, rep
}

func rec(i int) Record {
	return Record{Type: RecordType(1 + i%5), Data: []byte(fmt.Sprintf("record-%04d", i))}
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := rec(i)
		if err := l.Append(r.Type, r.Data); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, got []Record, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, g := range got {
		w := rec(i)
		if g.Type != w.Type || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, g.Type, g.Data, w.Type, w.Data)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rep := openT(t, Options{Dir: dir})
	if len(rep.Records) != 0 || rep.Segments != 0 {
		t.Fatalf("fresh log replayed %d records over %d segments", len(rep.Records), rep.Segments)
	}
	appendN(t, l, 100)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rep2 := openT(t, Options{Dir: dir})
	defer l2.Close()
	wantRecords(t, rep2.Records, 100)
	if rep2.TornTruncations != 0 {
		t.Fatalf("clean log reported %d torn truncations", rep2.TornTruncations)
	}
	// Appends continue after a reopen.
	if err := l2.Append(rec(100).Type, rec(100).Data); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Each framed record is 8 + 1 + 11 = 20 bytes; a 64-byte segment
	// rotates every 3 records.
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 64})
	appendN(t, l, 20)
	l.Close()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("expected >= 3 segments after rotation, got %v (err %v)", segs, err)
	}
	l2, rep := openT(t, Options{Dir: dir, SegmentBytes: 64})
	defer l2.Close()
	wantRecords(t, rep.Records, 20)
	if rep.Segments != len(segs) {
		t.Fatalf("replay saw %d segments, glob %d", rep.Segments, len(segs))
	}
}

func TestCompactReplacesSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 64})
	appendN(t, l, 50)
	before := l.Size()
	compacted := []Record{{Type: RecSnapshot, Data: []byte("the-snapshot")}}
	if err := l.Compact(compacted); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := l.Size(); after >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before, after)
	}
	// Appends continue into the compacted segment and survive a reopen.
	if err := l.Append(RecJobAccepted, []byte("post-compact")); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("expected 1 segment after compaction, got %v", segs)
	}
	l2, rep := openT(t, Options{Dir: dir})
	defer l2.Close()
	if len(rep.Records) != 2 {
		t.Fatalf("replayed %d records, want 2 (snapshot + post-compact)", len(rep.Records))
	}
	if !bytes.Equal(rep.Records[0].Data, []byte("the-snapshot")) ||
		!bytes.Equal(rep.Records[1].Data, []byte("post-compact")) {
		t.Fatalf("unexpected records after compaction: %q %q",
			rep.Records[0].Data, rep.Records[1].Data)
	}
}

// TestCompactUsesAtomicReplace pins the compaction write path to the
// crash-durable helper.
func TestCompactUsesAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	var replaced []string
	ReplaceHook = func(path string) { replaced = append(replaced, path) }
	defer func() { ReplaceHook = nil }()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 5)
	if err := l.Compact([]Record{{Type: RecSnapshot, Data: []byte("s")}}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	defer l.Close()
	if len(replaced) != 1 {
		t.Fatalf("compaction used AtomicReplace %d times, want 1", len(replaced))
	}
	if filepath.Dir(replaced[0]) != dir {
		t.Fatalf("AtomicReplace target %q not in wal dir %q", replaced[0], dir)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, p := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			l, _ := openT(t, Options{Dir: dir, Fsync: p, Obs: reg})
			appendN(t, l, 10)
			if err := l.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			l.Close()
			l2, rep := openT(t, Options{Dir: dir, Fsync: p})
			defer l2.Close()
			wantRecords(t, rep.Records, 10)
		})
	}
}

// TestFsyncIntervalSyncsAnIdleTail: under FsyncInterval a record's
// exposure to power loss is one interval whether or not another append
// ever follows — the sync comes from a timer, not from the next append —
// and a burst inside one interval shares one sync.
func TestFsyncIntervalSyncsAnIdleTail(t *testing.T) {
	reg := obs.NewRegistry()
	fsyncs := reg.Histogram("wal_fsync_seconds", "", obs.DefBuckets)
	l, _ := openT(t, Options{Dir: t.TempDir(), Fsync: FsyncInterval, FsyncInterval: 20 * time.Millisecond, Obs: reg})
	defer l.Close()
	waitFor := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for fsyncs.Count() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%d fsyncs after 250 intervals of idleness, want %d", fsyncs.Count(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	appendN(t, l, 1)
	waitFor(1)
	appendN(t, l, 5) // one timer for the burst
	waitFor(2)
	time.Sleep(60 * time.Millisecond) // a clean log arms nothing
	if n := fsyncs.Count(); n != 2 {
		t.Fatalf("%d fsyncs for two bursts, want 2", n)
	}
}

// TestAppendDoesNotWaitForAnIntervalSync: the interval fsync runs outside
// the log's lock, so a disk that takes its time over one costs no append
// anything, and the record appended beside a sync gets one of its own.
func TestAppendDoesNotWaitForAnIntervalSync(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	syncFile = func(f *os.File) error {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
		}
		return f.Sync()
	}
	defer func() { syncFile = (*os.File).Sync }()
	reg := obs.NewRegistry()
	fsyncs := reg.Histogram("wal_fsync_seconds", "", obs.DefBuckets)
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Fsync: FsyncInterval, FsyncInterval: 10 * time.Millisecond, Obs: reg})
	appendN(t, l, 1)
	<-entered // the first record's fsync is in flight and stays there
	done := make(chan error)
	go func() { done <- l.Append(rec(1).Type, rec(1).Data) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Append waited for the interval fsync")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for fsyncs.Count() < 2 { // the stalled sync and the second record's own
		if time.Now().After(deadline) {
			t.Fatalf("%d fsyncs, want 2: the record appended beside a sync never got one", fsyncs.Count())
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rep := openT(t, Options{Dir: dir})
	defer l2.Close()
	wantRecords(t, rep.Records, 2)
}

// TestIntervalSyncOutlivesItsSegment: a rotation retires (syncs, closes) the
// segment an interval fsync is in flight on; the stale fsync's "file already
// closed" is not a failure, and it leaves the new segment's state alone.
func TestIntervalSyncOutlivesItsSegment(t *testing.T) {
	entered, release, stale := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	syncFile = func(f *os.File) error {
		close(entered) // the one timer this test fires
		<-release
		err := f.Sync()
		stale <- err
		return err
	}
	defer func() { syncFile = (*os.File).Sync }()
	var logged bytes.Buffer
	dir := t.TempDir()
	// 20-byte frames: the fourth append rotates.
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 64, Fsync: FsyncInterval, FsyncInterval: time.Hour,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	appendN(t, l, 1)
	l.mu.Lock()
	l.syncTimer.Reset(0) // fire the hour-long timer now; no other will
	l.mu.Unlock()
	<-entered
	for i := 1; i < 5; i++ {
		if err := l.Append(rec(i).Type, rec(i).Data); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if err := <-stale; err == nil {
		t.Fatal("the fsync of a segment the rotation closed succeeded")
	}
	time.Sleep(10 * time.Millisecond) // let intervalSync take the lock and finish
	l.mu.Lock()
	dirty := l.dirty
	l.mu.Unlock()
	if !dirty {
		t.Fatal("a sync of the retired segment marked the live one clean")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if logged.Len() != 0 {
		t.Fatalf("logged: %s", logged.String())
	}
	l2, rep := openT(t, Options{Dir: dir})
	defer l2.Close()
	wantRecords(t, rep.Records, 5)
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "none": FsyncNone, "": FsyncInterval,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseFsyncPolicy accepted garbage")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openT(t, Options{Dir: t.TempDir()})
	l.Close()
	if err := l.Append(RecJobAccepted, []byte("x")); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// TestCloseIdempotent pins the failover/drain contract: the SIGTERM pass
// and a lease-handoff teardown may both close the same log, and every
// Close after the first must be a nil no-op, with appends still failing
// cleanly in between.
func TestCloseIdempotent(t *testing.T) {
	l, _ := openT(t, Options{Dir: t.TempDir()})
	appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v (want nil no-op)", err)
	}
	if err := l.Append(RecJobAccepted, []byte("x")); err == nil {
		t.Fatal("append between closes succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close after failed append: %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, Fsync: FsyncAlways, Obs: reg})
	appendN(t, l, 7)
	l.Close()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"wal_appends_total 7",
		"wal_fsync_seconds_count",
		"wal_replay_records_total 0",
		"wal_torn_tail_truncations_total 0",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	// A reopen on a second registry counts the replayed records.
	reg2 := obs.NewRegistry()
	l2, _ := openT(t, Options{Dir: dir, Obs: reg2})
	defer l2.Close()
	buf.Reset()
	reg2.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("wal_replay_records_total 7")) {
		t.Errorf("replay metrics missing: %s", buf.String())
	}
}

func TestAtomicReplaceWritesDurably(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")
	var hooked string
	ReplaceHook = func(p string) { hooked = p }
	defer func() { ReplaceHook = nil }()
	if err := AtomicReplace(path, func(f *os.File) error {
		_, err := f.Write([]byte("payload"))
		return err
	}); err != nil {
		t.Fatalf("AtomicReplace: %v", err)
	}
	if hooked != path {
		t.Fatalf("ReplaceHook saw %q, want %q", hooked, path)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "payload" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
	// A failing write leaves neither the target nor the temp file.
	path2 := filepath.Join(dir, "fail.bin")
	if err := AtomicReplace(path2, func(f *os.File) error {
		return fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("AtomicReplace swallowed the write error")
	}
	if _, err := os.Stat(path2); !os.IsNotExist(err) {
		t.Fatal("failed AtomicReplace committed the target")
	}
	if _, err := os.Stat(path2 + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("failed AtomicReplace left its temp file")
	}
}
