package protocol

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/tissue"
)

// TestWorkerReportRoundTrip checks the piggybacked telemetry report and
// the per-chunk batch timings survive the wire intact — and that a
// report-less request decodes with a nil Report (the report is optional).
func TestWorkerReportRoundTrip(t *testing.T) {
	tally, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	rep := &WorkerReport{
		PhotonsPerSec: 123456.5,
		ChunkSecs:     0.031,
		EncodeSecs:    0.0004,
		Goroutines:    14,
		HeapBytes:     9 << 20,
		Version:       "v1.2.3-4-gabcdef",
	}
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		c1.Send(&Message{Type: MsgTaskRequest, Request: &TaskRequest{
			Report: rep,
			Batch: &ResultBatch{Groups: []BatchGroup{{
				JobID:     4,
				Chunks:    []int{7, 8},
				Elapsed:   62 * time.Millisecond,
				TallyData: mc.AppendTally(nil, tally),
				ChunkSecs: []float64{0.030, 0.032},
			}}},
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got := m.Request.Report
	if got == nil {
		t.Fatal("report lost in transit")
	}
	if *got != *rep {
		t.Fatalf("report corrupted: got %+v want %+v", *got, *rep)
	}
	secs := m.Request.Batch.Groups[0].ChunkSecs
	if len(secs) != 2 || secs[0] != 0.030 || secs[1] != 0.032 {
		t.Fatalf("per-chunk timings corrupted: %v", secs)
	}

	// A plain request (no report, no timings) must decode too.
	// (Wait out the first sender: Conn.Send is not concurrency-safe.)
	<-sent
	go func() {
		c1.Send(&Message{Type: MsgTaskRequest, Request: &TaskRequest{Want: 1}})
	}()
	m, err = c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Request.Report != nil {
		t.Fatalf("absent report decoded as %+v", m.Request.Report)
	}
}

// TestRecvRejectsOversizedReportVersion: a hostile peer must not make the
// server retain an arbitrarily large build string per session.
func TestRecvRejectsOversizedReportVersion(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go c1.Send(&Message{Type: MsgTaskRequest, Request: &TaskRequest{
		Report: &WorkerReport{Version: strings.Repeat("x", MaxReportVersion+1)},
	}})
	if _, err := c2.Recv(); err == nil {
		t.Fatal("oversized report version accepted")
	}
}

// TestRecvRejectsChunkSecsLengthMismatch: per-chunk timings must be
// parallel to the chunk list or absent — anything else is a malformed
// batch the reducer would misattribute.
func TestRecvRejectsChunkSecsLengthMismatch(t *testing.T) {
	tally, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go c1.Send(flush(&ResultBatch{Groups: []BatchGroup{{
		JobID:     1,
		Chunks:    []int{0, 1, 2},
		TallyData: mc.AppendTally(nil, tally),
		ChunkSecs: []float64{0.1, 0.2},
	}}}))
	if _, err := c2.Recv(); err == nil {
		t.Fatal("mismatched ChunkSecs length accepted")
	}
}

// TestRecvRejectsNonFiniteTelemetry: a rate or a time is finite and not
// negative, or the frame is refused — a NaN kept in a session's report
// would make every JSON view of the fleet unrenderable.
func TestRecvRejectsNonFiniteTelemetry(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	group := func(elapsed time.Duration, secs ...float64) *Message {
		return flush(&ResultBatch{Groups: []BatchGroup{{
			JobID: 1, Chunks: make([]int, len(secs)), Elapsed: elapsed, TallyData: []byte{1}, ChunkSecs: secs,
		}}})
	}
	report := func(r WorkerReport) *Message {
		return &Message{Type: MsgTaskRequest, Request: &TaskRequest{Want: 1, Report: &r}}
	}
	for name, tc := range map[string]struct {
		m  *Message
		ok bool
	}{
		"report":            {report(WorkerReport{PhotonsPerSec: 1e6, ChunkSecs: 0.1, EncodeSecs: 0.001}), true},
		"report-nan-rate":   {report(WorkerReport{PhotonsPerSec: nan}), false},
		"report-inf-chunk":  {report(WorkerReport{ChunkSecs: inf}), false},
		"report-neg-encode": {report(WorkerReport{EncodeSecs: -1}), false},
		"batch":             {group(time.Second, 0.4, 0.6), true},
		"batch-nan-chunk":   {group(time.Second, 0.4, nan), false},
		"batch-neg-chunk":   {group(time.Second, -0.4, 0.6), false},
		"batch-neg-elapsed": {group(-time.Second, 0.4, 0.6), false},
	} {
		c1, c2 := pipePair()
		go c1.Send(tc.m)
		if _, err := c2.Recv(); (err == nil) != tc.ok {
			t.Errorf("%s: Recv returned %v, want accepted %v", name, err, tc.ok)
		}
		c1.Close()
		c2.Close()
	}
}
