package protocol

import (
	"bytes"
	"encoding/gob"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
)

// updateCorpus rewrites the committed seed corpus under
// testdata/fuzz/FuzzDecodeMessage with the current wire encoding:
//
//	go test ./internal/protocol -run TestCommittedCorpus -update-corpus
//
// Run it whenever the protocol gains or loses message shapes worth seeding
// (the batch-carrying requests and the retired v5 frames were added this
// way) and commit the diff.
var updateCorpus = flag.Bool("update-corpus", false, "rewrite committed fuzz corpus seeds")

// readCloser adapts a bytes.Reader to the ReadWriteCloser Conn expects;
// writes vanish (the fuzzer only exercises the decode direction).
type readCloser struct{ *bytes.Reader }

func (readCloser) Write(p []byte) (int, error) { return len(p), nil }
func (readCloser) Close() error                { return nil }

// encodeMessages gob-encodes a sequence of messages into one wire blob.
func encodeMessages(tb testing.TB, msgs ...*Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := &Conn{}
	*c = *NewConn(struct {
		io.Reader
		io.Writer
		io.Closer
	}{&buf, &buf, io.NopCloser(nil)})
	for _, m := range msgs {
		if err := c.Send(m); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// v5Message is the envelope as a v5 peer gob-encodes the frames v6 retired:
// it still has the Batch field, and a task request may come without its body.
type v5Message struct {
	Type     MsgType
	Batch    *ResultBatch
	BatchAck *BatchAck
}

// encodeV5 gob-encodes one retired frame as its v5 sender would.
func encodeV5(tb testing.TB, m *v5Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// retiredFrames are the frames a v5 peer could send that Recv must refuse:
// the standalone result batch (type 9), its ack (type 10) and a task
// request with no body.
func retiredFrames(tb testing.TB) map[string][]byte {
	batch := &ResultBatch{Groups: []BatchGroup{{JobID: 9, Chunks: []int{4}, TallyData: []byte{1}}}}
	return map[string][]byte{
		"retired_result_batch_v5": encodeV5(tb, &v5Message{Type: 9, Batch: batch}),
		"retired_batch_ack_v5": encodeV5(tb, &v5Message{Type: 10,
			BatchAck: &BatchAck{Acks: []ResultAck{{JobID: 9, ChunkID: 4}}}}),
		"bare_task_request_v5": encodeV5(tb, &v5Message{Type: MsgTaskRequest}),
	}
}

func seedMessages(tb testing.TB) []*Message {
	tb.Helper()
	spec := mc.NewSpec(
		tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4},
	)
	tally, err := mc.Run(&mc.Config{Model: tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5)}, 50, 1)
	if err != nil {
		tb.Fatal(err)
	}
	compact := mc.AppendTally(nil, tally)
	// A moments-carrying chunk of a precision-targeted job (tally codec
	// v2, open-ended descriptor).
	precSpec := *spec
	precSpec.TrackMoments = true
	momTally, err := mc.Run(&mc.Config{
		Model: tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5), TrackMoments: true}, 50, 2)
	if err != nil {
		tb.Fatal(err)
	}
	momCompact := mc.AppendTally(nil, momTally)
	return []*Message{
		{Type: MsgHello, Hello: &Hello{Version: Version, Name: "w0", Mflops: 42}},
		{Type: MsgWelcome, Welcome: &Welcome{Version: Version, ServerName: "srv"}},
		{Type: MsgTaskRequest, Request: &TaskRequest{KnownJobs: []uint64{1, 2, 3}, Want: 1}},
		{Type: MsgTaskAssign, Assign: &TaskAssign{
			JobID: 9, Grants: []ChunkGrant{{ChunkID: 4, Stream: 4, Photons: 1000}, {ChunkID: 5, Stream: 5, Photons: 1000}},
			Job: &Job{ID: 9, Spec: *spec, Seed: 77, Streams: 8, Fan: 4},
		}},
		{Type: MsgNoWork, NoWork: &NoWork{Done: true}},
		{Type: MsgError, Error: &Error{Msg: "boom"}},
		// The result plane: a leaving worker's flush (Want 0) of a multi-job
		// batch, a task request handing back a grant while asking for the
		// next, and the per-chunk acks riding a NoWork reply.
		flush(&ResultBatch{Groups: []BatchGroup{
			{JobID: 9, Chunks: []int{4, 5, 6}, Elapsed: 3 * time.Second, TallyData: compact},
			{JobID: 12, Chunks: []int{0}, TallyData: compact},
		}}),
		{Type: MsgTaskRequest, Request: &TaskRequest{
			KnownJobs: []uint64{9, 12},
			Want:      8,
			Batch: &ResultBatch{Groups: []BatchGroup{
				{JobID: 9, Chunks: []int{7}, TallyData: compact, ChunkSecs: []float64{0.5}},
			}},
		}},
		{Type: MsgNoWork, NoWork: &NoWork{}, BatchAck: &BatchAck{Acks: []ResultAck{
			{JobID: 9, ChunkID: 4},
			{JobID: 9, ChunkID: 5, Duplicate: true},
			{JobID: 12, ChunkID: 0, Rejected: true, Reason: "stale"},
		}}},
		// Precision jobs: an open-ended descriptor (Streams 0, Target set)
		// and its moments-carrying batch result.
		{Type: MsgTaskAssign, Assign: &TaskAssign{
			JobID: 21, Grants: []ChunkGrant{{ChunkID: 0, Stream: 0, Photons: 500}},
			Job: &Job{ID: 21, Spec: precSpec, Seed: 19, Streams: 0,
				Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.01,
					MinPhotons: 8000, MaxPhotons: 1 << 20}},
		}},
		flush(&ResultBatch{Groups: []BatchGroup{
			{JobID: 21, Chunks: []int{0}, Elapsed: time.Second, TallyData: momCompact},
		}}),
	}
}

// FuzzDecodeMessage throws arbitrary bytes at the wire decoder: valid
// frames (including batch-carrying requests), truncated gobs, bit-flipped
// envelopes, oversized KnownJobs/batch advertisements and the frames of
// retired types. The decoder must never panic, and every message it does
// accept must satisfy the envelope invariants Recv promises (a live type,
// a task request with its body, bounded advertisement, grant and batch
// sizes, no empty batch groups).
func FuzzDecodeMessage(f *testing.F) {
	msgs := seedMessages(f)

	// Seed: each message alone, the whole conversation, a truncated stream
	// and oversized KnownJobs/batch frames.
	for _, m := range msgs {
		f.Add(encodeMessages(f, m))
	}
	all := encodeMessages(f, msgs...)
	f.Add(all)
	f.Add(all[:len(all)/3])
	f.Add(all[:len(all)-1])
	big := make([]uint64, MaxKnownJobs+1)
	f.Add(encodeMessages(f, &Message{Type: MsgTaskRequest, Request: &TaskRequest{KnownJobs: big}}))
	bigChunks := make([]int, MaxBatchChunks+1)
	f.Add(encodeMessages(f, flush(&ResultBatch{
		Groups: []BatchGroup{{JobID: 1, Chunks: bigChunks}}})))
	f.Add(encodeMessages(f, flush(&ResultBatch{
		Groups: []BatchGroup{{JobID: 1}}}))) // empty group
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	for _, frame := range retiredFrames(f) {
		f.Add(frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(readCloser{bytes.NewReader(data)})
		// Bound the loop: a hostile stream must not decode forever.
		for i := 0; i < 64; i++ {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m.Type < MsgHello || m.Type > MsgError || m.Type == 5 || m.Type == 6 {
				t.Fatalf("Recv accepted invalid type %d", int(m.Type))
			}
			if m.Type == MsgTaskRequest && m.Request == nil {
				t.Fatal("Recv accepted a task request without its body")
			}
			if m.Request != nil {
				if len(m.Request.KnownJobs) > MaxKnownJobs {
					t.Fatalf("Recv accepted %d known jobs", len(m.Request.KnownJobs))
				}
				if r := m.Request.Report; r != nil && !(measure(r.PhotonsPerSec) && measure(r.ChunkSecs) && measure(r.EncodeSecs)) {
					t.Fatalf("Recv accepted a report with a non-finite or negative figure: %+v", r)
				}
				if b := m.Request.Batch; b != nil {
					if b.NumChunks() > MaxBatchChunks {
						t.Fatalf("Recv accepted a %d-chunk batch", b.NumChunks())
					}
					for _, g := range b.Groups {
						if len(g.Chunks) == 0 {
							t.Fatal("Recv accepted an empty batch group")
						}
						if g.Elapsed < 0 || slices.ContainsFunc(g.ChunkSecs, func(s float64) bool { return !measure(s) }) {
							t.Fatalf("Recv accepted a batch group with a negative or non-finite time: %v %v", g.Elapsed, g.ChunkSecs)
						}
					}
				}
			}
			if m.Assign != nil && len(m.Assign.Grants) > MaxGrantChunks {
				t.Fatalf("Recv accepted a %d-chunk grant", len(m.Assign.Grants))
			}
			if m.Assign != nil && m.Assign.Job != nil && m.Assign.Job.Fan > MaxFan {
				t.Fatalf("Recv accepted a grant fanned %d ways", m.Assign.Job.Fan)
			}
			if m.BatchAck != nil && len(m.BatchAck.Acks) > MaxBatchChunks {
				t.Fatalf("Recv accepted a %d-ack batch ack", len(m.BatchAck.Acks))
			}
		}
	})
}

// corpusSeeds names the committed corpus entries and their frame builders.
// They overlap FuzzDecodeMessage's f.Add seeds on purpose: the committed
// files make the interesting shapes available to `go test -fuzz` runs from
// a clean cache (the CI smoke job) without re-running the seed builders.
func corpusSeeds(tb testing.TB) map[string][]byte {
	msgs := seedMessages(tb)
	all := encodeMessages(tb, msgs...)
	seeds := map[string][]byte{
		"hello":        encodeMessages(tb, msgs[0]),
		"task_request": encodeMessages(tb, msgs[2]),
		"truncated":    all[:len(all)/3],
	}
	big := make([]uint64, MaxKnownJobs+1)
	seeds["oversized_knownjobs"] = encodeMessages(tb,
		&Message{Type: MsgTaskRequest, Request: &TaskRequest{KnownJobs: big}})
	// The result plane and precision jobs. (The names carry the protocol
	// version that introduced each shape; the bytes are today's encoding.)
	seeds["result_batch_v3"] = encodeMessages(tb, msgs[6])
	seeds["piggyback_request_v3"] = encodeMessages(tb, msgs[7])
	seeds["batch_ack_v3"] = encodeMessages(tb, msgs[8])
	seeds["precision_assign_v4"] = encodeMessages(tb, msgs[9])
	seeds["moments_batch_v4"] = encodeMessages(tb, msgs[10])
	seeds["empty_batch_group_v3"] = encodeMessages(tb,
		flush(&ResultBatch{Groups: []BatchGroup{{JobID: 1}}}))
	seeds["nan_report_v6"] = encodeMessages(tb, &Message{Type: MsgTaskRequest,
		Request: &TaskRequest{Want: 1, Report: &WorkerReport{PhotonsPerSec: math.NaN()}}})
	// What a v5 peer could still send and Recv must refuse.
	for name, frame := range retiredFrames(tb) {
		seeds[name] = frame
	}
	return seeds
}

// TestCommittedCorpusCoversV3 keeps the committed seed corpus in sync with
// the protocol: every named seed must exist on disk (regenerate with
// -update-corpus), and the valid ones must still decode.
func TestCommittedCorpusCoversV3(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeMessage")
	for name, data := range corpusSeeds(t) {
		path := filepath.Join(dir, name)
		if *updateCorpus {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d frame bytes)", path, len(data))
			continue
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("corpus seed %s missing (run with -update-corpus): %v", name, err)
		}
	}
}

// TestRecvRejectsOversizedKnownJobs pins the new envelope validation
// outside the fuzzer, so a plain `go test` covers it too.
func TestRecvRejectsOversizedKnownJobs(t *testing.T) {
	big := make([]uint64, MaxKnownJobs+1)
	data := encodeMessages(t, &Message{Type: MsgTaskRequest, Request: &TaskRequest{KnownJobs: big}})
	c := NewConn(readCloser{bytes.NewReader(data)})
	if _, err := c.Recv(); err == nil {
		t.Fatal("oversized KnownJobs accepted")
	}

	ok := encodeMessages(t, &Message{Type: MsgTaskRequest,
		Request: &TaskRequest{KnownJobs: make([]uint64, MaxKnownJobs)}})
	c = NewConn(readCloser{bytes.NewReader(ok)})
	if _, err := c.Recv(); err != nil {
		t.Fatalf("at-limit KnownJobs rejected: %v", err)
	}
}

// TestRecvRejectsInvalidType covers the type validation: out of range, and
// the reserved wire numbers — 5 and 6 of the v4 single-result frames, 9
// and 10 of the v5 standalone batch and its ack.
func TestRecvRejectsInvalidType(t *testing.T) {
	for _, typ := range []MsgType{0, reserved10 + 1, -3, 5, 6, 9, 10} {
		data := encodeMessages(t, &Message{Type: typ})
		c := NewConn(readCloser{bytes.NewReader(data)})
		if _, err := c.Recv(); err == nil {
			t.Fatalf("type %d accepted", int(typ))
		}
	}
}

// TestRecvRejectsV4ResultFrame feeds Recv a single-result frame exactly as
// a v4 peer gob-encodes it — an envelope still carrying the Result field
// this version's Message no longer has. It must be refused as an invalid
// type, not decoded into an empty envelope and acted on.
func TestRecvRejectsV4ResultFrame(t *testing.T) {
	type v4Result struct {
		JobID   uint64
		ChunkID int
		Tally   *mc.Tally
	}
	type v4Message struct {
		Type   MsgType
		Result *v4Result
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&v4Message{Type: 5,
		Result: &v4Result{JobID: 9, ChunkID: 4, Tally: &mc.Tally{Launched: 50}}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConn(readCloser{bytes.NewReader(buf.Bytes())})
	if m, err := c.Recv(); err == nil {
		t.Fatalf("v4 single-result frame accepted as %v", m.Type)
	}
}

// TestRecvRejectsRetiredV5Frames feeds Recv what a v5 peer could still
// send, exactly as it gob-encodes it: the standalone result batch (type 9,
// the envelope still carrying its Batch field), its ack (type 10) and a
// task request with no body. Each must be refused at the decoder, not
// decoded into an envelope the registry then has to second-guess.
func TestRecvRejectsRetiredV5Frames(t *testing.T) {
	for name, frame := range retiredFrames(t) {
		c := NewConn(readCloser{bytes.NewReader(frame)})
		if m, err := c.Recv(); err == nil {
			t.Fatalf("%s accepted as %v", name, m.Type)
		}
	}
}

// TestRecvRejectsOversizedBatch covers the batch, grant, fan and ack
// bounds, plus the no-empty-groups rule.
func TestRecvRejectsOversizedBatch(t *testing.T) {
	big := &ResultBatch{Groups: []BatchGroup{{JobID: 1, Chunks: make([]int, MaxBatchChunks+1)}}}
	for name, m := range map[string]*Message{
		"batch":       flush(big),
		"empty-group": flush(&ResultBatch{Groups: []BatchGroup{{JobID: 1}}}),
		"grant": {Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 1, Grants: make([]ChunkGrant, MaxGrantChunks+1)}},
		"fan": {Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 1, Job: &Job{Fan: MaxFan + 1}, Grants: make([]ChunkGrant, 1)}},
		"batch-ack": {Type: MsgNoWork, NoWork: &NoWork{},
			BatchAck: &BatchAck{Acks: make([]ResultAck, MaxBatchChunks+1)}},
	} {
		c := NewConn(readCloser{bytes.NewReader(encodeMessages(t, m))})
		if _, err := c.Recv(); err == nil {
			t.Fatalf("%s frame accepted", name)
		}
	}

	for name, ok := range map[string]*Message{
		"batch": flush(&ResultBatch{
			Groups: []BatchGroup{{JobID: 1, Chunks: make([]int, MaxBatchChunks)}}}),
		"fan": {Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 1, Job: &Job{Fan: MaxFan}, Grants: make([]ChunkGrant, 1)}},
	} {
		c := NewConn(readCloser{bytes.NewReader(encodeMessages(t, ok))})
		if _, err := c.Recv(); err != nil {
			t.Fatalf("at-limit %s rejected: %v", name, err)
		}
	}
}
