package protocol

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/source"
	"repro/internal/tissue"
)

// updateCorpus rewrites the committed v10 seeds under
// testdata/fuzz/FuzzDecodeMessage with the current wire encoding:
//
//	go test ./internal/protocol -run TestCommittedCorpus -update-corpus
//
// Run it whenever the protocol gains or loses message shapes worth seeding
// and commit the diff. The gob seeds of v6 and before (retiredCorpus) are
// never rewritten: they stay as frames Recv must refuse.
var updateCorpus = flag.Bool("update-corpus", false, "rewrite committed fuzz corpus seeds")

// readCloser adapts a bytes.Reader to the ReadWriteCloser Conn expects;
// writes vanish (the fuzzer only exercises the decode direction).
type readCloser struct{ *bytes.Reader }

func (readCloser) Write(p []byte) (int, error) { return len(p), nil }
func (readCloser) Close() error                { return nil }

// encodeMessages frames a sequence of messages into one wire blob.
func encodeMessages(tb testing.TB, msgs ...*Message) []byte {
	tb.Helper()
	var buf bytes.Buffer
	c := NewConn(struct {
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

// submission stands in for a descriptor's service.AppendSubmission bytes,
// which this package carries without reading: the spec's JSON.
func submission(tb testing.TB, spec *mc.Spec) []byte {
	tb.Helper()
	b, err := json.Marshal(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return b
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
		{Type: MsgHello, Hello: &Hello{Version: Version, Name: "w0", Build: "v10-test"}},
		{Type: MsgWelcome, Welcome: &Welcome{Version: Version, ServerName: "srv"}},
		{Type: MsgTaskRequest, Request: &TaskRequest{Want: 1}},
		{Type: MsgTaskAssign, Assign: &TaskAssign{
			JobID: 9, Grants: []ChunkGrant{{ChunkID: 4, Photons: 1000}, {ChunkID: 5, Photons: 1000}},
			Submission: submission(tb, spec),
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
			Want: 8,
			Batch: &ResultBatch{Groups: []BatchGroup{
				{JobID: 9, Chunks: []int{7}, TallyData: compact, ChunkSecs: []float64{0.5}},
			}},
		}},
		{Type: MsgNoWork, NoWork: &NoWork{}, BatchAck: &BatchAck{Acks: []ResultAck{
			{JobID: 9, ChunkID: 4},
			{JobID: 9, ChunkID: 5, Duplicate: true},
			{JobID: 12, ChunkID: 0, Rejected: true, Reason: "stale"},
		}}},
		// Precision jobs: an open-ended descriptor and its moments-carrying
		// batch result.
		{Type: MsgTaskAssign, Assign: &TaskAssign{
			JobID: 21, Grants: []ChunkGrant{{ChunkID: 0, Photons: 500}},
			Submission: submission(tb, &precSpec),
		}, BatchAck: &BatchAck{Acks: []ResultAck{{JobID: 9, ChunkID: 7}}}},
		flush(&ResultBatch{Groups: []BatchGroup{
			{JobID: 21, Chunks: []int{0}, Elapsed: time.Second, TallyData: momCompact},
		}}),
	}
}

// rawFrame frames a type byte and payload by hand, for shapes Send never
// writes.
func rawFrame(t MsgType, payload ...byte) []byte {
	frame := append([]byte{byte(t)}, payload...)
	return append(binary.AppendUvarint(nil, uint64(len(frame))), frame...)
}

// oldHello is the Hello frame a v7, v8 or v9 worker wrote: version · name ·
// rate, and from v9 on · build.
func oldHello(version int, name string, mflops float64, build string) []byte {
	b := appendFloat(appendString(binary.AppendVarint(nil, int64(version)), name), mflops)
	if version >= 9 {
		b = appendString(b, build)
	}
	return rawFrame(MsgHello, b...)
}

// FuzzDecodeMessage throws arbitrary bytes at the wire decoder: valid
// frames (including batch-carrying requests), truncated and bodiless
// frames, an oversized batch, the hellos of older versions (a v8 one with
// no build string, a v9 one with a NaN rate) and the gob frames of retired
// protocol versions. The decoder must never panic, and every message it
// does accept must satisfy the envelope invariants Recv promises (a live
// type with its body, bounded grant, batch, name and build sizes, a hello
// of another version carrying its version alone, no empty batch groups,
// finite non-negative times) and decode again, field for field, from its
// own encoding.
func FuzzDecodeMessage(f *testing.F) {
	msgs := seedMessages(f)

	// Seed: each message alone, the whole conversation, a truncated stream,
	// a v8 worker's hello (it decodes, to be refused by version) and
	// oversized batch frames.
	for _, m := range msgs {
		f.Add(encodeMessages(f, m))
	}
	all := encodeMessages(f, msgs...)
	f.Add(all)
	f.Add(all[:len(all)/3])
	f.Add(all[:len(all)-1])
	f.Add(oldHello(8, "w8", 0, ""))
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
	f.Add(oldHello(9, "", math.NaN(), ""))
	f.Add(rawFrame(MsgNoWork))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(MsgHello)}) // a claim past MaxFrameBytes

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(readCloser{bytes.NewReader(data)})
		// Bound the loop: a hostile stream must not decode forever.
		for i := 0; i < 64; i++ {
			m, err := c.Recv()
			if err != nil {
				return
			}
			checkInvariants(t, m)
			again, err := NewConn(readCloser{bytes.NewReader(encodeMessages(t, m))}).Recv()
			if err != nil {
				t.Fatalf("Recv refused the re-encoding of an accepted %v: %v", m.Type, err)
			}
			if !reflect.DeepEqual(again, m) {
				t.Fatalf("%v does not survive its own encoding:\n got %+v\nwant %+v", m.Type, again, m)
			}
		}
	})
}

// checkInvariants fails t unless m is a message Recv may return.
func checkInvariants(t *testing.T, m *Message) {
	t.Helper()
	switch m.Type {
	case MsgHello:
		if m.Hello == nil || len(m.Hello.Name) > MaxName || len(m.Hello.Build) > MaxName ||
			m.Hello.Version != Version && *m.Hello != (Hello{Version: m.Hello.Version}) {
			t.Fatalf("Recv accepted a hello it must refuse: %+v", m.Hello)
		}
	case MsgWelcome:
		if m.Welcome == nil {
			t.Fatal("Recv accepted a welcome without its body")
		}
	case MsgTaskRequest:
		if m.Request == nil {
			t.Fatal("Recv accepted a task request without its body")
		}
		if b := m.Request.Batch; b != nil {
			if b.NumChunks() > MaxBatchChunks {
				t.Fatalf("Recv accepted a %d-chunk batch", b.NumChunks())
			}
			for _, g := range b.Groups {
				if len(g.Chunks) == 0 {
					t.Fatal("Recv accepted an empty batch group")
				}
				if ns := len(g.ChunkSecs); ns != 0 && ns != len(g.Chunks) {
					t.Fatalf("Recv accepted %d chunk timings for %d chunks", ns, len(g.Chunks))
				}
				if g.Elapsed < 0 || slices.ContainsFunc(g.ChunkSecs, func(s float64) bool { return !measure(s) }) {
					t.Fatalf("Recv accepted a batch group with a negative or non-finite time: %v %v", g.Elapsed, g.ChunkSecs)
				}
			}
		}
	case MsgTaskAssign:
		if m.Assign == nil || len(m.Assign.Grants) > MaxGrantChunks {
			t.Fatalf("Recv accepted a task assign it must refuse: %+v", m.Assign)
		}
	case MsgNoWork:
		if m.NoWork == nil {
			t.Fatal("Recv accepted a no-work without its body")
		}
	case MsgError:
		if m.Error == nil {
			t.Fatal("Recv accepted an error without its body")
		}
	default:
		t.Fatalf("Recv accepted invalid type %d", int(m.Type))
	}
	if m.BatchAck != nil && len(m.BatchAck.Acks) > MaxBatchChunks {
		t.Fatalf("Recv accepted a %d-ack batch ack", len(m.BatchAck.Acks))
	}
}

// corpusSeeds names the committed v10 corpus entries and their frames. They
// overlap FuzzDecodeMessage's f.Add seeds on purpose: the committed files
// make the interesting shapes available to `go test -fuzz` runs from a
// clean cache (the CI smoke job) without re-running the seed builders.
func corpusSeeds(tb testing.TB) map[string][]byte {
	msgs := seedMessages(tb)
	all := encodeMessages(tb, msgs...)
	return map[string][]byte{
		"hello_v10":             encodeMessages(tb, msgs[0]),
		"task_request_v10":      encodeMessages(tb, msgs[2]),
		"assign_v10":            encodeMessages(tb, msgs[3]),
		"conversation_v10":      all,
		"truncated_v10":         all[:len(all)/3],
		"result_batch_v10":      encodeMessages(tb, msgs[6]),
		"piggyback_request_v10": encodeMessages(tb, msgs[7]),
		"batch_ack_v10":         encodeMessages(tb, msgs[8]),
		"precision_assign_v10":  encodeMessages(tb, msgs[9]),
		"moments_batch_v10":     encodeMessages(tb, msgs[10]),
		"empty_batch_group_v10": encodeMessages(tb, flush(&ResultBatch{Groups: []BatchGroup{{JobID: 1}}})),
		"long_build_hello_v10": encodeMessages(tb, &Message{Type: MsgHello,
			Hello: &Hello{Version: Version, Build: strings.Repeat("x", MaxName+1)}}),
		"v9_hello_v10":         oldHello(9, "w9", 42, "v9-test"),
		"future_hello_v10":     rawFrame(MsgHello, 2*(Version+1), 0xff, 0xff),
		"bodiless_no_work_v10": rawFrame(MsgNoWork),
	}
}

// v9Corpus, v8Corpus and v7Corpus name the committed seeds protocol v9, v8
// and v7 wrote. They stay as they were written, inputs the decoder must
// survive: their hellos carry a rate (a NaN one among them) and decode to
// be refused by version, a v9 grant carries a stream index and a v9
// descriptor its job's id and stream count, a v8 task request may carry the
// worker report v9 dropped, and a v7 one leads with the known-jobs list v8
// dropped.
var v9Corpus = []string{
	"hello_v9", "task_request_v9", "assign_v9", "conversation_v9", "truncated_v9",
	"result_batch_v9", "piggyback_request_v9", "batch_ack_v9", "precision_assign_v9",
	"moments_batch_v9", "empty_batch_group_v9", "long_build_hello_v9", "nan_hello_v9",
	"v8_hello_v9", "bodiless_no_work_v9",
}

var v8Corpus = []string{
	"hello_v8", "task_request_v8", "assign_v8", "conversation_v8", "truncated_v8",
	"result_batch_v8", "piggyback_request_v8", "batch_ack_v8", "precision_assign_v8",
	"moments_batch_v8", "empty_batch_group_v8", "nan_report_v8", "nan_hello_v8",
	"v7_hello_v8", "bodiless_no_work_v8",
}

var v7Corpus = []string{
	"hello_v7", "task_request_v7", "assign_v7", "conversation_v7", "truncated_v7",
	"oversized_knownjobs_v7", "result_batch_v7", "piggyback_request_v7", "batch_ack_v7",
	"precision_assign_v7", "moments_batch_v7", "empty_batch_group_v7", "nan_report_v7",
	"nan_hello_v7", "bodiless_no_work_v7",
}

// retiredCorpus names the committed seeds written in gob by protocol v6 and
// before. Recv must refuse each one's first frame.
var retiredCorpus = []string{
	"hello", "task_request", "truncated", "oversized_knownjobs",
	"result_batch_v3", "piggyback_request_v3", "batch_ack_v3", "empty_batch_group_v3",
	"precision_assign_v4", "moments_batch_v4", "nan_report_v6",
	"retired_result_batch_v5", "retired_batch_ack_v5", "bare_task_request_v5",
}

// TestCommittedCorpusCoversV3 keeps the committed seed corpus in sync with
// the protocol: every named v10 seed must exist on disk (regenerate with
// -update-corpus), every v9, v8 and v7 seed must still be there, and every
// retired gob seed must still be there and be refused.
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
	for _, name := range slices.Concat(v9Corpus, v8Corpus, v7Corpus) {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("kept corpus seed %s: %v", name, err)
		}
	}
	for _, name := range retiredCorpus {
		body, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("retired corpus seed %s: %v", name, err)
		}
		lit := strings.TrimSuffix(strings.TrimPrefix(strings.SplitN(string(body), "\n", 2)[1], "[]byte("), ")\n")
		data, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("retired corpus seed %s: %v", name, err)
		}
		if m, err := NewConn(readCloser{bytes.NewReader([]byte(data))}).Recv(); err == nil {
			t.Errorf("retired gob seed %s accepted as %v", name, m.Type)
		}
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
// a v4 peer gob-encodes it. It must be refused, not decoded into an empty
// envelope and acted on.
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

// TestRecvRejectsOversizedBatch covers the batch, grant and ack bounds,
// plus the no-empty-groups rule. (A descriptor's fan is bounded where it is
// decoded, by the worker.)
func TestRecvRejectsOversizedBatch(t *testing.T) {
	big := &ResultBatch{Groups: []BatchGroup{{JobID: 1, Chunks: make([]int, MaxBatchChunks+1)}}}
	split := &ResultBatch{Groups: []BatchGroup{
		{JobID: 1, Chunks: make([]int, MaxBatchChunks)}, {JobID: 2, Chunks: make([]int, 1)}}}
	for name, m := range map[string]*Message{
		"batch":       flush(big),
		"split-batch": flush(split),
		"empty-group": flush(&ResultBatch{Groups: []BatchGroup{{JobID: 1}}}),
		"grant": {Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 1, Grants: make([]ChunkGrant, MaxGrantChunks+1)}},
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
		"grant": {Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 1, Grants: make([]ChunkGrant, MaxGrantChunks)}},
	} {
		c := NewConn(readCloser{bytes.NewReader(encodeMessages(t, ok))})
		if _, err := c.Recv(); err != nil {
			t.Fatalf("at-limit %s rejected: %v", name, err)
		}
	}
}
