package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/tissue"
)

// pipePair returns two protocol connections joined by an in-memory pipe.
func pipePair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

// flush is the frame a result batch travels in: a task request carrying it.
func flush(b *ResultBatch) *Message {
	return &Message{Type: MsgTaskRequest, Request: &TaskRequest{Batch: b}}
}

func TestHelloRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	go func() {
		c1.Send(&Message{Type: MsgHello, Hello: &Hello{
			Version: Version, Name: "w1", Build: "b1",
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != MsgHello || m.Hello.Name != "w1" || m.Hello.Build != "b1" {
		t.Fatalf("round trip lost data: %+v", m)
	}
}

func TestTallyRoundTripPreservesEverything(t *testing.T) {
	cfg := &mc.Config{
		Model:    tissue.AdultHead(),
		Detector: detector.Annulus{RMin: 5, RMax: 15},
		AbsGrid:  &mc.GridSpec{N: 8, Edge: 40},
		PathGrid: &mc.GridSpec{N: 8, Edge: 40},
		PathHist: &mc.HistSpec{Min: 0, Max: 500, Bins: 50},
	}
	tally, err := mc.Run(cfg, 3000, 99)
	if err != nil {
		t.Fatal(err)
	}

	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go func() {
		c1.Send(flush(&ResultBatch{Groups: []BatchGroup{{
			JobID: 1, Chunks: []int{3}, Elapsed: 5 * time.Second, TallyData: mc.AppendTally(nil, tally),
		}}}))
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.DecodeTally(m.Request.Batch.Groups[0].TallyData)
	if err != nil {
		t.Fatal(err)
	}
	if got.Launched != tally.Launched ||
		got.AbsorbedWeight != tally.AbsorbedWeight ||
		got.DetectedWeight != tally.DetectedWeight ||
		got.DetectedCount != tally.DetectedCount {
		t.Fatal("scalar fields lost in transit")
	}
	if got.PathStats.Mean() != tally.PathStats.Mean() {
		t.Fatal("path stats lost")
	}
	if got.AbsGrid.Total() != tally.AbsGrid.Total() {
		t.Fatal("absorption grid lost")
	}
	if got.PathHist.Total() != tally.PathHist.Total() {
		t.Fatal("histogram lost")
	}
	for i := range tally.LayerAbsorbed {
		if got.LayerAbsorbed[i] != tally.LayerAbsorbed[i] {
			t.Fatal("layer data lost")
		}
	}
}

// TestResultBatchRoundTrip covers the batched result path: an empty
// batch (no groups — a legal no-op), a one-chunk batch, and a multi-job
// batch whose compact tally payloads must decode bit-exact on the far side.
func TestResultBatchRoundTrip(t *testing.T) {
	tallyA, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	tallyB, err := mc.Run(&mc.Config{
		Model:  tissue.HomogeneousSlab("slab", tissue.ScalpProps, 5),
		Radial: &mc.HistSpec{Min: 0, Max: 30, Bins: 15},
	}, 200, 6)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		batch *ResultBatch
	}{
		{"empty", &ResultBatch{}},
		{"one-chunk", &ResultBatch{Groups: []BatchGroup{
			{JobID: 3, Chunks: []int{0}, Elapsed: time.Second, TallyData: mc.AppendTally(nil, tallyA)},
		}}},
		{"multi-job", &ResultBatch{Groups: []BatchGroup{
			{JobID: 3, Chunks: []int{2, 3, 5}, Elapsed: 2 * time.Second, TallyData: mc.AppendTally(nil, tallyA)},
			{JobID: 9, Chunks: []int{1}, TallyData: mc.AppendTally(nil, tallyB)},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := pipePair()
			defer c1.Close()
			defer c2.Close()
			go c1.Send(flush(tc.batch))
			m, err := c2.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type != MsgTaskRequest || m.Request.Batch == nil {
				t.Fatalf("got %v", m.Type)
			}
			got := m.Request.Batch
			if len(got.Groups) != len(tc.batch.Groups) || got.NumChunks() != tc.batch.NumChunks() {
				t.Fatalf("batch shape lost: %+v", got)
			}
			for i, g := range got.Groups {
				want := tc.batch.Groups[i]
				if g.JobID != want.JobID || g.Elapsed != want.Elapsed {
					t.Fatalf("group %d metadata lost", i)
				}
				for k, ch := range g.Chunks {
					if ch != want.Chunks[k] {
						t.Fatalf("group %d chunk list changed", i)
					}
				}
				dec, err := mc.DecodeTally(g.TallyData)
				if err != nil {
					t.Fatalf("group %d tally: %v", i, err)
				}
				src, err := mc.DecodeTally(want.TallyData)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Launched != src.Launched || dec.AbsorbedWeight != src.AbsorbedWeight {
					t.Fatalf("group %d tally payload corrupted", i)
				}
			}
		})
	}
}

// TestTaskRequestPiggybackRoundTrip checks a flush riding a task request
// and the per-chunk acks riding the assign reply both survive the wire.
func TestTaskRequestPiggybackRoundTrip(t *testing.T) {
	tally, err := mc.Run(&mc.Config{Model: tissue.AdultHead()}, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()

	go func() {
		c1.Send(&Message{Type: MsgTaskRequest, Request: &TaskRequest{
			Want: 8,
			Batch: &ResultBatch{Groups: []BatchGroup{
				{JobID: 4, Chunks: []int{7, 8}, TallyData: mc.AppendTally(nil, tally)},
			}},
		}})
	}()
	m, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	req := m.Request
	if req == nil || req.Batch == nil || req.Want != 8 {
		t.Fatalf("piggybacked request lost data: %+v", req)
	}
	if req.Batch.NumChunks() != 2 {
		t.Fatalf("piggybacked batch covers %d chunks", req.Batch.NumChunks())
	}

	go func() {
		c2.Send(&Message{Type: MsgTaskAssign,
			Assign: &TaskAssign{JobID: 4, Grants: []ChunkGrant{
				{ChunkID: 10, Photons: 50}, {ChunkID: 11, Photons: 50}}},
			BatchAck: &BatchAck{Acks: []ResultAck{
				{JobID: 4, ChunkID: 7},
				{JobID: 4, ChunkID: 8, Duplicate: true},
			}},
		})
	}()
	reply, err := c1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.BatchAck == nil || len(reply.BatchAck.Acks) != 2 {
		t.Fatalf("batch ack lost from reply: %+v", reply)
	}
	if a := reply.BatchAck.Acks[1]; a.JobID != 4 || a.ChunkID != 8 || !a.Duplicate {
		t.Fatalf("per-chunk ack corrupted: %+v", a)
	}
	if reply.Assign == nil || len(reply.Assign.Grants) != 2 || reply.Assign.Grants[1].ChunkID != 11 {
		t.Fatal("assignment lost from piggybacked reply")
	}
}

func TestRecvRejectsUntypedMessage(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	go c1.Send(&Message{})
	if _, err := c2.Recv(); err == nil {
		t.Fatal("untyped message accepted")
	}
}

func TestRecvOnClosedConn(t *testing.T) {
	c1, c2 := pipePair()
	c1.Close()
	if _, err := c2.Recv(); err == nil || err == io.EOF && false {
		// any error is fine; just must not hang or succeed
		if err == nil {
			t.Fatal("recv on closed pipe succeeded")
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{MsgHello, MsgWelcome, MsgTaskRequest, MsgTaskAssign,
		reserved5, reserved6, MsgNoWork, MsgError, reserved9, reserved10,
		MsgType(42)}
	for _, ty := range types {
		if ty.String() == "" {
			t.Fatalf("empty string for %d", int(ty))
		}
	}
}

func TestManyMessagesSequential(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	const n = 200
	go func() {
		for i := 0; i < n; i++ {
			c1.Send(&Message{Type: MsgTaskAssign, Assign: &TaskAssign{
				Grants: []ChunkGrant{{ChunkID: i, Photons: int64(i * 10)}},
			}})
		}
	}()
	for i := 0; i < n; i++ {
		m, err := c2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Assign.Grants[0].ChunkID; got != i {
			t.Fatalf("message %d arrived out of order as %d", i, got)
		}
	}
}

// TestSeedMessagesRoundTrip: every seed message — each type, the result
// plane, batch timings, acks, a precision descriptor — arrives field for field
// as it was sent.
func TestSeedMessagesRoundTrip(t *testing.T) {
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	msgs := seedMessages(t)
	go func() {
		for _, m := range msgs {
			if c1.Send(m) != nil {
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := c2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v changed on the wire:\n got %+v\nwant %+v", want.Type, got, want)
		}
	}
}

// TestRecvRejectsBadHello: a hello's name is at most MaxName bytes, or the
// session never starts — the server keeps it for the session's life. A
// hello of another version is read no further than its version, whatever
// follows it: the v9 one with a NaN rate that once made every JSON view of
// the fleet unrenderable decodes to its version alone, to be refused by it.
func TestRecvRejectsBadHello(t *testing.T) {
	hello := func(h Hello) []byte { return encodeMessages(t, &Message{Type: MsgHello, Hello: &h}) }
	for name, tc := range map[string]struct {
		frame []byte
		want  *Hello // nil: refused
	}{
		"plain":         {hello(Hello{Version: Version, Name: "w"}), &Hello{Version: Version, Name: "w"}},
		"name-at-bound": {hello(Hello{Version: Version, Name: strings.Repeat("x", MaxName)}), &Hello{Version: Version, Name: strings.Repeat("x", MaxName)}},
		"long-name":     {hello(Hello{Version: Version, Name: strings.Repeat("x", MaxName+1)}), nil},
		"v9-nan-rate":   {oldHello(9, "nan", math.NaN(), "b"), &Hello{Version: 9}},
		"v9-long-name":  {oldHello(9, strings.Repeat("x", MaxName+1), 1, ""), &Hello{Version: 9}},
		"v8-inf-rate":   {oldHello(8, "inf", math.Inf(1), ""), &Hello{Version: 8}},
	} {
		m, err := NewConn(readCloser{bytes.NewReader(tc.frame)}).Recv()
		if (err == nil) != (tc.want != nil) {
			t.Errorf("%s: Recv returned %v, want accepted %v", name, err, tc.want != nil)
		} else if err == nil && *m.Hello != *tc.want {
			t.Errorf("%s: decoded %+v, want %+v", name, *m.Hello, *tc.want)
		}
	}
}

// TestRecvRejectsTruncatedFrames: a frame of type T decodes with T's body
// or not at all — a bodiless or cut-short frame is an error, never a
// message with a nil body for the caller to dereference — and a frame with
// bytes left over is refused too.
func TestRecvRejectsTruncatedFrames(t *testing.T) {
	for _, typ := range []MsgType{MsgHello, MsgWelcome, MsgTaskRequest, MsgTaskAssign, MsgNoWork, MsgError} {
		if m, err := NewConn(readCloser{bytes.NewReader(rawFrame(typ))}).Recv(); err == nil {
			t.Errorf("bodiless %v frame accepted: %+v", typ, m)
		}
	}
	for _, m := range seedMessages(t) {
		frame := encodeMessages(t, m)
		short := append([]byte{frame[0] - 1}, frame[1:len(frame)-1]...)
		if _, err := NewConn(readCloser{bytes.NewReader(short)}).Recv(); err == nil {
			t.Errorf("%v frame one byte short accepted", m.Type)
		}
		long := append(append([]byte{frame[0] + 1}, frame[1:]...), 0)
		if _, err := NewConn(readCloser{bytes.NewReader(long)}).Recv(); err == nil {
			t.Errorf("%v frame with a trailing byte accepted", m.Type)
		}
	}
}

// TestRecvRefusesOversizedFrame: a length past MaxFrameBytes is refused
// before anything is read or allocated, and one within it but never sent
// costs readFrame's 1 MiB first buffer at most, not the 64 MiB claimed.
func TestRecvRefusesOversizedFrame(t *testing.T) {
	for _, n := range []uint64{MaxFrameBytes + 1, MaxFrameBytes} {
		data := append(binary.AppendUvarint(nil, n), byte(MsgTaskRequest), 0, 0, 0)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewConn(readCloser{bytes.NewReader(data)}).Recv()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("a %d-byte claim with 4 bytes behind it was accepted", n)
		}
		if n == MaxFrameBytes && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("a cut-short frame returned %v, want io.ErrUnexpectedEOF", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Fatalf("a %d-byte claim allocated %d bytes", n, grew)
		}
	}
}

// TestDescriptorsEvictOldestFirst pins the session's descriptor rule: it
// holds the last MaxDescriptors jobs added, and each add past that evicts
// the oldest, so a job added again after its eviction is the newest.
func TestDescriptorsEvictOldestFirst(t *testing.T) {
	var d Descriptors
	for id := uint64(1); id <= MaxDescriptors; id++ {
		if d.Has(id) {
			t.Fatalf("job %d held before it was added", id)
		}
		if old, ok := d.Add(id); ok {
			t.Fatalf("add %d of %d evicted job %d", id, MaxDescriptors, old)
		}
	}
	for _, tc := range []struct{ add, evicted uint64 }{{100, 1}, {1, 2}, {101, 3}} {
		if old, ok := d.Add(tc.add); !ok || old != tc.evicted {
			t.Fatalf("adding %d evicted %d (%v), want %d", tc.add, old, ok, tc.evicted)
		}
		if d.Has(tc.evicted) || !d.Has(tc.add) {
			t.Fatalf("after adding %d: holds it %v, holds evicted %d %v",
				tc.add, d.Has(tc.add), tc.evicted, d.Has(tc.evicted))
		}
	}
	for id := uint64(4); id <= MaxDescriptors; id++ {
		if !d.Has(id) {
			t.Fatalf("job %d evicted out of turn", id)
		}
	}
}
