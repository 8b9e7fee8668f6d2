package protocol

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/tissue"
)

// TestRecvRejectsOversizedBuild: a hostile peer must not make the server
// retain an arbitrarily large build string per session. A hello of another
// version decodes to its version alone, whatever its layout, to be refused
// by version.
func TestRecvRejectsOversizedBuild(t *testing.T) {
	hello := func(h Hello) []byte { return encodeMessages(t, &Message{Type: MsgHello, Hello: &h}) }
	// A v8 hello is the three fields a v8 worker sends: version (zigzag
	// 8), name, a zero rate; a v9 one adds the build string.
	v8 := rawFrame(MsgHello, 16, 2, 'w', '8', 0, 0, 0, 0, 0, 0, 0, 0)
	if got := oldHello(8, "w8", 0, ""); !bytes.Equal(got, v8) {
		t.Fatalf("v8 hello built as %x, want %x", got, v8)
	}
	for name, tc := range map[string]struct {
		frame []byte
		want  *Hello // nil: refused
	}{
		"build-at-bound": {hello(Hello{Version: Version, Build: strings.Repeat("x", MaxName)}),
			&Hello{Version: Version, Build: strings.Repeat("x", MaxName)}},
		"long-build":    {hello(Hello{Version: Version, Build: strings.Repeat("x", MaxName+1)}), nil},
		"v8-no-build":   {v8, &Hello{Version: 8}},
		"v9-long-build": {oldHello(9, "w9", 0, strings.Repeat("x", MaxName+1)), &Hello{Version: 9}},
	} {
		m, err := NewConn(readCloser{bytes.NewReader(tc.frame)}).Recv()
		if (err == nil) != (tc.want != nil) {
			t.Errorf("%s: Recv returned %v, want accepted %v", name, err, tc.want != nil)
		} else if err == nil && *m.Hello != *tc.want {
			t.Errorf("%s: decoded %+v, want %+v", name, *m.Hello, *tc.want)
		}
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

// TestRecvRejectsNonFiniteTelemetry: a batch's time is finite and not
// negative, or the frame is refused — a NaN folded into a job's chunk
// timing would make every JSON view of it unrenderable.
func TestRecvRejectsNonFiniteTelemetry(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	group := func(elapsed time.Duration, secs ...float64) *Message {
		return flush(&ResultBatch{Groups: []BatchGroup{{
			JobID: 1, Chunks: make([]int, len(secs)), Elapsed: elapsed, TallyData: []byte{1}, ChunkSecs: secs,
		}}})
	}
	for name, tc := range map[string]struct {
		m  *Message
		ok bool
	}{
		"batch":             {group(time.Second, 0.4, 0.6), true},
		"batch-nan-chunk":   {group(time.Second, 0.4, nan), false},
		"batch-inf-chunk":   {group(time.Second, inf, 0.6), false},
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
