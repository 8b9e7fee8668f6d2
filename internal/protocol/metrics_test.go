package protocol

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestConnMetricsAccounting pins the frame/byte bookkeeping: every frame
// sent is counted once under its type on the sender and once on the
// receiver, and the byte totals on both sides of a loss-free pipe agree.
func TestConnMetricsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	sm := NewConnMetrics(reg, "client")
	rm := NewConnMetrics(reg, "server")
	c1, c2 := pipePair()
	defer c1.Close()
	defer c2.Close()
	c1.SetMetrics(sm)
	c2.SetMetrics(rm)

	msgs := []*Message{
		{Type: MsgHello, Hello: &Hello{Version: Version, Name: "w0", Mflops: 50}},
		{Type: MsgTaskRequest, Request: &TaskRequest{KnownJobs: []uint64{1, 2}}},
		{Type: MsgTaskRequest, Request: &TaskRequest{Want: 4}},
		{Type: MsgNoWork, NoWork: &NoWork{Done: true}},
	}
	errc := make(chan error, 1)
	go func() {
		for _, m := range msgs {
			if err := c1.Send(m); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for range msgs {
		if _, err := c2.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}

	if got := sm.sendFrames[MsgTaskRequest].Value(); got != 2 {
		t.Fatalf("client sent task-request frames = %d, want 2", got)
	}
	if got := sm.sendFrames[MsgHello].Value(); got != 1 {
		t.Fatalf("client sent hello frames = %d, want 1", got)
	}
	if got := rm.recvFrames[MsgNoWork].Value(); got != 1 {
		t.Fatalf("server received no-work frames = %d, want 1", got)
	}
	var sent, recv uint64
	for mt := MsgHello; mt <= MsgError; mt++ {
		if !mt.valid() {
			continue // reserved wire numbers have no counters
		}
		sent += sm.sendBytes[mt].Value()
		recv += rm.recvBytes[mt].Value()
		if sm.recvBytes[mt].Value() != 0 || rm.sendBytes[mt].Value() != 0 {
			t.Fatalf("bytes counted in the unused direction for %v", mt)
		}
	}
	if sent == 0 || sent != recv {
		t.Fatalf("byte totals disagree: sent %d, received %d", sent, recv)
	}

	text := &strings.Builder{}
	if err := reg.WriteText(text); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`client_frames_total{dir="send",type="hello"} 1`,
		`server_frames_total{dir="recv",type="task-request"} 2`,
	} {
		if !strings.Contains(text.String(), line) {
			t.Fatalf("exposition missing %q in:\n%s", line, text.String())
		}
	}
}

// TestConnMetricsSharedAcrossConns checks the intended deployment shape:
// one ConnMetrics shared by many connections accumulates fleet totals,
// and re-registering the same subsystem resolves onto the same counters.
func TestConnMetricsSharedAcrossConns(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewConnMetrics(reg, "fleet")
	m2 := NewConnMetrics(reg, "fleet")
	for i := 0; i < 2; i++ {
		c1, c2 := pipePair()
		c1.SetMetrics(m)
		c2.SetMetrics(m2)
		errc := make(chan error, 1)
		go func() {
			errc <- c1.Send(&Message{Type: MsgHello, Hello: &Hello{Version: Version}})
		}()
		if _, err := c2.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		c1.Close()
		c2.Close()
	}
	if got := m.sendFrames[MsgHello].Value(); got != 2 {
		t.Fatalf("shared metrics counted %d hello sends, want 2", got)
	}
	if got := m.recvFrames[MsgHello].Value(); got != 2 {
		t.Fatalf("idempotent re-registration split the counters: recv = %d, want 2", got)
	}
}
