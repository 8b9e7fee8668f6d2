package distsys

import (
	"io"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// TestWorkerReconnectAcrossServerRestart is the reconnect e2e: a worker
// under WorkLoop survives its server dying mid-job — the listener and
// every live connection are torn down, the job is resumed from its
// journal by a fresh manager at the same address, and the same worker
// process finishes it through exponential-backoff redials.
func TestWorkerReconnectAcrossServerRestart(t *testing.T) {
	opts := JobOptions{
		Spec: quickSpec(), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 41,
		JournalDir: filepath.Join(t.TempDir(), "journal"),
	}
	dmA, err := NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go dmA.HandleConn(c)
		}
	}()

	type loopResult struct {
		stats *WorkerStats
		err   error
	}
	loopCh := make(chan loopResult, 1)
	go func() {
		stats, err := WorkLoopTCP(addr, WorkerOptions{Name: "phoenix", FlushChunks: 1},
			LoopOptions{Reconnect: true, Base: 5 * time.Millisecond, Max: 50 * time.Millisecond})
		loopCh <- loopResult{stats, err}
	}()

	// Let the worker reduce a few chunks, then kill the server under it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if done, _ := dmA.Progress(); done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never made progress against server A")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ln.Close()
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()

	// Restart: resume the job from its journal on the same address. The
	// worker's in-flight dials fail and back off until the port returns.
	if err := dmA.Close(); err != nil {
		t.Fatal(err)
	}
	dmB, err := NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	resumedAt, _ := dmB.Progress()
	if resumedAt < 3 {
		t.Fatalf("journal resumed at %d chunks, want >= 3", resumedAt)
	}
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer ln2.Close()
	go func() {
		for {
			c, err := ln2.Accept()
			if err != nil {
				return
			}
			go dmB.HandleConn(c)
		}
	}()

	res, err := dmB.Wait(time.Minute)
	if err != nil {
		t.Fatalf("resumed job did not finish: %v", err)
	}
	if res.Tally.Launched != 1000 {
		t.Fatalf("launched %d photons, want 1000 (lost or double-counted chunks)", res.Tally.Launched)
	}
	select {
	case lr := <-loopCh:
		if lr.err != nil {
			t.Fatalf("WorkLoop exited with error: %v", lr.err)
		}
		if want := dmA.NumChunks() - resumedAt; lr.stats.Chunks < want {
			t.Fatalf("worker reduced %d chunks after restart, want >= %d", lr.stats.Chunks, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("WorkLoop did not exit after the service drained")
	}
}

// TestWorkerDrainFlushesHeldBatch: a graceful drain in the middle of a
// grant must hand back the chunks already computed, not drop them with the
// connection.
func TestWorkerDrainFlushesHeldBatch(t *testing.T) {
	dm, err := NewDataManager(JobOptions{
		Spec: quickSpec(), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	// The window opens 1, 2, 4: the fourth chunk is the first of a grant of
	// four, so the drain finds one computed chunk and three granted ones.
	stats, err := Work(client, WorkerOptions{Name: "drainer", FlushChunks: 8, DrainAfterChunks: 4})
	if err != nil {
		t.Fatalf("drain is graceful, got error: %v", err)
	}
	if stats.Chunks != 4 || stats.Batches != 3 {
		t.Fatalf("worker had %d chunks accepted in %d batches, want 4 in 3", stats.Chunks, stats.Batches)
	}
	if done, _ := dm.Progress(); done != 4 {
		t.Fatalf("server reduced %d chunks, want 4 (computed chunk lost in drain)", done)
	}
}

// TestWorkerStopChannelDrains drives the production SIGTERM path: closing
// WorkerOptions.Stop mid-session makes the worker flush everything it
// holds and return cleanly — the server's completed count matches the
// worker's exactly.
func TestWorkerStopChannelDrains(t *testing.T) {
	dm, err := NewDataManager(JobOptions{
		Spec: quickSpec(), TotalPhotons: 2000, ChunkPhotons: 100, Seed: 47,
	})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	stop := make(chan struct{})
	type res struct {
		stats *WorkerStats
		err   error
	}
	ch := make(chan res, 1)
	go func() {
		stats, err := Work(client, WorkerOptions{Name: "sigterm", FlushChunks: 4, Stop: stop})
		ch <- res{stats, err}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if done, _ := dm.Progress(); done >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never flushed a batch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("stop-drain returned error: %v", r.err)
		}
		done, total := dm.Progress()
		if done != r.stats.Chunks {
			t.Fatalf("server reduced %d chunks, worker computed %d: drain dropped results", done, r.stats.Chunks)
		}
		if done == total {
			t.Fatal("job finished before the stop: test raced itself, raise the photon budget")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not drain after Stop closed")
	}
}

// parkWorker starts a worker against an idle long-lived registry over
// transport(pipe end) and returns once the server has parked its request.
func parkWorker(t *testing.T, stop chan struct{}, transport func(net.Conn) io.ReadWriteCloser) <-chan error {
	t.Helper()
	reg := service.New(service.Options{})
	server, client := net.Pipe()
	go reg.HandleConn(server)
	done := make(chan error, 1)
	go func() {
		_, err := Work(transport(client), WorkerOptions{Name: "idler", Stop: stop})
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if fleet := reg.Fleet(); len(fleet) == 1 && fleet[0].State == "parked" {
			return done
		}
		if time.Now().After(deadline) {
			t.Fatal("the idle worker's request was never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkedWorkerStopReturnsAtOnce: a worker whose request the server has
// parked is blocked in Recv and cannot poll Stop; closing Stop must still
// end the session cleanly, without waiting out the park.
func TestParkedWorkerStopReturnsAtOnce(t *testing.T) {
	stop := make(chan struct{})
	done := parkWorker(t, stop, func(c net.Conn) io.ReadWriteCloser { return c })
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stop while parked is a clean drain, got %v", err)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("parked worker still blocked 100 ms after Stop closed")
	}
}

// TestWorkerStopWithoutReadDeadlines: on a transport that cannot expire a
// read, the server's park limit is what bounds the wait. (It waits that
// limit out, so its name keeps it out of the repeated 'Park|Dispatch|Drain'
// race run.)
func TestWorkerStopWithoutReadDeadlines(t *testing.T) {
	stop := make(chan struct{})
	done := parkWorker(t, stop, func(c net.Conn) io.ReadWriteCloser {
		return struct{ io.ReadWriteCloser }{c}
	})
	close(stop)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("stop while parked is a clean drain, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked worker never returned after Stop closed")
	}
}
