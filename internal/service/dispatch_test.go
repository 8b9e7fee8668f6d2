package service

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// nextAssignment is dispatch as a request that may not park gets it: the
// session sync and one scan, answered at once.
func (r *Registry) nextAssignment(sess *session, req *protocol.TaskRequest) *protocol.Message {
	return r.dispatch(sess, req, false)
}

// want is an empty-handed request for up to n chunks.
func want(n int) *protocol.TaskRequest { return &protocol.TaskRequest{Want: n} }

// peer is a hand-driven protocol client over an in-memory pipe: the test
// decides frame by frame what the "worker" says, so a request can be left
// parked, a chunk sat on, a connection dropped.
type peer struct {
	t    *testing.T
	conn net.Conn
	pc   *protocol.Conn
	jobs map[uint64]*protocol.Job
}

func dialPeer(t *testing.T, reg *Registry, name string) *peer {
	t.Helper()
	server, client := net.Pipe()
	go reg.HandleConn(server)
	p := &peer{t: t, conn: client, pc: protocol.NewConn(client), jobs: map[uint64]*protocol.Job{}}
	t.Cleanup(func() { client.Close() })
	if err := p.pc.Send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: name}}); err != nil {
		t.Fatal(err)
	}
	if m := p.recv(5 * time.Second); m.Type != protocol.MsgWelcome {
		t.Fatalf("%s: expected welcome, got %v", name, m.Type)
	}
	return p
}

// ask sends one empty-handed TaskRequest for a chunk — the kind the server
// may park.
func (p *peer) ask() {
	p.t.Helper()
	if err := p.pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest,
		Request: want(1)}); err != nil {
		p.t.Fatal(err)
	}
}

// recv reads the next frame, failing the test if none arrives in time.
func (p *peer) recv(within time.Duration) *protocol.Message {
	p.t.Helper()
	p.conn.SetReadDeadline(time.Now().Add(within))
	m, err := p.pc.Recv()
	if err != nil {
		p.t.Fatalf("no frame within %v: %v", within, err)
	}
	return m
}

// compute runs one granted chunk of the assignment honestly.
func (p *peer) compute(a *protocol.TaskAssign, g protocol.ChunkGrant) *protocol.ResultBatch {
	p.t.Helper()
	if a.Job != nil {
		p.jobs[a.JobID] = a.Job
	}
	job := p.jobs[a.JobID]
	cfg, err := job.Spec.Build()
	if err != nil {
		p.t.Fatal(err)
	}
	tally, err := mc.RunStreamFan(cfg, g.Photons, job.Seed, g.Stream, job.Streams, job.Fan)
	if err != nil {
		p.t.Fatal(err)
	}
	return oneChunkBatch(a.JobID, g.ChunkID, tally)
}

// finish computes the assignment's first chunk and hands it back asking for
// nothing more; the reply must come at once and carry the chunk's ack.
func (p *peer) finish(a *protocol.TaskAssign) {
	p.t.Helper()
	if err := p.pc.Send(flushOnly(p.compute(a, a.Grants[0]))); err != nil {
		p.t.Fatal(err)
	}
	m := p.recv(parkMax / 2)
	if m.Type != protocol.MsgNoWork || m.BatchAck == nil || m.BatchAck.Acks[0].Rejected {
		p.t.Fatalf("honest result not acknowledged: %+v", m)
	}
}

// waitParked blocks until the named sessions' requests are all parked.
func waitParked(t *testing.T, reg *Registry, names ...string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked := map[string]bool{}
		for _, s := range reg.Fleet() {
			parked[s.Name] = s.State == "parked"
		}
		all := true
		for _, n := range names {
			all = all && parked[n]
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sessions %v never all parked: %+v", names, reg.Fleet())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestParkedWorkerGrantedAtChunkDeadline is the all-parked reclaim: worker
// A takes the only chunk and goes silent, worker B's request is parked, and
// nobody polls. The park's deadline timer must hand B the chunk when A's
// ChunkTimeout runs out — long before parkMax — on B's one request.
func TestParkedWorkerGrantedAtChunkDeadline(t *testing.T) {
	const timeout = 150 * time.Millisecond
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, Seed: 5, ChunkTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	a := dialPeer(t, reg, "silent")
	a.ask()
	if m := a.recv(5 * time.Second); m.Type != protocol.MsgTaskAssign {
		t.Fatalf("first worker got %v, want the chunk", m.Type)
	}
	granted := time.Now() // a little after the server's own stamp

	b := dialPeer(t, reg, "parked")
	b.ask()
	waitParked(t, reg, "parked")
	m := b.recv(parkMax / 2)
	waited := time.Since(granted)
	if m.Type != protocol.MsgTaskAssign || m.Assign.JobID != out.Job.ID() || m.Assign.Grants[0].ChunkID != 0 {
		t.Fatalf("parked worker woke to %v (%+v), want the reclaimed chunk", m.Type, m.Assign)
	}
	if waited < timeout-20*time.Millisecond {
		t.Fatalf("chunk regranted %v after its grant, before its %v deadline", waited, timeout)
	}
	if n := reg.met.parkSeconds.Count(); n != 1 {
		t.Fatalf("%d parks observed, want B's single one (no polling in between)", n)
	}
	b.finish(m.Assign)
	res, err := out.Job.Wait(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassigned != 1 {
		t.Fatalf("reassigned %d, want 1", res.Reassigned)
	}
}

// TestDrainOnEmptyReleasesParkedWorkers: when the last job of a one-shot
// registry finishes, every parked worker is told Done — none waits out its
// park.
func TestDrainOnEmptyReleasesParkedWorkers(t *testing.T) {
	reg := New(Options{DrainOnEmpty: true, CacheSize: -1})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	a := dialPeer(t, reg, "a")
	a.ask()
	m := a.recv(5 * time.Second)
	if m.Type != protocol.MsgTaskAssign {
		t.Fatalf("got %v, want the chunk", m.Type)
	}
	b, c := dialPeer(t, reg, "b"), dialPeer(t, reg, "c")
	b.ask()
	c.ask()
	waitParked(t, reg, "b", "c")

	a.finish(m.Assign)
	for _, p := range []*peer{b, c} {
		if m := p.recv(parkMax / 2); m.Type != protocol.MsgNoWork || !m.NoWork.Done {
			t.Fatalf("parked worker woke to %+v, want NoWork{Done}", m)
		}
	}
	a.ask()
	if m := a.recv(5 * time.Second); m.Type != protocol.MsgNoWork || !m.NoWork.Done {
		t.Fatalf("finishing worker got %+v, want NoWork{Done}", m)
	}
	if _, err := out.Job.Wait(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchPartialFlushAbandonsTheRest is the result plane's server-side
// rule: a request gives up every assignment of its session it does not
// hand back. A worker granted three chunks flushes one and asks for nothing
// more (a drain in the middle of its grant): the reply comes at once — a
// Want-0 request never parks, whatever it carries — with the one ack, and
// the other two chunks are back in the queue, traced as abandoned.
func TestDispatchPartialFlushAbandonsTheRest(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 500, ChunkPhotons: 100, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	p := dialPeer(t, reg, "leaver")
	if err := p.pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest, Request: want(3)}); err != nil {
		t.Fatal(err)
	}
	m := p.recv(5 * time.Second)
	if m.Type != protocol.MsgTaskAssign || len(m.Assign.Grants) != 3 {
		t.Fatalf("got %v (%+v), want a grant of three", m.Type, m.Assign)
	}
	p.finish(m.Assign) // hands back Grants[0] with Want 0

	if st := reg.Stats(); st.PendingChunks != 4 || st.OutstandingChunks != 0 {
		t.Fatalf("after the partial flush: %d pending, %d outstanding, want 4 and 0", st.PendingChunks, st.OutstandingChunks)
	}
	abandoned := map[int]bool{}
	events, _ := out.Job.Events()
	for _, e := range events {
		if e.Kind == obs.EvChunkReassigned && e.Detail == "abandoned" && e.Worker == "leaver" {
			abandoned[e.Chunk] = true
		}
	}
	if len(abandoned) != 2 || !abandoned[m.Assign.Grants[1].ChunkID] || !abandoned[m.Assign.Grants[2].ChunkID] {
		t.Fatalf("abandoned chunks %v, want the two the flush left out of %+v", abandoned, m.Assign.Grants)
	}

	// Empty-handed and asking for nothing: still answered at once.
	if err := p.pc.Send(flushOnly(nil)); err != nil {
		t.Fatal(err)
	}
	if m := p.recv(parkMax / 2); m.Type != protocol.MsgNoWork || m.NoWork.Done || m.BatchAck != nil {
		t.Fatalf("Want-0 request answered %+v, want a bare NoWork", m)
	}
	if n := reg.met.parkSeconds.Count(); n != 0 {
		t.Fatalf("%d parks observed, want none", n)
	}
}

// fleetEmpty waits for every session to be released.
func fleetEmpty(t *testing.T, reg *Registry, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for len(reg.Fleet()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions still registered after %v: %+v", within, reg.Fleet())
		}
		time.Sleep(time.Millisecond)
	}
}

// A parked session is not reading, so it cannot see its peer go; the next
// two tests cover what finds out. TestVanishedPeerReapedAtTheLimit waits a
// whole parkMax by construction, so its name keeps it out of the repeated
// 'Park|Dispatch|Drain' race run.

// TestVanishedPeerReapedAtTheLimit: with no work arriving, the park-limit
// reply is the send that fails and releases the session.
func TestVanishedPeerReapedAtTheLimit(t *testing.T) {
	reg := New(Options{})
	p := dialPeer(t, reg, "ghost")
	p.ask()
	waitParked(t, reg, "ghost")
	p.conn.Close()
	fleetEmpty(t, reg, parkMax+2*time.Second)
}

// TestParkedGrantToVanishedPeerRequeued: if work arrives first, the grant
// that cannot be delivered goes back to the queue — with ChunkTimeout 0 a
// chunk stranded on the dead session would wedge the job forever.
func TestParkedGrantToVanishedPeerRequeued(t *testing.T) {
	reg := New(Options{})
	p := dialPeer(t, reg, "ghost")
	p.ask()
	waitParked(t, reg, "ghost")
	p.conn.Close()
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fleetEmpty(t, reg, parkMax/2) // the wake, not the limit, ends this park
	if st := reg.Stats(); st.PendingChunks != 1 || st.OutstandingChunks != 0 {
		t.Fatalf("chunk stranded on the dead session: %+v", st)
	}
	startWorkers(t, reg, 1)
	res, err := out.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reassigned != 1 {
		t.Fatalf("reassigned %d, want the one undeliverable grant", res.Reassigned)
	}
}

// Faults a chaosWorker applies to the next chunk it is assigned.
const (
	faultNone    int32 = iota
	faultDrop          // take the grant, then drop the connection
	faultGarbage       // answer with an undecodable tally (rejected, requeued)
	faultStall         // sit on the chunk past the short ChunkTimeout, then answer
)

// chaosWorker is an honest one-chunk-per-round-trip worker that misbehaves
// once whenever the test arms a fault, reconnecting after every drop.
type chaosWorker struct {
	name  string
	stall time.Duration
	fault atomic.Int32

	mu      sync.Mutex
	live    net.Conn
	stopped bool
}

func (w *chaosWorker) run(reg *Registry) {
	for {
		server, client := net.Pipe()
		w.mu.Lock()
		if w.stopped {
			w.mu.Unlock()
			return
		}
		w.live = client
		w.mu.Unlock()
		go reg.HandleConn(server)
		w.session(client)
		client.Close()
	}
}

func (w *chaosWorker) stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.live != nil {
		w.live.Close()
	}
}

// session speaks the protocol until the connection dies (by fault, or
// because the test ended).
func (w *chaosWorker) session(conn net.Conn) {
	pc := protocol.NewConn(conn)
	if pc.Send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: w.name}}) != nil {
		return
	}
	if _, err := pc.Recv(); err != nil {
		return
	}
	for {
		if pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest, Request: want(1)}) != nil {
			return
		}
		msg, err := pc.Recv()
		if err != nil {
			return
		}
		if msg.Type != protocol.MsgTaskAssign {
			continue // the park limit: ask again
		}
		a := grantOf(msg.Assign, 0)
		job := msg.Assign.Job // an empty KnownJobs list makes every assign carry the job
		batch := &protocol.ResultBatch{Groups: []protocol.BatchGroup{{
			JobID: a.JobID, Chunks: []int{a.ChunkID}, TallyData: []byte{0xFF, 0xFF, 0xFF},
		}}}
		switch fault := w.fault.Swap(faultNone); fault {
		case faultDrop:
			return
		case faultGarbage:
		default:
			if fault == faultStall {
				time.Sleep(w.stall)
			}
			cfg, err := job.Spec.Build()
			if err != nil {
				return
			}
			tally, err := mc.RunStreamFan(cfg, a.Photons, job.Seed, a.Stream, job.Streams, job.Fan)
			if err != nil {
				return
			}
			batch = oneChunkBatch(a.JobID, a.ChunkID, tally)
		}
		if pc.Send(flushOnly(batch)) != nil {
			return
		}
		if _, err := pc.Recv(); err != nil {
			return
		}
	}
}

// strandedPark reports the state a lost wake-up leaves behind: a request
// parked while a job could be served — it has a chunk queued or issuable,
// or one whose deadline has passed and only needs a scan to reclaim it.
func strandedPark(reg *Registry) bool {
	now := time.Now()
	reg.mu.Lock()
	defer reg.mu.Unlock()
	work := false
	for _, j := range reg.active {
		if j.schedulableLocked() {
			work = true
		}
		for _, st := range j.outstanding {
			if j.spec.ChunkTimeout > 0 && now.After(st.assigned.Add(j.spec.ChunkTimeout)) {
				work = true
			}
		}
	}
	if !work {
		return false
	}
	for _, s := range reg.sessions {
		if s.parked {
			return true
		}
	}
	return false
}

// TestDispatchNeverStrandsAParkedWorker is the lost-wake-up property test.
// A seeded schedule of submissions, cancels, dropped connections, rejected
// results and chunk-timeout expiries runs against a fleet of parked
// workers. parkMax would heal a lost wake-up within a second, so the
// property is checked directly after every step: no request stays parked
// for 50 ms while there is something to serve. At the end every job that
// was not cancelled has the tally a lone honest worker would have produced
// (integers exactly, weight sums to merge-order tolerance: four workers
// reduce in an order one worker would not, and float addition notices).
func TestDispatchNeverStrandsAParkedWorker(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			const (
				workers      = 4
				steps        = 30
				shortTimeout = 20 * time.Millisecond
			)
			rng := rand.New(rand.NewPCG(seed, 14))
			reg := New(Options{CacheSize: -1})
			fleet := make([]*chaosWorker, workers)
			for i := range fleet {
				fleet[i] = &chaosWorker{name: fmt.Sprintf("w%d", i), stall: 3 * shortTimeout}
				go fleet[i].run(reg)
				t.Cleanup(fleet[i].stop)
			}

			type submitted struct {
				job           *Job
				total, chunk  int64
				seed          uint64
				canceled      bool
				thicknessMM   float64
				chunkTimeouts bool
			}
			var jobs []*submitted
			for step := 0; step < steps; step++ {
				switch p := rng.IntN(100); {
				case p < 40 || len(jobs) == 0:
					s := &submitted{
						total: int64(20 * (1 + rng.IntN(4))), chunk: 20,
						seed: seed<<16 | uint64(step), thicknessMM: float64(3 + rng.IntN(4)),
						chunkTimeouts: rng.IntN(2) == 0,
					}
					spec := JobSpec{Spec: slabSpec(s.thicknessMM), TotalPhotons: s.total,
						ChunkPhotons: s.chunk, Seed: s.seed}
					if s.chunkTimeouts {
						spec.ChunkTimeout = shortTimeout
					}
					out, err := reg.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					s.job = out.Job
					jobs = append(jobs, s)
				case p < 50:
					s := jobs[rng.IntN(len(jobs))]
					if reg.Cancel(s.job.ID()) == nil {
						s.canceled = true
					}
				default:
					fault := []int32{faultDrop, faultGarbage, faultStall}[rng.IntN(3)]
					fleet[rng.IntN(workers)].fault.Store(fault)
				}
				time.Sleep(time.Duration(rng.IntN(3000)) * time.Microsecond)
				for deadline := time.Now().Add(50 * time.Millisecond); strandedPark(reg); {
					if time.Now().After(deadline) {
						t.Fatalf("step %d: a worker stayed parked 50 ms with work to serve: %+v / %+v",
							step, reg.Stats(), reg.Fleet())
					}
					time.Sleep(200 * time.Microsecond)
				}
			}

			reassigned := 0
			for _, s := range jobs {
				res, err := s.job.Wait(30 * time.Second)
				if s.canceled {
					if !errors.Is(err, ErrCanceled) {
						t.Fatalf("cancelled job %016x: %v", s.job.ID(), err)
					}
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				reassigned += res.Reassigned
				compareTallies(t, fmt.Sprintf("job %016x", s.job.ID()), res.Tally,
					localTally(t, slabSpec(s.thicknessMM), s.total, s.chunk, s.seed))
			}
			if st := reg.Stats(); reassigned == 0 && st.RejectedResults == 0 {
				t.Error("no fault ever reached a chunk; the schedule exercises nothing")
			}
		})
	}
}
