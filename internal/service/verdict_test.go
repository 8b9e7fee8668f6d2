package service

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
)

// verdictFixture is one job and a session holding a grant of it: a
// fixed-count job of four chunks with the session owning a and b (c is
// still pending), or a precision job whose session owns its first three
// chunks.
type verdictFixture struct {
	t       *testing.T
	reg     *Registry
	job     *Job
	sess    *session
	cfg     *mc.Config
	seed    uint64
	a, b, c int
	granted []int
}

func newVerdictFixture(t *testing.T, target bool) *verdictFixture {
	t.Helper()
	f := &verdictFixture{t: t, reg: New(Options{}), seed: 7}
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 400, ChunkPhotons: 100, Seed: f.seed}
	grant := 2
	if target {
		// Loose enough that its first two chunks meet it.
		js = JobSpec{Spec: targetSpec(5), ChunkPhotons: 500, Seed: f.seed,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.5, MinPhotons: 1000, MaxPhotons: 50_000}}
		grant = 3
	}
	cfg, err := js.Spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.reg.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	f.cfg, f.job = cfg, out.Job
	f.sess = f.reg.registerSession(&protocol.Hello{Name: "probe"}, "")
	msg := f.reg.nextAssignment(f.sess, want(grant))
	if msg.Type != protocol.MsgTaskAssign || len(msg.Assign.Grants) != grant {
		t.Fatalf("fixture grant: %+v", msg)
	}
	for _, g := range msg.Assign.Grants {
		f.granted = append(f.granted, g.ChunkID)
	}
	f.a, f.b = f.granted[0], f.granted[1]
	if !target {
		f.reg.mu.Lock()
		f.c = f.job.pending[0]
		f.reg.mu.Unlock()
	}
	return f
}

// group is the honest group for chunks: their tallies, computed from
// their streams and merged in order.
func (f *verdictFixture) group(chunks ...int) protocol.BatchGroup {
	f.t.Helper()
	sum := mc.NewTally(f.cfg)
	for _, id := range chunks {
		if id < 0 || id >= f.job.NumChunks() {
			continue
		}
		streams := f.job.NumChunks()
		if f.job.openEnded() {
			streams = 0
		}
		tt, err := mc.RunStream(f.cfg, f.job.chunkPhotons(id), f.seed, id, streams)
		if err != nil {
			f.t.Fatal(err)
		}
		if err := sum.Merge(tt); err != nil {
			f.t.Fatal(err)
		}
	}
	return protocol.BatchGroup{JobID: f.job.ID(), Chunks: chunks, TallyData: mc.AppendTally(nil, sum),
		Elapsed: time.Millisecond}
}

// reduce hands one group to the production reducer and returns its acks.
func (f *verdictFixture) reduce(g protocol.BatchGroup) []protocol.ResultAck {
	return f.reg.reduceBatch(f.sess, &protocol.ResultBatch{Groups: []protocol.BatchGroup{g}}, &mc.Tally{})
}

func (f *verdictFixture) rej(id int, format string, args ...any) protocol.ResultAck {
	return protocol.ResultAck{JobID: f.job.ID(), ChunkID: id, Rejected: true, Reason: fmt.Sprintf(format, args...)}
}

func (f *verdictFixture) dup(id int) protocol.ResultAck {
	return protocol.ResultAck{JobID: f.job.ID(), ChunkID: id, Duplicate: true}
}

func (f *verdictFixture) requeued(id int) protocol.ResultAck {
	return f.rej(id, "job %016x chunk %d rode a partially stale batch; requeued", f.job.ID(), id)
}

// verdictClasses are the reducer's counters a verdict moves.
type verdictClasses struct{ stale, batch, benign, duplicates uint64 }

func (r *Registry) verdictClasses() verdictClasses {
	return verdictClasses{r.met.rejectedStale.Value(), r.met.rejectedBatch.Value(),
		r.met.rejectedBenign.Value(), r.met.duplicates.Value()}
}

// verdictRow is one way a returned chunk can fare. prepare brings the
// fixture to the row's state and returns the group; acks is what the
// reducer must answer; the rest is what it must leave behind: counter
// moves, the job's counts, the group's in-range chunks that are in
// pending, and the chunks the session still holds.
type verdictRow struct {
	name    string
	target  bool
	prepare func(f *verdictFixture) protocol.BatchGroup
	// cancelMidMerge cancels the job while the group waits on its redMu.
	cancelMidMerge bool
	acks           func(f *verdictFixture) []protocol.ResultAck
	classes        verdictClasses

	rejected, duplicates, reassigned int
	pending                          func(f *verdictFixture) []int
	held                             int
}

func verdictRows() []verdictRow {
	none := func(*verdictFixture) []int { return nil }
	finalize := func(f *verdictFixture) {
		f.reduce(f.group(f.granted[0], f.granted[1]))
		if st := f.job.Status(); st.State != StateDone.String() {
			f.t.Fatalf("precision job %s after its first two chunks, want done", st.State)
		}
	}
	return []verdictRow{{
		name:    "honest group",
		prepare: func(f *verdictFixture) protocol.BatchGroup { return f.group(f.a, f.b) },
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{{JobID: f.job.ID(), ChunkID: f.a}, {JobID: f.job.ID(), ChunkID: f.b}}
		},
		pending: none,
	}, {
		name: "unknown job",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			g := f.group(f.a)
			g.JobID = 0xdead0000beef
			return g
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{{JobID: 0xdead0000beef, ChunkID: f.a, Rejected: true,
				Reason: "unknown job 0000dead0000beef"}}
		},
		classes: verdictClasses{stale: 1},
		pending: none,
		held:    2,
	}, {
		name: "canceled job",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			if err := f.reg.Cancel(f.job.ID()); err != nil {
				f.t.Fatal(err)
			}
			return f.group(f.a)
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.rej(f.a, "job %016x canceled", f.job.ID())}
		},
		classes:  verdictClasses{stale: 1},
		rejected: 1,
		pending:  none,
		held:     1,
	}, {
		name:   "finalized job, reduced chunk",
		target: true,
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			finalize(f)
			return f.group(f.granted[0])
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.dup(f.granted[0])}
		},
		classes:    verdictClasses{duplicates: 1},
		duplicates: 1,
		pending:    none,
		held:       1,
	}, {
		name:   "finalized job, straggler",
		target: true,
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			finalize(f)
			return f.group(f.granted[2])
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.rej(f.granted[2], "job %016x already finalized", f.job.ID())}
		},
		classes:  verdictClasses{benign: 1},
		rejected: 1,
		pending:  none,
	}, {
		name:    "chunk listed twice beside its honest first listing",
		prepare: func(f *verdictFixture) protocol.BatchGroup { return f.group(f.a, f.a) },
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.requeued(f.a),
				f.rej(f.a, "job %016x chunk %d listed twice in one group", f.job.ID(), f.a)}
		},
		classes:    verdictClasses{stale: 1, batch: 1},
		rejected:   2,
		reassigned: 1,
		pending:    func(f *verdictFixture) []int { return []int{f.a} },
		held:       1,
	}, {
		name:    "chunk out of range",
		prepare: func(f *verdictFixture) protocol.BatchGroup { return f.group(99) },
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.rej(99, "job %016x has no chunk 99", f.job.ID())}
		},
		classes:  verdictClasses{stale: 1},
		rejected: 1,
		pending:  none,
		held:     2,
	}, {
		name:    "honest chunk beside a chunk out of range",
		prepare: func(f *verdictFixture) protocol.BatchGroup { return f.group(f.a, 99) },
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.requeued(f.a), f.rej(99, "job %016x has no chunk 99", f.job.ID())}
		},
		classes:    verdictClasses{stale: 1, batch: 1},
		rejected:   2,
		reassigned: 1,
		pending:    func(f *verdictFixture) []int { return []int{f.a} },
		held:       1,
	}, {
		name: "completed chunk",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			f.reduce(f.group(f.a))
			return f.group(f.a)
		},
		acks:       func(f *verdictFixture) []protocol.ResultAck { return []protocol.ResultAck{f.dup(f.a)} },
		classes:    verdictClasses{duplicates: 1},
		duplicates: 1,
		pending:    none,
		held:       1,
	}, {
		name: "merging chunk",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			f.reg.mu.Lock()
			f.job.setPhase(f.a, phaseMerging)
			f.reg.mu.Unlock()
			return f.group(f.a)
		},
		acks:       func(f *verdictFixture) []protocol.ResultAck { return []protocol.ResultAck{f.dup(f.a)} },
		classes:    verdictClasses{duplicates: 1},
		duplicates: 1,
		pending:    none,
		held:       1,
	}, {
		name: "honest chunk beside a completed chunk",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			f.reduce(f.group(f.a))
			return f.group(f.a, f.b)
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.dup(f.a), f.requeued(f.b)}
		},
		classes:    verdictClasses{batch: 1, duplicates: 1},
		rejected:   1,
		duplicates: 1,
		reassigned: 1,
		pending:    func(f *verdictFixture) []int { return []int{f.b} },
	}, {
		name:    "chunk not in the grant",
		prepare: func(f *verdictFixture) protocol.BatchGroup { return f.group(f.c) },
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.rej(f.c,
				"job %016x chunk %d does not match a current assignment of the session", f.job.ID(), f.c)}
		},
		classes:  verdictClasses{stale: 1},
		rejected: 1,
		pending:  func(f *verdictFixture) []int { return []int{f.c} }, // never left it
		held:     2,
	}, {
		name:    "honest chunk beside a chunk not in the grant",
		prepare: func(f *verdictFixture) protocol.BatchGroup { return f.group(f.a, f.c) },
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.requeued(f.a), f.rej(f.c,
				"job %016x chunk %d does not match a current assignment of the session", f.job.ID(), f.c)}
		},
		classes:    verdictClasses{stale: 1, batch: 1},
		rejected:   2,
		reassigned: 1,
		pending:    func(f *verdictFixture) []int { return []int{f.a, f.c} },
		held:       1,
	}, {
		name: "undecodable tally",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			g := f.group(f.a, f.b)
			g.TallyData = []byte{0xFF, 0xFF, 0xFF}
			return g
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			err := mc.DecodeTallyInto(&mc.Tally{}, []byte{0xFF, 0xFF, 0xFF})
			return []protocol.ResultAck{f.rej(f.a, "undecodable tally: %v", err), f.rej(f.b, "undecodable tally: %v", err)}
		},
		classes:    verdictClasses{batch: 2},
		rejected:   2,
		reassigned: 2,
		pending:    func(f *verdictFixture) []int { return []int{f.a, f.b} },
	}, {
		name: "unmergeable tally",
		prepare: func(f *verdictFixture) protocol.BatchGroup {
			g := f.group(f.a)
			g.TallyData = mc.AppendTally(nil, &mc.Tally{})
			return g
		},
		acks: func(f *verdictFixture) []protocol.ResultAck {
			var bad mc.Tally
			if err := mc.DecodeTallyInto(&bad, mc.AppendTally(nil, &mc.Tally{})); err != nil {
				f.t.Fatal(err)
			}
			return []protocol.ResultAck{f.rej(f.a, "unmergeable tally: %v", mc.NewTally(f.cfg).Merge(&bad))}
		},
		classes:    verdictClasses{batch: 1},
		rejected:   1,
		reassigned: 1,
		pending:    func(f *verdictFixture) []int { return []int{f.a} },
		held:       1,
	}, {
		name:           "job canceled while its group waited on redMu",
		prepare:        func(f *verdictFixture) protocol.BatchGroup { return f.group(f.a, f.b) },
		cancelMidMerge: true,
		acks: func(f *verdictFixture) []protocol.ResultAck {
			return []protocol.ResultAck{f.rej(f.a, "job %016x canceled", f.job.ID()),
				f.rej(f.b, "job %016x canceled", f.job.ID())}
		},
		classes:  verdictClasses{stale: 2},
		rejected: 2,
		pending:  none,
	}}
}

// run reduces the row's group and returns its acks; with cancelMidMerge
// the test holds the job's redMu, so the group claims its chunks and
// waits, and the job is canceled before it may merge.
func (row verdictRow) run(f *verdictFixture, g protocol.BatchGroup) []protocol.ResultAck {
	if !row.cancelMidMerge {
		return f.reduce(g)
	}
	f.job.redMu.Lock()
	done := make(chan []protocol.ResultAck)
	go func() { done <- f.reduce(g) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		f.reg.mu.Lock()
		claimed := f.job.chunks[g.Chunks[0]].phase == phaseMerging
		f.reg.mu.Unlock()
		if claimed {
			break
		}
		if time.Now().After(deadline) {
			f.job.redMu.Unlock()
			f.t.Fatal("group never claimed its chunks")
		}
	}
	if err := f.reg.Cancel(f.job.ID()); err != nil {
		f.t.Fatal(err)
	}
	f.job.redMu.Unlock()
	return <-done
}

// TestChunkVerdicts pins what the reducer does with every kind of
// returned chunk: the ack, the rejection or duplicate counter it moves,
// the job's rejected/duplicates/reassigned counts, whether the chunk is
// back in pending, and how much of its grant the session still holds.
func TestChunkVerdicts(t *testing.T) {
	for _, row := range verdictRows() {
		t.Run(row.name, func(t *testing.T) {
			f := newVerdictFixture(t, row.target)
			g := row.prepare(f)
			before, st0 := f.reg.verdictClasses(), f.job.Status()
			acks := row.run(f, g)
			after, st := f.reg.verdictClasses(), f.job.Status()

			if want := row.acks(f); !slices.Equal(acks, want) {
				t.Errorf("acks\n got %+v\nwant %+v", acks, want)
			}
			moved := verdictClasses{after.stale - before.stale, after.batch - before.batch,
				after.benign - before.benign, after.duplicates - before.duplicates}
			if moved != row.classes {
				t.Errorf("counters moved %+v, want %+v", moved, row.classes)
			}
			if got := [3]int{st.Rejected - st0.Rejected, st.Duplicates - st0.Duplicates, st.Reassigned - st0.Reassigned}; got != [3]int{row.rejected, row.duplicates, row.reassigned} {
				t.Errorf("job rejected/duplicates/reassigned moved %v, want %v", got, [3]int{row.rejected, row.duplicates, row.reassigned})
			}
			f.reg.mu.Lock()
			var pending []int
			for _, id := range g.Chunks {
				if slices.Contains(f.job.pending, id) && !slices.Contains(pending, id) {
					pending = append(pending, id)
				}
			}
			f.reg.mu.Unlock()
			if want := row.pending(f); !slices.Equal(pending, want) {
				t.Errorf("group chunks in pending %v, want %v", pending, want)
			}
			if held := f.reg.Fleet()[0].ChunksHeld; held != row.held {
				t.Errorf("session holds %d chunks, want %d", held, row.held)
			}
			checkChunkBooks(t, f.job)
		})
	}
}

// TestChunkVerdictTimeline holds a job's timeline to its counts for every
// verdict: each rejection the job counts is one chunk-rejected event and
// each reassignment one chunk-reassigned event, so GET /jobs/{id}/events
// agrees with /jobs/{id} while the ring has not wrapped.
func TestChunkVerdictTimeline(t *testing.T) {
	for _, row := range verdictRows() {
		t.Run(row.name, func(t *testing.T) {
			f := newVerdictFixture(t, row.target)
			row.run(f, row.prepare(f))
			st := f.job.Status()
			events, dropped := f.job.Events()
			if dropped != 0 {
				t.Fatalf("ring dropped %d events", dropped)
			}
			count := map[obs.EventKind]int{}
			for _, e := range events {
				count[e.Kind]++
			}
			if count[obs.EvChunkRejected] != st.Rejected || count[obs.EvChunkReassigned] != st.Reassigned {
				t.Errorf("timeline has %d chunk-rejected and %d chunk-reassigned events, job counts %d rejected and %d reassigned",
					count[obs.EvChunkRejected], count[obs.EvChunkReassigned], st.Rejected, st.Reassigned)
			}
		})
	}
}

// TestUnrequestedGridIsUnmergeable holds the reducer to the job's own
// sections: a group whose tally carries an 8³ absorption grid its job never
// asked for is rejected as unmergeable and its chunk requeued, and the
// job's tally gains no grid — neither in its result nor in the journal
// snapshots encoded from it.
func TestUnrequestedGridIsUnmergeable(t *testing.T) {
	f := newVerdictFixture(t, false)
	g := f.group(f.a)
	extra, err := mc.DecodeTally(g.TallyData)
	if err != nil {
		t.Fatal(err)
	}
	extra.AbsGrid = grid.NewCube(8, 20)
	extra.AbsGrid.Data[0] = 1
	g.TallyData = mc.AppendTally(nil, extra)

	acks := f.reduce(g)
	want := []protocol.ResultAck{f.rej(f.a, "unmergeable tally: %v", mc.NewTally(f.cfg).Merge(extra))}
	if !slices.Equal(acks, want) {
		t.Errorf("acks\n got %+v\nwant %+v", acks, want)
	}
	f.job.redMu.Lock()
	adopted := f.job.tally.AbsGrid != nil
	f.job.redMu.Unlock()
	if adopted {
		t.Error("the job's tally adopted the group's unrequested absorption grid")
	}
	f.reg.mu.Lock()
	requeued := slices.Contains(f.job.pending, f.a)
	f.reg.mu.Unlock()
	if !requeued {
		t.Errorf("chunk %d not back in pending", f.a)
	}
	checkChunkBooks(t, f.job)
}

// TestReclaimedChunkQueuedOnce covers a late result for a chunk a timeout
// already put back in pending: claiming it takes it out of pending, so a
// merge that fails queues it once — not twice, which granted and computed
// the chunk twice more.
func TestReclaimedChunkQueuedOnce(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: 3,
		ChunkTimeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sess := reg.registerSession(&protocol.Hello{Name: "late"}, "")
	a := reg.nextChunk(sess)
	time.Sleep(5 * time.Millisecond)
	reg.mu.Lock()
	out.Job.reclaimExpiredLocked(time.Now())
	reclaimed := slices.Clone(out.Job.pending)
	reg.mu.Unlock()
	if !slices.Equal(reclaimed, []int{a.ChunkID}) {
		t.Fatalf("pending %v after the reclaim, want [%d]", reclaimed, a.ChunkID)
	}
	checkChunkBooks(t, out.Job)
	if ack := reduceOne(reg, sess, a, &mc.Tally{}); !ack.Rejected {
		t.Fatalf("unmergeable late result not rejected: %+v", ack)
	}
	if st := reg.Stats(); st.PendingChunks != 1 {
		t.Fatalf("%d chunks pending for a one-chunk job, want 1", st.PendingChunks)
	}
	checkChunkBooks(t, out.Job)
}

// TestReclaimRequeuesOldestGrantFirst: chunks that expire in one scan go
// back to pending oldest grant first, the chunks of one grant by id, so the
// order they are granted again in is the same on every run.
func TestReclaimRequeuesOldestGrantFirst(t *testing.T) {
	for range 20 {
		reg := New(Options{})
		out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 3,
			ChunkTimeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		// A first session takes two chunks in one grant (an estimate lets
		// the grant hold more than one), then eight more take one each.
		reg.mu.Lock()
		out.Job.chunkSecs = 1
		reg.mu.Unlock()
		msg := reg.nextAssignment(reg.registerSession(&protocol.Hello{Name: "pair"}, ""), want(2))
		if msg.Type != protocol.MsgTaskAssign || len(msg.Assign.Grants) != 2 {
			t.Fatalf("first grant: %+v", msg)
		}
		order := []int{min(msg.Assign.Grants[0].ChunkID, msg.Assign.Grants[1].ChunkID),
			max(msg.Assign.Grants[0].ChunkID, msg.Assign.Grants[1].ChunkID)}
		for i := range 8 {
			order = append(order, reg.nextChunk(reg.registerSession(&protocol.Hello{Name: fmt.Sprint("one-", i)}, "")).ChunkID)
		}
		reg.mu.Lock()
		out.Job.reclaimExpiredLocked(time.Now().Add(2 * time.Minute))
		pending := slices.Clone(out.Job.pending)
		reg.mu.Unlock()
		if !slices.Equal(pending, order) {
			t.Fatalf("pending %v after the reclaim, want %v", pending, order)
		}
		checkChunkBooks(t, out.Job)
	}
}

// TestRegrantedChunkReclaimedAtItsNewDeadline: a chunk a timeout took back
// and granted to another session is out on the new grant alone. It is
// reclaimed at that grant's deadline, not earlier, and the reclaim names
// the session that holds it now.
func TestRegrantedChunkReclaimedAtItsNewDeadline(t *testing.T) {
	const timeout = time.Minute
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: 3,
		ChunkTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	first := reg.registerSession(&protocol.Hello{Name: "first"}, "")
	a := reg.nextChunk(first)
	reg.mu.Lock()
	first.grant.at = first.grant.at.Add(-2 * timeout) // long overdue
	reg.mu.Unlock()
	// The second session's scan reclaims the chunk and grants it again.
	second := reg.registerSession(&protocol.Hello{Name: "second"}, "")
	if b := reg.nextChunk(second); b == nil || b.ChunkID != a.ChunkID {
		t.Fatalf("second session granted %+v, want the reclaimed chunk %d", b, a.ChunkID)
	}
	checkChunkBooks(t, out.Job)

	reg.mu.Lock()
	due := second.grant.at.Add(timeout)
	next := out.Job.reclaimExpiredLocked(due)
	pending := len(out.Job.pending)
	reg.mu.Unlock()
	if !next.Equal(due) || pending != 0 {
		t.Fatalf("at its new deadline: next reclaim %v (want %v), %d pending (want 0)", next, due, pending)
	}
	reg.mu.Lock()
	next = out.Job.reclaimExpiredLocked(due.Add(time.Nanosecond))
	requeued := slices.Clone(out.Job.pending)
	reg.mu.Unlock()
	if !next.IsZero() || !slices.Equal(requeued, []int{a.ChunkID}) {
		t.Fatalf("past its new deadline: next reclaim %v (want none), pending %v (want [%d])", next, requeued, a.ChunkID)
	}
	events, _ := out.Job.Events()
	var from []string
	for _, e := range events {
		if e.Kind == obs.EvChunkReassigned {
			from = append(from, e.Worker+"/"+e.Detail)
		}
	}
	if !slices.Equal(from, []string{"first/timeout", "second/timeout"}) {
		t.Fatalf("chunk-reassigned events %v, want first/timeout then second/timeout", from)
	}
	checkChunkBooks(t, out.Job)
}
