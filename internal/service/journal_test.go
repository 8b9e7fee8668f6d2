package service

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/source"
	"repro/internal/tissue"
	"repro/internal/wal"
)

// journaledRegistry opens a WAL in dir and builds a registry journaling
// into it. Auto-compaction is disabled (CompactBytes < 0) so tests see
// exactly the records their scenario produced.
func journaledRegistry(t *testing.T, dir string, snapEvery int, o Options) (*Registry, *wal.Log, *wal.Replay) {
	t.Helper()
	wl, rep, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	o.Journal = NewJournal(wl, JournalOptions{SnapshotEvery: snapEvery, CompactBytes: -1})
	return New(o), wl, rep
}

// replayInto folds the records from dir into a fresh registry.
func replayInto(t *testing.T, dir string, o Options) (*Registry, *wal.Log, int) {
	t.Helper()
	reg, wl, rep := journaledRegistry(t, dir, 0, o)
	restored, err := reg.journal.Replay(reg, rep.Records)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return reg, wl, restored
}

// snapshotOf cuts a job's resumable state the way replay sees it: the
// journal's own snapshot record decoded back. Its spec is acceptedSpec(j).
func snapshotOf(t *testing.T, j *Job) *snapshot {
	t.Helper()
	_, snap, err := decodeSnapshotRec(snapshotRecord(j))
	if err != nil {
		t.Fatalf("snapshot record: %v", err)
	}
	return &snap
}

// workChunks runs the minimal per-chunk worker loop until n chunks are
// accepted, then disconnects — the mid-run crash shape the journal tests
// need. It mirrors workClient but with a chunk budget.
func workChunks(rw net.Conn, n int) error {
	pc := protocol.NewConn(rw)
	defer pc.Close()
	if err := pc.Send(&protocol.Message{Type: protocol.MsgHello,
		Hello: &protocol.Hello{Version: protocol.Version, Name: "crashy"}}); err != nil {
		return err
	}
	if _, err := pc.Recv(); err != nil {
		return err
	}
	type rt struct {
		cfg     *mc.Config
		seed    uint64
		streams int
		fan     int
	}
	jobs := map[uint64]*rt{}
	for done := 0; done < n; {
		if err := pc.Send(&protocol.Message{Type: protocol.MsgTaskRequest,
			Request: want(1)}); err != nil {
			return err
		}
		msg, err := pc.Recv()
		if err != nil {
			return err
		}
		switch msg.Type {
		case protocol.MsgTaskAssign:
			a := grantOf(msg.Assign, 0)
			r := jobs[a.JobID]
			if r == nil {
				job := msg.Assign.Job
				if job == nil {
					return errors.New("assign without descriptor")
				}
				cfg, err := job.Spec.Build()
				if err != nil {
					return err
				}
				r = &rt{cfg: cfg, seed: job.Seed, streams: job.Streams, fan: job.Fan}
				jobs[a.JobID] = r
			}
			tally, err := mc.RunStreamFan(r.cfg, a.Photons, r.seed, a.Stream, r.streams, r.fan)
			if err != nil {
				return err
			}
			if err := pc.Send(flushOnly(oneChunkBatch(a.JobID, a.ChunkID, tally))); err != nil {
				return err
			}
			if _, err := pc.Recv(); err != nil {
				return err
			}
			done++
		case protocol.MsgNoWork:
			if msg.NoWork.Done {
				return nil
			}
		default:
			return errors.New("unexpected message")
		}
	}
	return nil
}

func tallyBytes(t *testing.T, tt *mc.Tally) []byte {
	t.Helper()
	if tt == nil {
		t.Fatal("nil tally")
	}
	return mc.AppendTally(nil, tt)
}

// TestJournalReplayResumesAcceptedJob: a job journaled at accept time but
// never started survives a crash — replay re-queues it under the same
// content-derived ID, admission-exempt, counted in stats and metrics, and
// a worker then completes it to the standalone ground truth.
func TestJournalReplayResumesAcceptedJob(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, rep0 := journaledRegistry(t, dir, 0, Options{})
	if len(rep0.Records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(rep0.Records))
	}
	spec := slabSpec(3)
	out, err := regA.Submit(JobSpec{Spec: spec, TotalPhotons: 2000, ChunkPhotons: 250, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	id := out.Job.ID()
	wlA.Close() // the crash: nothing but the journal survives

	obsReg := obs.NewRegistry()
	regB, wlB, restored := replayInto(t, dir, Options{Obs: obsReg})
	defer wlB.Close()
	if restored != 1 {
		t.Fatalf("replay restored %d jobs, want 1", restored)
	}
	j := regB.Get(id)
	if j == nil {
		t.Fatal("replayed job did not keep its content-derived ID")
	}
	if st := j.Status().State; st != StateQueued.String() {
		t.Fatalf("replayed job state %q, want queued", st)
	}
	if got := regB.Stats().JobsReplayed; got != 1 {
		t.Fatalf("Stats.JobsReplayed = %d, want 1", got)
	}
	var buf bytes.Buffer
	obsReg.WriteText(&buf)
	if !bytes.Contains(buf.Bytes(), []byte("service_jobs_replayed_total 1")) {
		t.Fatalf("metrics missing replay count:\n%s", buf.String())
	}

	startWorkers(t, regB, 1)
	res, err := j.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := localTally(t, spec, 2000, 250, 7)
	if res.Tally.Launched != 2000 {
		t.Fatalf("launched %d, want 2000", res.Tally.Launched)
	}
	if math.Abs(res.Tally.AbsorbedWeight-want.AbsorbedWeight) > 1e-9 {
		t.Fatalf("absorbed %g != standalone %g", res.Tally.AbsorbedWeight, want.AbsorbedWeight)
	}
}

// TestJournalCrashMidRunByteIdenticalTally is the durability acceptance
// property, for every job shape the journal carries — fixed-count, fanned
// (the fan width must survive the accept record, or the resumed chunks
// decompose into different sub-streams) and precision-targeted (open-ended
// chunk space, moments in the snapshot tally): kill the registry mid-job,
// replay from the last amortized snapshot, recompute the lost tail, and
// the final tally is byte-for-byte the uninterrupted run's. Single worker
// + per-chunk results make the merge order deterministic, so "identical"
// here means identical float fold — not just close.
func TestJournalCrashMidRunByteIdenticalTally(t *testing.T) {
	for name, js := range map[string]JobSpec{
		"fixed-count": {Spec: slabSpec(4), TotalPhotons: 2000, ChunkPhotons: 250, Seed: 13},
		"fanned":      {Spec: slabSpec(4), TotalPhotons: 2000, ChunkPhotons: 250, Seed: 13, Fan: 3},
		// The default 16-chunk floor keeps the job running well past the kill.
		"precision-target": {Spec: targetSpec(4), ChunkPhotons: 250, Seed: 13,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05}},
	} {
		t.Run(name, func(t *testing.T) {
			// Baseline: the same job on an unjournaled registry, one
			// worker, never interrupted.
			base := New(Options{})
			outBase, err := base.Submit(js)
			if err != nil {
				t.Fatal(err)
			}
			startWorkers(t, base, 1)
			resBase, err := outBase.Job.Wait(60 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			baseBytes := tallyBytes(t, resBase.Tally)

			// Crash run: snapshot every 2 reduced chunks, kill after 5.
			dir := t.TempDir()
			regA, wlA, _ := journaledRegistry(t, dir, 2, Options{})
			outA, err := regA.Submit(js)
			if err != nil {
				t.Fatal(err)
			}
			server, client := net.Pipe()
			go regA.HandleConn(server)
			if err := workChunks(client, 5); err != nil {
				t.Fatalf("partial worker: %v", err)
			}
			client.Close()
			if done, _ := outA.Job.Progress(); done != 5 {
				t.Fatalf("crash run completed %d chunks, want 5", done)
			}
			wlA.Close() // SIGKILL

			regB, wlB, restored := replayInto(t, dir, Options{})
			defer wlB.Close()
			if restored != 1 {
				t.Fatalf("replay restored %d jobs, want 1", restored)
			}
			j := regB.Get(outA.Job.ID())
			if j == nil {
				t.Fatal("mid-run job not replayed")
			}
			// The 5th chunk landed after the last snapshot and nothing else
			// journals a reduction, so replay resumes from 4 completed and
			// the 5th recomputes (chunk tallies are pure functions of the
			// stream).
			if done, _ := j.Progress(); done != 4 {
				t.Fatalf("resumed at %d chunks, want 4 (last snapshot)", done)
			}
			startWorkers(t, regB, 1)
			res, err := j.Wait(60 * time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Tally.Launched != resBase.Tally.Launched {
				t.Fatalf("resumed run launched %d photons, uninterrupted %d",
					res.Tally.Launched, resBase.Tally.Launched)
			}
			if !bytes.Equal(tallyBytes(t, res.Tally), baseBytes) {
				t.Fatal("resumed tally is not byte-identical to the uninterrupted run")
			}
		})
	}
}

// TestSnapshotRejectsOutOfRangeChunk: a snapshot naming a completed chunk
// the job does not have is refused at both layers — the record decoder
// (what a corrupt journal hits) and restore (what replay calls).
func TestSnapshotRejectsOutOfRangeChunk(t *testing.T) {
	reg := New(Options{})
	out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 300, ChunkPhotons: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, out.Job)
	snap.Completed = append(snap.Completed, 999)
	if _, err := New(Options{}).restore(acceptedSpec(out.Job), snap); err == nil {
		t.Fatal("snapshot with an out-of-range completed chunk accepted")
	}

	// key · flags 0 · 3 chunks · 1 completed · chunk id 3
	rec := append(appendKeyRec(out.Job.key), 0, 3, 1, 3)
	if _, _, err := decodeSnapshotRec(rec); err == nil {
		t.Fatal("snapshot record with an out-of-range chunk id decoded")
	}
}

// TestJournalFinalizedReplayBornDone: a finished job replays born-Done
// from its accept record and final snapshot alone — its result is servable
// with zero workers attached, and the result cache is re-seeded so an
// identical resubmission is a cache hit. The job runs 16 chunks under the
// default snapshot cadence, which also pins the record mix: exactly one
// accept and one snapshot, nothing per chunk and no finalize mark. The two
// records restore it in either order.
func TestJournalFinalizedReplayBornDone(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 0, Options{})
	spec := slabSpec(5)
	js := JobSpec{Spec: spec, TotalPhotons: 4000, ChunkPhotons: 250, Seed: 3}
	out, err := regA.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	startWorkers(t, regA, 1)
	resA, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wlA.Close()

	regB, wlB, rep := journaledRegistry(t, dir, 0, Options{})
	defer wlB.Close()
	var mix []wal.RecordType
	for _, rec := range rep.Records {
		mix = append(mix, rec.Type)
	}
	if want := []wal.RecordType{wal.RecJobAccepted, wal.RecSnapshot}; !slices.Equal(mix, want) {
		t.Fatalf("a 16-chunk job journaled record types %v, want %v", mix, want)
	}
	restored, err := regB.journal.Replay(regB, rep.Records)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("replay restored %d jobs, want 1", restored)
	}
	j := regB.Get(out.Job.ID())
	if j == nil {
		t.Fatal("finished job not replayed")
	}
	if st := j.Status().State; st != StateDone.String() {
		t.Fatalf("replayed job state %q, want done", st)
	}
	resB, err := j.Wait(time.Second) // no workers: must already be done
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyBytes(t, resB.Tally), tallyBytes(t, resA.Tally)) {
		t.Fatal("replayed final tally differs from the pre-crash result")
	}
	dup, err := regB.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Cached || dup.Job != j {
		t.Fatalf("repeat after replay: %+v, want the replayed job, cached", dup)
	}

	// Submit appends the accept off the registry lock, so a quick job's
	// final snapshot can reach the log first; it still counts.
	regC, wlC, _ := journaledRegistry(t, t.TempDir(), 0, Options{})
	defer wlC.Close()
	if n, err := regC.journal.Replay(regC, []wal.Record{rep.Records[1], rep.Records[0]}); err != nil || n != 1 {
		t.Fatalf("snapshot before its accept: restored %d jobs (%v), want 1", n, err)
	}
	if jc := regC.Get(out.Job.ID()); jc == nil || jc.Status().State != StateDone.String() {
		t.Fatal("snapshot before its accept: the job is not back born done")
	}
}

// TestJournalCanceledJobNotReplayed: a cancel mark drops the job from the
// fold — a restart must not resurrect work the operator killed — also when
// the cancel reached the log before the job's accept record (Submit appends
// the accept off the registry lock, so a quick DELETE can overtake it).
func TestJournalCanceledJobNotReplayed(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 0, Options{})
	out, err := regA.Submit(JobSpec{Spec: slabSpec(6), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := regA.Cancel(out.Job.ID()); err != nil {
		t.Fatal(err)
	}
	wlA.Close()
	_, wlA, rep := journaledRegistry(t, dir, 0, Options{})
	wlA.Close()
	if len(rep.Records) != 2 || rep.Records[1].Type != wal.RecJobCanceled {
		t.Fatalf("journal holds %d records, want the accept and the cancel", len(rep.Records))
	}

	for order, records := range map[string][]wal.Record{
		"as appended":  rep.Records,
		"cancel first": {rep.Records[1], rep.Records[0]},
	} {
		regB, wlB, _ := journaledRegistry(t, t.TempDir(), 0, Options{})
		restored, err := regB.journal.Replay(regB, records)
		wlB.Close()
		if err != nil || restored != 0 {
			t.Fatalf("%s: replay restored %d jobs (%v), want 0", order, restored, err)
		}
		if regB.Get(out.Job.ID()) != nil {
			t.Fatalf("%s: canceled job resurrected by replay", order)
		}
	}
}

// TestJournalReplaysResubmissionAfterCancel: an accept record starts a new
// incarnation of its key, so a job canceled and then submitted again is
// accepted work on restart — back under the ID its client holds, the one
// the resubmission took over from the canceled job — and it finishes to
// the standalone tally.
func TestJournalReplaysResubmissionAfterCancel(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 0, Options{})
	spec := slabSpec(6)
	js := JobSpec{Spec: spec, TotalPhotons: 1000, ChunkPhotons: 250, Seed: 5}
	first, err := regA.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	if err := regA.Cancel(first.Job.ID()); err != nil {
		t.Fatal(err)
	}
	again, err := regA.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	id := again.Job.ID()
	wlA.Close()

	regB, wlB, restored := replayInto(t, dir, Options{})
	defer wlB.Close()
	if restored != 1 || len(regB.List()) != 1 {
		t.Fatalf("replay restored %d jobs (%d listed), want the resubmission", restored, len(regB.List()))
	}
	j := regB.Get(id)
	if j == nil || id != first.Job.ID() {
		t.Fatalf("resubmission %016x not back under the canceled job's ID %016x", id, first.Job.ID())
	}
	startWorkers(t, regB, 1)
	res, err := j.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := localTally(t, spec, 1000, 250, 5)
	if res.Tally.Launched != want.Launched || math.Abs(res.Tally.AbsorbedWeight-want.AbsorbedWeight) > 1e-9 {
		t.Fatalf("launched %d, absorbed %g; standalone %d, %g",
			res.Tally.Launched, res.Tally.AbsorbedWeight, want.Launched, want.AbsorbedWeight)
	}
}

// TestJournalRestartIsIdempotent: a restart with no traffic leaves the log
// as it found it. Replay compacts once, so the log a restart leaves holds
// one accept followed by one snapshot per job — finished, mid-run and
// never started alike — and a second restart on it rewrites the same
// bytes, not one more copy of every job.
func TestJournalRestartIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 2, Options{})
	done, err := regA.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go regA.HandleConn(server)
	if err := workChunks(client, 4); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := done.Job.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(4); seed <= 5; seed++ {
		if _, err := regA.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 250, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	wlA.Close()

	var sizes []int64
	for restart := range 3 {
		reg, wl, restored := replayInto(t, dir, Options{})
		if restored != 3 {
			t.Fatalf("restart %d restored %d jobs, want 3", restart, restored)
		}
		sizes = append(sizes, wl.Size())
		wl.Close()
		_, wl, rep := journaledRegistry(t, dir, 0, Options{})
		wl.Close()
		if len(rep.Records) != 2*len(reg.List()) {
			t.Fatalf("restart %d left %d records for %d jobs, want an accept and a snapshot each",
				restart, len(rep.Records), len(reg.List()))
		}
		for i := 0; i < len(rep.Records); i += 2 {
			acc, snap := rep.Records[i], rep.Records[i+1]
			if acc.Type != wal.RecJobAccepted || snap.Type != wal.RecSnapshot ||
				!bytes.Equal(acc.Data[:len(Key{})], snap.Data[:len(Key{})]) {
				t.Fatalf("restart %d: records %d, %d are types %d, %d, want an accept and its job's snapshot",
					restart, i, i+1, acc.Type, snap.Type)
			}
		}
	}
	if sizes[1] != sizes[0] || sizes[2] != sizes[0] {
		t.Fatalf("log size across restarts with no traffic: %v, want it unchanged", sizes)
	}
}

// TestJournalCompactionShrinksAndReplays: CompactJournal rewrites a
// chatty history (accept + per-chunk snapshots) down
// to one snapshot per retained job, the log shrinks, canceled jobs are
// dropped, and a replay of the compacted log restores the same state.
func TestJournalCompactionShrinksAndReplays(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 1, Options{}) // snapshot every chunk: maximal history
	specDone := slabSpec(7)
	outDone, err := regA.Submit(JobSpec{Spec: specDone, TotalPhotons: 2000, ChunkPhotons: 250, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go regA.HandleConn(server)
	if err := workChunks(client, 8); err != nil {
		t.Fatal(err)
	}
	client.Close()
	resDone, err := outDone.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	outQueued, err := regA.Submit(JobSpec{Spec: slabSpec(8), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	outCanceled, err := regA.Submit(JobSpec{Spec: slabSpec(9), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if err := regA.Cancel(outCanceled.Job.ID()); err != nil {
		t.Fatal(err)
	}

	before := wlA.Size()
	if err := regA.CompactJournal(); err != nil {
		t.Fatalf("CompactJournal: %v", err)
	}
	if after := wlA.Size(); after >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d", before, after)
	}
	wlA.Close()

	regB, wlB, restored := replayInto(t, dir, Options{})
	defer wlB.Close()
	if restored != 2 {
		t.Fatalf("replay restored %d jobs, want 2 (done + queued)", restored)
	}
	jd := regB.Get(outDone.Job.ID())
	if jd == nil || jd.Status().State != StateDone.String() {
		t.Fatalf("finished job lost in compaction: %v", jd)
	}
	resB, err := jd.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyBytes(t, resB.Tally), tallyBytes(t, resDone.Tally)) {
		t.Fatal("compaction changed the finished job's tally")
	}
	jq := regB.Get(outQueued.Job.ID())
	if jq == nil || jq.Status().State != StateQueued.String() {
		t.Fatalf("queued job lost in compaction: %v", jq)
	}
	if regB.Get(outCanceled.Job.ID()) != nil {
		t.Fatal("compaction retained a canceled job")
	}
}

// TestJournalCompactionLeavesCacheHitsOut: a cache hit is no job — an
// exact repeat is the job that ran, and a looser target the deeper run that
// meets it — so neither the append path nor compaction writes one: a shard
// that was SIGTERM'd (compact, then exit) restores the jobs a SIGKILL'd one
// would, a popular spec's repeats do not each leave an accept + tally pair
// in the log, and after the restart a repeat and a looser target both name
// the restored run again.
func TestJournalCompactionLeavesCacheHitsOut(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 0, Options{})
	js := JobSpec{Spec: targetSpec(7), ChunkPhotons: 250, Seed: 17,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05}}
	ran, err := regA.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	startWorkers(t, regA, 1)
	res, err := ran.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	uncompacted := wlA.Size()
	looser := js
	looser.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.2}
	if out, err := regA.Submit(js); err != nil || !out.Cached || out.Job != ran.Job {
		t.Fatalf("repeat: %+v, %v; want the job that ran, cached", out, err)
	}
	if out, err := regA.Submit(looser); err != nil || !out.Cached || out.Job != ran.Job {
		t.Fatalf("looser target: %+v, %v; want the job that ran, cached", out, err)
	}
	if !looser.Target.MetBy(res.Tally) {
		t.Fatal("the run's tally does not meet the looser target it answered")
	}
	if wlA.Size() != uncompacted {
		t.Fatal("a cache hit appended to the journal")
	}
	if err := regA.CompactJournal(); err != nil {
		t.Fatalf("CompactJournal: %v", err)
	}
	wlA.Close()

	regB, wlB, restored := replayInto(t, dir, Options{})
	defer wlB.Close()
	if restored != 1 || len(regB.List()) != 1 {
		t.Fatalf("replay restored %d jobs (%d listed), want only the one that ran", restored, len(regB.List()))
	}
	back := regB.Get(ran.Job.ID())
	if back == nil {
		t.Fatal("the job that ran did not come back")
	}
	resB, err := back.Wait(time.Second)
	if err != nil || !bytes.Equal(tallyBytes(t, resB.Tally), tallyBytes(t, res.Tally)) {
		t.Fatalf("the job that ran came back with another tally (%v)", err)
	}
	if out, err := regB.Submit(js); err != nil || !out.Cached || out.Job != back {
		t.Fatalf("repeat after the restart: %+v, %v; want the restored run, cached", out, err)
	}
	if out, err := regB.Submit(looser); err != nil || !out.Cached || out.Job != back {
		t.Fatalf("looser target after the restart: %+v, %v; want the restored run, cached", out, err)
	}
}

// TestJournalRestoresEveryJobUnderItsAcceptedID: the variants of one
// physics share their ID's shard bits but not their IDs, so neither an
// unjournaled cache hit in between nor the order a replay restores them in
// moves one. A looser run, its exact repeat (a hit on the run, never
// journaled) and a tighter target that runs fresh: after a crash (the
// appended log) and after a clean stop (the compacted one), both jobs that
// ran are back under the IDs they were accepted with, and the repeat, again,
// names the restored looser run.
func TestJournalRestoresEveryJobUnderItsAcceptedID(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 0, Options{})
	startWorkers(t, regA, 1)
	run := func(js JobSpec, cached bool) *Job {
		t.Helper()
		out, err := regA.Submit(js)
		if err != nil || out.Cached != cached {
			t.Fatalf("submission: %+v, %v; want cached %v", out, err, cached)
		}
		if _, err := out.Job.Wait(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		return out.Job
	}
	loose := JobSpec{Spec: targetSpec(7), ChunkPhotons: 250, Seed: 23,
		Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.3}}
	tight := loose
	tight.Target = &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.01}
	ran := []*Job{run(loose, false)}
	if repeat := run(loose, true); repeat != ran[0] {
		t.Fatalf("the repeat is job %016x, want the looser run %016x", repeat.ID(), ran[0].ID())
	}
	ran = append(ran, run(tight, false))
	wlA.Close()

	for _, stop := range []string{"crash", "clean stop"} {
		regB, wlB, restored := replayInto(t, dir, Options{})
		if restored != len(ran) {
			t.Fatalf("%s: replay restored %d jobs, want %d", stop, restored, len(ran))
		}
		for _, j := range ran {
			if back := regB.Get(j.ID()); back == nil || back.key != j.key {
				t.Errorf("%s: job %016x is not back under its ID", stop, j.ID())
			}
		}
		if out, err := regB.Submit(loose); err != nil || !out.Cached || out.Job.ID() != ran[0].ID() {
			t.Errorf("%s: the repeat after replay is %+v, %v; want the looser run %016x, cached", stop, out, err, ran[0].ID())
		}
		if err := regB.CompactJournal(); err != nil {
			t.Fatal(err)
		}
		wlB.Close()
	}
}

// TestJournalSizeCompactionReachesSingleBatchJobs: a log fed only by jobs
// that finish in their first batch — each appends an accept and its final
// snapshot, nothing else — must still be size-compacted while serving. The
// trigger used to sit on the non-final-batch path alone, so such a log grew
// by every job ever run until SIGTERM. With eight jobs retained, the log
// must never hold half of what forty jobs appended, and what is left must
// replay every job it names born Done, tally intact, with no worker.
func TestJournalSizeCompactionReachesSingleBatchJobs(t *testing.T) {
	const jobs, retain = 40, 8
	dir := t.TempDir()
	wl, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Options{RetainDone: retain,
		Journal: NewJournal(wl, JournalOptions{CompactBytes: 4 << 10})})
	startWorkers(t, reg, 1)

	var perJob, peak int64
	ids := make([]uint64, 0, jobs)
	tallies := make(map[uint64][]byte)
	for seed := uint64(1); seed <= jobs; seed++ {
		out, err := reg.Submit(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 100, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := out.Job.Wait(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, out.Job.ID())
		tallies[out.Job.ID()] = tallyBytes(t, res.Tally)
		size := wl.Size()
		if seed == 1 {
			perJob = size // one accept + one final snapshot
		}
		peak = max(peak, size)
	}
	if appended := jobs * perJob; peak > appended/2 {
		t.Fatalf("log peaked at %d B of the %d B appended: size compaction never ran", peak, appended)
	}
	wl.Close()

	regB, wlB, restored := replayInto(t, dir, Options{RetainDone: retain})
	defer wlB.Close()
	if restored < retain {
		t.Fatalf("replay restored %d jobs, want at least the %d retained", restored, retain)
	}
	if st := regB.Stats(); st.JobsDone != min(restored, retain) || st.JobsQueued+st.JobsRunning != 0 {
		t.Fatalf("replayed jobs not all born done: %+v", st)
	}
	for _, id := range ids[jobs-retain:] {
		j := regB.Get(id)
		if j == nil {
			t.Fatalf("retained job %016x lost to compaction", id)
		}
		res, err := j.Wait(time.Second) // no workers: must already be done
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tallyBytes(t, res.Tally), tallies[id]) {
			t.Fatalf("job %016x replayed with a different tally", id)
		}
	}
}

// TestJournalCompactionCrashDoubleReplay reconstructs, at the service
// layer, the on-disk state of a crash at wal.mid-compaction: old history
// AND the compacted segment both present. Replay must be idempotent — the
// compacted records fold last and supersede the duplicated history.
func TestJournalCompactionCrashDoubleReplay(t *testing.T) {
	dir := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dir, 2, Options{})
	out, err := regA.Submit(JobSpec{Spec: slabSpec(10), TotalPhotons: 2000, ChunkPhotons: 250, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go regA.HandleConn(server)
	if err := workChunks(client, 8); err != nil {
		t.Fatal(err)
	}
	client.Close()
	resA, err := out.Job.Wait(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := wlA.Sync(); err != nil {
		t.Fatal(err)
	}
	saved := map[string][]byte{}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, s := range segs {
		data, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		saved[filepath.Base(s)] = data
	}
	if err := regA.CompactJournal(); err != nil {
		t.Fatal(err)
	}
	wlA.Close()
	// Resurrect the pre-compaction segments next to the compacted one.
	for name, data := range saved {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	regB, wlB, restored := replayInto(t, dir, Options{})
	defer wlB.Close()
	if restored != 1 {
		t.Fatalf("double replay restored %d jobs, want 1 (idempotence)", restored)
	}
	j := regB.Get(out.Job.ID())
	if j == nil || j.Status().State != StateDone.String() {
		t.Fatal("job lost across compaction crash")
	}
	resB, err := j.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyBytes(t, resB.Tally), tallyBytes(t, resA.Tally)) {
		t.Fatal("double replay changed the tally")
	}
}

// TestJournalLostFinalSnapshotRecomputes: a finished job whose final
// snapshot never reached the disk (torn away with the tail) is still an
// accepted job — replay queues it from the accept record alone and a
// worker recomputes the byte-identical tally.
func TestJournalLostFinalSnapshotRecomputes(t *testing.T) {
	dirA := t.TempDir()
	regA, wlA, _ := journaledRegistry(t, dirA, 0, Options{})
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 3}
	out, err := regA.Submit(js)
	if err != nil {
		t.Fatal(err)
	}
	startWorkers(t, regA, 1)
	resA, err := out.Job.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wlA.Close()
	_, wlA, rep := journaledRegistry(t, dirA, 0, Options{})
	wlA.Close()

	// The same log minus everything after the accept record.
	dirB := t.TempDir()
	regB, wlB, _ := journaledRegistry(t, dirB, 0, Options{})
	defer wlB.Close()
	if rep.Records[0].Type != wal.RecJobAccepted {
		t.Fatalf("first record has type %d, want the accept", rep.Records[0].Type)
	}
	restored, err := regB.journal.Replay(regB, rep.Records[:1])
	if err != nil || restored != 1 {
		t.Fatalf("Replay of a lone accept record: restored %d, err %v", restored, err)
	}
	j := regB.Get(out.Job.ID())
	if j == nil || j.Status().State != StateQueued.String() {
		t.Fatalf("accept without a snapshot replayed as %v, want a queued job", j)
	}
	startWorkers(t, regB, 1)
	resB, err := j.Wait(60 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tallyBytes(t, resB.Tally), tallyBytes(t, resA.Tally)) {
		t.Fatal("recomputed tally differs from the run whose final snapshot was lost")
	}
}

// TestReplayRefusesRetiredRecordTypes: a log holding a record of a retired
// type was written by an older release; Replay names the type and restores
// nothing, not even the jobs whose records it could read.
func TestReplayRefusesRetiredRecordTypes(t *testing.T) {
	js := JobSpec{Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 3}
	if err := js.normalize(0); err != nil {
		t.Fatal(err)
	}
	key, _, err := keysOf(&js)
	if err != nil {
		t.Fatal(err)
	}
	accept, err := encodeAcceptRec(key, &js)
	if err != nil {
		t.Fatal(err)
	}
	for _, retired := range []wal.RecordType{wal.RecJobAcceptedGob, wal.RecChunksReduced, wal.RecJobFinalized} {
		reg, wl, _ := journaledRegistry(t, t.TempDir(), 0, Options{})
		restored, err := reg.journal.Replay(reg, []wal.Record{
			{Type: wal.RecJobAccepted, Data: accept},
			{Type: retired, Data: appendKeyRec(key)},
		})
		wl.Close()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("retired type %d", retired)) {
			t.Fatalf("type %d: Replay returned %v, want an error naming the retired type", retired, err)
		}
		if restored != 0 || len(reg.List()) != 0 {
			t.Fatalf("type %d: refused log still restored %d jobs (%d listed)", retired, restored, len(reg.List()))
		}
	}
}

// TestReplaySkipsOverBoundJobs: a journal written before the ingress
// bounds may hold an accepted job whose fan or chunk count is over them.
// Replay normalizes it like any submission, so it is skipped with the "job
// skipped" warning — never built — and the jobs around it restore. Replay's
// compaction then leaves only the restored job in the log.
func TestReplaySkipsOverBoundJobs(t *testing.T) {
	accept := func(js JobSpec) wal.Record {
		t.Helper()
		key, _, err := deriveKeys(js.Spec, js.TotalPhotons, js.ChunkPhotons, js.Seed, js.Fan, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := encodeAcceptRec(key, &js)
		if err != nil {
			t.Fatal(err)
		}
		return wal.Record{Type: wal.RecJobAccepted, Data: rec}
	}
	var logged bytes.Buffer
	dir := t.TempDir()
	wl, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer wl.Close()
	reg := New(Options{Journal: NewJournal(wl, JournalOptions{CompactBytes: -1,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})})
	inBound := accept(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 50, Seed: 3})
	restored, err := reg.journal.Replay(reg, []wal.Record{
		accept(JobSpec{Spec: slabSpec(5), TotalPhotons: 100, ChunkPhotons: 50, Seed: 1, Fan: 2_000_000_000}),
		accept(JobSpec{Spec: slabSpec(5), TotalPhotons: 100_000_000_000, ChunkPhotons: 1, Seed: 2}),
		inBound,
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 || len(reg.List()) != 1 {
		t.Fatalf("replay restored %d jobs (%d listed), want only the one within bounds", restored, len(reg.List()))
	}
	if n := strings.Count(logged.String(), "job skipped"); n != 2 {
		t.Fatalf("replay warned %d times of a skipped job, want 2:\n%s", n, logged.String())
	}
	// Replay's compaction leaves the restored job alone in the log.
	wl.Close()
	_, wl, rep := journaledRegistry(t, dir, 0, Options{})
	wl.Close()
	if len(rep.Records) != 2 || rep.Records[0].Type != wal.RecJobAccepted ||
		!bytes.Equal(rep.Records[0].Data[:len(Key{})], inBound.Data[:len(Key{})]) {
		t.Fatalf("log after replay holds %d records, want the in-bound job's accept and snapshot", len(rep.Records))
	}
}

// journalShapes are the job shapes the accept-record test and the
// FuzzDecodeJournalRecord seed corpus share: the ones whose encodings
// differ in kind — a fanned slab, the paper's head (its last layer +Inf
// thick, which plain JSON cannot carry), a voxel grid, a precision target.
func journalShapes(t testing.TB) map[string]JobSpec {
	head := mc.NewSpec(tissue.AdultHead(), source.Spec{Kind: source.KindPencil},
		detector.Spec{Kind: detector.KindAnnulus, RMin: 1, RMax: 4})
	return map[string]JobSpec{
		"slab":  {Spec: slabSpec(5), TotalPhotons: 1000, ChunkPhotons: 250, Seed: 3, Fan: 2},
		"head":  {Spec: head, TotalPhotons: 1840, ChunkPhotons: 230, Seed: 5},
		"voxel": {Spec: voxelSpec(t), TotalPhotons: 500, ChunkPhotons: 250, Seed: 9},
		"precision_target": {Spec: targetSpec(5), ChunkPhotons: 250, Seed: 7,
			Target: &mc.Target{Observable: mc.ObsDiffuse, RelErr: 0.05}},
	}
}

// fillExported sets every exported field of v (recursively, allocating
// pointers and one-element slices) to a distinct non-zero value, so a
// codec that drops a field cannot round-trip it.
func fillExported(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillExported(t, v.Elem(), n)
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillExported(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillExported(t, v.Index(0), n)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n%100 + 1))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n%100 + 1))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*n) + 0.5)
	default:
		t.Fatalf("fillExported: JobSpec reaches a %s field; teach the test (and check the accept codec) about it", v.Kind())
	}
}

// TestAcceptRecordCarriesEveryField: the accept record is the JobSpec
// itself, so every exported field — present and future — survives the
// journal, and the keys a replayed job is filed under are the ones it was
// accepted under, for every job shape.
func TestAcceptRecordCarriesEveryField(t *testing.T) {
	var full JobSpec
	n := 0
	fillExported(t, reflect.ValueOf(&full).Elem(), &n)
	if full.Target == nil || full.Spec == nil || full.Spec.Voxel == nil {
		t.Fatal("fillExported left a pointer nil")
	}
	var key Key
	key[0], key[31] = 0xab, 0xcd
	rec, err := encodeAcceptRec(key, &full)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, got, err := decodeAcceptRec(rec)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || !reflect.DeepEqual(got, full) {
		t.Fatalf("accept record dropped or changed a field:\n got %+v\nwant %+v", got, full)
	}

	for name, js := range journalShapes(t) {
		if err := js.normalize(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		key, pkey, err := keysOf(&js)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, err := encodeAcceptRec(key, &js)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, back, err := decodeAcceptRec(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := back.normalize(0); err != nil {
			t.Fatalf("%s: decoded spec no longer normalizes: %v", name, err)
		}
		key2, pkey2, err := keysOf(&back)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if key2 != key || pkey2 != pkey {
			t.Fatalf("%s: keys moved across the accept record: %x/%x -> %x/%x",
				name, key[:8], pkey[:8], key2[:8], pkey2[:8])
		}
	}
}
