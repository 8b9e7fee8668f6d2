package distsys

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/mc"
)

// journalJob is the job every test here runs: ten 100-photon chunks.
func journalJob(dir string) JobOptions {
	return JobOptions{Spec: quickSpec(), TotalPhotons: 1000, ChunkPhotons: 100, Seed: 77, JournalDir: dir}
}

// oneAtATime makes a worker flush every chunk on its own, so a single
// worker's merge order — and with it the float fold — is the same in
// every run.
var oneAtATime = WorkerOptions{Name: "solo", FlushChunks: 1}

// interruptedJob runs a journaled job until a worker has had exactly
// chunksDone chunks reduced and then stops serving it. A caller that drops
// the returned manager without closing it models a SIGKILL: all that is
// left is the journal directory.
func interruptedJob(t *testing.T, opts JobOptions, chunksDone int) *DataManager {
	t.Helper()
	dm, err := NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	w := oneAtATime
	w.FailAfterChunks = chunksDone
	Work(client, w)
	if done, _ := dm.Progress(); done != chunksDone {
		t.Fatalf("interrupted run reduced %d chunks, want %d", done, chunksDone)
	}
	return dm
}

// finish serves dm to one worker and returns the completed tally's bytes.
func finish(t *testing.T, dm *DataManager) []byte {
	t.Helper()
	server, client := net.Pipe()
	go dm.HandleConn(server)
	go Work(client, oneAtATime)
	res, err := dm.Wait(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return mc.AppendTally(nil, res.Tally)
}

// TestJournalResumeByteIdentical is the restart contract: a DataManager
// killed mid-job and reopened on the same journal directory keeps its
// reduced chunks, recomputes only the rest, and finishes with a tally
// byte-identical to an uninterrupted run's — whether it died without
// warning or was closed politely first. Completion removes the journal.
func TestJournalResumeByteIdentical(t *testing.T) {
	full, err := NewDataManager(journalJob(""))
	if err != nil {
		t.Fatal(err)
	}
	want := finish(t, full)

	for name, polite := range map[string]bool{"killed": false, "closed": true} {
		t.Run(name, func(t *testing.T) {
			opts := journalJob(filepath.Join(t.TempDir(), "journal"))
			dm := interruptedJob(t, opts, 4)
			if polite {
				if err := dm.Close(); err != nil {
					t.Fatal(err)
				}
			}

			resumed, err := NewDataManager(opts)
			if err != nil {
				t.Fatal(err)
			}
			if done, total := resumed.Progress(); done != 4 || total != 10 {
				t.Fatalf("resumed progress %d/%d, want 4/10", done, total)
			}
			if got := finish(t, resumed); !bytes.Equal(got, want) {
				t.Fatal("resumed tally is not byte-identical to the uninterrupted run")
			}
			if _, err := os.Stat(opts.JournalDir); !os.IsNotExist(err) {
				t.Fatalf("completed job left its journal behind (stat: %v)", err)
			}
		})
	}
}

// TestJournalRefusesDifferentJob: a journal directory belongs to one job.
// Opening it for another — here the same physics under a different seed —
// is refused with a message naming the directory, and the refusal leaves
// the journaled job resumable.
func TestJournalRefusesDifferentJob(t *testing.T) {
	opts := journalJob(filepath.Join(t.TempDir(), "journal"))
	interruptedJob(t, opts, 3)

	other := opts
	other.Seed++
	_, err := NewDataManager(other)
	if err == nil {
		t.Fatal("journal of another job accepted")
	}
	if !strings.Contains(err.Error(), "different job") || !strings.Contains(err.Error(), opts.JournalDir) {
		t.Fatalf("unclear refusal: %v", err)
	}

	resumed, err := NewDataManager(opts)
	if err != nil {
		t.Fatalf("refusal damaged the journal: %v", err)
	}
	if done, _ := resumed.Progress(); done != 3 {
		t.Fatalf("resumed at %d chunks after a refused open, want 3", done)
	}
	resumed.Close()
}

// TestJournalOfFinishedJobIsDone: a manager that died after its last chunk
// reduced but before anyone collected the result (so the journal was never
// removed) reopens already done, with the same tally and no workers.
func TestJournalOfFinishedJobIsDone(t *testing.T) {
	opts := journalJob(filepath.Join(t.TempDir(), "journal"))
	dm, err := NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	server, client := net.Pipe()
	go dm.HandleConn(server)
	go Work(client, oneAtATime)
	select {
	case <-dm.Done():
	case <-time.After(time.Minute):
		t.Fatal("job did not finish")
	}

	reopened, err := NewDataManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reopened.Done():
	case <-time.After(time.Second):
		t.Fatal("journal of a finished job should reopen done")
	}
	res, err := reopened.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Launched != 1000 {
		t.Fatalf("reopened tally launched %d, want 1000", res.Tally.Launched)
	}
}
